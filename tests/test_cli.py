import os
import random
import re
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from threepc import cli, hashers, keyspace, potfile, protocol
from threepc.cli import (
    EXIT_CONNECTION,
    EXIT_FAILURE,
    EXIT_FOUL_PLAY,
    EXIT_NO_SMOOTH,
    EXIT_NOT_CRACKED,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PLAN_EXISTS,
    client_main,
)
from threepc.planner import Plan
from threepc.potfile import iter_potfile
from threepc.predicate import cardinality, parse_vector

import fixtures


def make_plan(tmp_path, capsys, target_pw=b"w0042", r=30.0, seed=7,
              descriptor=None, corpus_words=2000, algo="crc32", words=None):
    corpus = tmp_path / "corpus.txt"
    if words is None:
        words = [b"w%04d" % i for i in range(corpus_words)]
    corpus.write_bytes(b"\n".join(words))
    target = hashers.digest(algo, target_pw).hex
    code = client_main([
        "plan", "--algo", algo, "--target", target,
        "--keyspace", descriptor or "wordlist:corpus",
        "--corpus-file", str(corpus), "--r", str(r), "--seed", str(seed),
        "--plan-store", str(tmp_path / "plans"),
    ])
    capsys.readouterr()
    assert code == EXIT_OK
    plan_path = tmp_path / "plans" / f"{target}.plan"
    assert plan_path.is_file()
    return plan_path, corpus, target


class TestPlanCommand:
    def test_plan_writes_expected_fields(self, tmp_path, capsys):
        plan_path, _, target = make_plan(tmp_path, capsys)
        plan = Plan.from_text(plan_path.read_text())
        assert plan.target_hex == target
        assert plan.keyspace_size == 2000
        assert plan.r == 30.0
        assert plan.nv_target == pytest.approx(30 * 16 ** 8 / 2000)
        # chosen cardinality within the default 5% tolerance
        assert abs(plan.cardinality / plan.nv_target - 1) < 0.0513
        assert plan.seed == 7

    def test_duplicate_target_refused(self, tmp_path, capsys):
        plan_path, corpus, target = make_plan(tmp_path, capsys)
        code = client_main([
            "plan", "--algo", "crc32", "--target", target,
            "--keyspace", "wordlist:corpus", "--corpus-file", str(corpus),
            "--r", "10", "--plan-store", str(tmp_path / "plans"),
        ])
        assert code == EXIT_PLAN_EXISTS

    def test_bad_target_is_parse_error(self, tmp_path):
        assert client_main([
            "plan", "--algo", "crc32", "--target", "zz",
            "--keyspace", "mask:?d", "--r", "1",
            "--plan-store", str(tmp_path / "p"),
        ]) == EXIT_PARSE

    def test_impossible_tolerance_reports_widen_error(self, tmp_path, capsys):
        target = hashers.digest("crc32", b"x").hex
        code = client_main([
            "plan", "--algo", "crc32", "--target", target,
            "--keyspace", "mask:?d?d?d", "--r", "7",
            "--tolerance", "1e-9", "--plan-store", str(tmp_path / "p"),
        ])
        assert code == EXIT_NO_SMOOTH
        assert "widen" in capsys.readouterr().err

    def test_seed_reproducibility(self, tmp_path, capsys):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        a, _, _ = make_plan(tmp_path / "a", capsys)
        b, _, _ = make_plan(tmp_path / "b", capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_genv_explicit_nv(self, tmp_path, capsys):
        target = hashers.digest("ntlm", b"secret").hex
        code = client_main([
            "genv", "--algo", "ntlm", "--target", target,
            "--nv", str(16.0 ** 26), "--seed", "3",
            "--plan-store", str(tmp_path / "p"),
        ])
        assert code == EXIT_OK
        text = (tmp_path / "p" / f"{target}.plan").read_text()
        assert Plan.from_text(text).cardinality == 16 ** 26
        assert text == (
            "# threepc plan\n"
            "target = 878d8014606cda29677a44efa1353fc7\n"
            "algo = ntlm\n"
            "keyspace = none\n"
            "keyspace_size = 0\n"
            "r = 0.0\n"
            "nv_target = 2.028240960365167e+31\n"
            "tolerance = 0.05\n"
            "seed = 3\n"
            "vector = 0f0f0f0f880f0f0f0f0f0f0f0f0f220f0f770f0f0f440fff0f110f"
            "0f0f0f0f0f\n"
            "cardinality = 20282409603651670423947251286016\n"
            "expected_candidates = 0.0\n"
            "deniability = 5.960464477539063e-08\n"
        )


def _outside(plan):
    """The plan with a target that its own vector excludes."""
    bounds = parse_vector(plan.vector_hex).bounds
    i = next(i for i, (lo, hi) in enumerate(bounds) if hi - lo < 15)
    lo, hi = bounds[i]
    nibble = "%x" % (hi + 1 if hi < 15 else lo - 1)
    return replace(plan, target_hex=plan.target_hex[:i] + nibble
                   + plan.target_hex[i + 1:])


class TestPlanValidation:
    @pytest.mark.parametrize("doctor, reason", [
        (lambda p: replace(p, vector_hex=p.vector_hex[:-2],
                           cardinality=cardinality(
                               parse_vector(p.vector_hex[:-2]))),
         "vector covers 7 nibbles, crc32 digests have 8"),
        (_outside, "target is outside its own vector"),
        (lambda p: replace(p, cardinality=p.cardinality + 1),
         "cardinality"),
        (lambda p: replace(p, expected_candidates=p.expected_candidates * 2),
         "its vector and keyspace size give"),
    ], ids=["vector-length", "target-outside-vector", "cardinality",
            "expected-candidates"])
    def test_inconsistent_plan_is_refused(self, tmp_path, capsys, doctor,
                                          reason):
        plan_path, corpus, _ = make_plan(tmp_path, capsys)
        plan_path.write_text(
            doctor(Plan.from_text(plan_path.read_text())).to_text())
        with pytest.raises(ValueError, match=reason):
            Plan.from_text(plan_path.read_text())
        out = tmp_path / "out.pot"
        for argv in (["run", "--plan", str(plan_path), "--out", str(out),
                      "--offline", "--corpus-file", str(corpus)],
                     ["verify", "--plan", str(plan_path),
                      "--potfile", str(out)]):
            assert client_main(argv) == EXIT_PARSE
            err = capsys.readouterr().err
            assert err.startswith("error: ") and reason in err
            assert err.count("\n") == 1
        assert not out.exists()


class TestRunOffline:
    def test_offline_run_writes_potfile_and_report(self, tmp_path, capsys):
        plan_path, corpus, target = make_plan(tmp_path, capsys)
        out = tmp_path / "out.pot"
        code = client_main([
            "run", "--plan", str(plan_path), "--out", str(out), "--offline",
            "--corpus-file", str(corpus), "--workers", "2",
        ])
        assert code == EXIT_OK
        report = (tmp_path / "out.pot.report").read_text()
        assert "hashed_count = 2000" in report
        assert "partial = false" in report
        records = list(iter_potfile(out, 8))
        assert any(pw == b"w0042" for _, _, pw in records)

    def test_offline_runs_are_byte_reproducible(self, tmp_path, capsys):
        (tmp_path / "ntlm").mkdir()
        # words whose lengths go up and down, accented, and not UTF-8
        # (skipped)
        rng = random.Random(3)
        words = [b"w" * rng.randint(1, 6) + b"%d" % i for i in range(80)] + [
            "café".encode(), "naïve".encode(), b"\xe9t\xe9", b"lat\xefn"]
        plans = [make_plan(tmp_path, capsys)[:2], make_plan(
            tmp_path / "ntlm", capsys, algo="ntlm", r=400.0, words=words,
            descriptor="hybrid:corpus:?w?d?d")[:2]]
        for plan_path, corpus in plans:
            outs = []
            for workers in (1, 2, 3):
                out = tmp_path / f"r{workers}.pot"
                assert client_main([
                    "run", "--plan", str(plan_path), "--out", str(out),
                    "--offline", "--corpus-file", str(corpus),
                    "--workers", str(workers),
                ]) == EXIT_OK
                outs.append(out.read_bytes())
            assert outs[0] and outs[0] == outs[1] == outs[2]
        report = (tmp_path / "r3.pot.report").read_text()
        assert "skipped_count = 200" in report

    def test_aborted_run_keeps_partial_potfile(self, tmp_path, capsys,
                                               monkeypatch):
        plan_path, corpus, _ = make_plan(tmp_path, capsys, r=400.0)
        write_hits = potfile.PotfileWriter.write_hits
        # 2,000 candidates in 8 ranges, so the run has a batch to abort
        monkeypatch.setattr(keyspace, "_BLOCK_CAP", 256)

        def fail_after_first_batch(writer, hits):
            if writer.pairs_written:
                raise OSError("disk full")
            write_hits(writer, hits)

        monkeypatch.setattr(potfile.PotfileWriter, "write_hits",
                            fail_after_first_batch)
        out = tmp_path / "out.pot"
        assert client_main([
            "run", "--plan", str(plan_path), "--out", str(out), "--offline",
            "--corpus-file", str(corpus), "--workers", "1",
        ]) == EXIT_FAILURE
        assert "partial = true" in (tmp_path / "out.pot.report").read_text()
        assert list(iter_potfile(out, 8))

    def test_empty_keyspace_gives_empty_potfile(self, tmp_path, capsys):
        plan_path, corpus, _ = make_plan(tmp_path, capsys)
        corpus.write_bytes(b"")
        out = tmp_path / "empty.pot"
        code = client_main([
            "run", "--plan", str(plan_path), "--out", str(out), "--offline",
            "--corpus-file", str(corpus),
        ])
        assert code == EXIT_OK
        assert out.read_bytes() == b""
        assert "hit_count = 0" in (tmp_path / "empty.pot.report").read_text()

    def test_missing_transport_flags(self, tmp_path, capsys):
        plan_path, _, _ = make_plan(tmp_path, capsys)
        assert client_main([
            "run", "--plan", str(plan_path), "--out", str(tmp_path / "x"),
        ]) == EXIT_PARSE

    @pytest.mark.parametrize("transport", [["--offline"],
                                           ["--server", "127.0.0.1:1"]])
    def test_unwritable_out_is_parse_error(self, tmp_path, capsys,
                                           transport):
        plan_path, corpus, _ = make_plan(tmp_path, capsys)
        code = client_main([
            "run", "--plan", str(plan_path), "--corpus-file", str(corpus),
            "--out", str(tmp_path / "missing-dir" / "x.pot"), *transport,
        ])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write the potfile")
        assert err.count("\n") == 1

    def test_unreadable_corpus_file_is_parse_error(self, tmp_path, capsys):
        plan_path, _, _ = make_plan(tmp_path, capsys)
        for transport in (["--offline"], ["--server", "127.0.0.1:1"]):
            code = client_main([
                "run", "--plan", str(plan_path), "--out",
                str(tmp_path / "x.pot"), *transport,
                "--corpus-file", str(tmp_path / "no-such-corpus"),
            ])
            assert code == EXIT_PARSE
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_zero_workers_is_parse_error(self, tmp_path, capsys):
        plan_path, corpus, _ = make_plan(tmp_path, capsys)
        out = tmp_path / "x.pot"
        assert client_main([
            "run", "--plan", str(plan_path), "--out", str(out), "--offline",
            "--corpus-file", str(corpus), "--workers", "0",
        ]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err == "error: --workers must be at least 1, got 0\n"
        assert not out.exists()

    def test_connection_refused(self, tmp_path, capsys):
        plan_path, _, _ = make_plan(tmp_path, capsys)
        assert client_main([
            "run", "--plan", str(plan_path), "--out", str(tmp_path / "x.pot"),
            "--server", "127.0.0.1:1",
        ]) == EXIT_CONNECTION


class TestVerifyCommand:
    def _run_offline(self, tmp_path, capsys, **kwargs):
        plan_path, corpus, target = make_plan(tmp_path, capsys, **kwargs)
        out = tmp_path / "out.pot"
        assert client_main([
            "run", "--plan", str(plan_path), "--out", str(out), "--offline",
            "--corpus-file", str(corpus),
        ]) == EXIT_OK
        return plan_path, out

    def test_cracked_honest_run_exits_zero(self, tmp_path, capsys):
        plan_path, out = self._run_offline(tmp_path, capsys)
        code = client_main(["verify", "--plan", str(plan_path),
                            "--potfile", str(out)])
        stdout = capsys.readouterr().out
        assert code == EXIT_OK
        assert "cracked = yes" in stdout
        assert "cleartext = w0042" in stdout
        assert re.search(r"z_score = -?\d+\.\d{4}", stdout)

    def test_uncracked_honest_run_exits_three(self, tmp_path, capsys):
        plan_path, out = self._run_offline(tmp_path, capsys,
                                           target_pw=b"not-in-corpus")
        assert client_main(["verify", "--plan", str(plan_path),
                            "--potfile", str(out)]) == EXIT_NOT_CRACKED

    def test_truncated_potfile_exits_four(self, tmp_path, capsys):
        plan_path, out = self._run_offline(tmp_path, capsys, r=400.0,
                                           corpus_words=60_000)
        records = out.read_bytes().splitlines(keepends=True)
        out.write_bytes(b"".join(records[:len(records) // 2]))
        assert client_main(["verify", "--plan", str(plan_path),
                            "--potfile", str(out)]) == EXIT_FOUL_PLAY

    def test_fabricated_pairs_exit_four(self, tmp_path, capsys):
        plan_path, out = self._run_offline(tmp_path, capsys, r=200.0,
                                           corpus_words=30_000)
        records = list(iter_potfile(out, 8))
        forged = records[0][1].encode() + b":forged-password\n"
        out.write_bytes(out.read_bytes() + forged)
        assert client_main(["verify", "--plan", str(plan_path),
                            "--potfile", str(out),
                            "--spot-sample", "1000"]) == EXIT_FOUL_PLAY

    def test_garbage_potfile_exits_two(self, tmp_path, capsys):
        plan_path, out = self._run_offline(tmp_path, capsys)
        out.write_bytes(b"not a potfile\n")
        assert client_main(["verify", "--plan", str(plan_path),
                            "--potfile", str(out)]) == EXIT_PARSE


def _plan_argv(tmp_path, *flags):
    target = hashers.digest("crc32", b"x").hex
    return ["plan", "--algo", "crc32", "--target", target,
            "--plan-store", str(tmp_path / "p"), *flags]


def _verify_argv(tmp_path, capsys, *flags):
    """verify of an honest offline run, with the given flags."""
    plan_path, corpus, _ = make_plan(tmp_path, capsys)
    pot = tmp_path / "honest.pot"
    assert client_main(["run", "--plan", str(plan_path), "--out", str(pot),
                        "--offline", "--corpus-file", str(corpus)]) == EXIT_OK
    capsys.readouterr()
    return ["verify", "--plan", str(plan_path), "--potfile", str(pot), *flags]


def _empty_corpus(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_bytes(b"")
    return str(path)


class TestFailureMapping:
    @pytest.mark.parametrize("argv_for", [
        lambda t, _: _plan_argv(t, "--keyspace", "mask:?d?d", "--r", "0"),
        lambda t, _: _plan_argv(t, "--keyspace", "mask:?d?d", "--r", "1",
                                "--tolerance", "0"),
        lambda t, _: _plan_argv(t, "--keyspace", "mask:" + "?a" * 6,
                                "--r", "1e-7"),
        lambda t, _: ["genv", "--algo", "crc32", "--target", "00000000",
                      "--nv", "0.5", "--plan-store", str(t / "p")],
        lambda t, _: _plan_argv(t, "--keyspace", "wordlist:x", "--r", "1",
                                "--corpus-file", _empty_corpus(t)),
        lambda t, capsys: [
            "run", "--plan", str(make_plan(t, capsys)[0]),
            "--out", str(t / "x.pot"), "--server", "127.0.0.1:1",
            "--corpus-file", str(t / "corpus.txt")],
        lambda t, _: _plan_argv(t, "--keyspace", "mask:?d?d", "--r", "inf"),
        lambda t, _: ["genv", "--algo", "crc32", "--target", "00000000",
                      "--nv", "inf", "--plan-store", str(t / "p")],
        lambda t, _: _plan_argv(t, "--keyspace", "mask:?d?d", "--r", "1",
                                "--tolerance", "nan"),
        lambda t, capsys: _verify_argv(t, capsys, "--z-threshold", "nan"),
        lambda t, capsys: _verify_argv(t, capsys, "--z-threshold", "-1"),
        lambda t, capsys: _verify_argv(t, capsys, "--expected-r", "nan"),
        lambda t, capsys: _verify_argv(t, capsys, "--expected-r", "inf"),
        lambda t, capsys: _verify_argv(t, capsys, "--expected-r", "-3"),
        # 111175 mod 65536 is a real port: the client must not wrap it
        lambda t, capsys: [
            "run", "--plan", str(make_plan(t, capsys)[0]),
            "--out", str(t / "x.pot"), "--server", "127.0.0.1:111175"],
    ], ids=["r-zero", "tolerance-zero", "nv-below-one", "genv-nv-below-one",
            "empty-corpus-file", "inline-corpus-over-cap", "r-inf", "nv-inf",
            "tolerance-nan", "z-threshold-nan", "z-threshold-negative",
            "expected-r-nan", "expected-r-inf", "expected-r-negative",
            "server-port-over-65535"])
    def test_mapped_failure_exits_two(self, tmp_path, capsys, monkeypatch,
                                      argv_for):
        argv = argv_for(tmp_path, capsys)
        monkeypatch.setattr(protocol, "INLINE_CORPUS_CAP", 8)  # < corpus.txt
        assert client_main(argv) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "x.pot").exists()

    @pytest.mark.parametrize("flags", [
        ["--server", "127.0.0.1:1", "--workers", "2"],
        ["--server", "127.0.0.1:1", "--corpus-dir", "corpora"],
        ["--offline", "--timeout", "5"],
        ["--offline", "--server", "127.0.0.1:1"],
    ], ids=["server-workers", "server-corpus-dir", "offline-timeout",
            "both-transports"])
    def test_flag_the_transport_does_not_read_is_refused(
            self, tmp_path, capsys, monkeypatch, flags):
        plan_path, corpus, _ = make_plan(tmp_path, capsys)

        def refuse_to_connect(*args, **kwargs):
            raise AssertionError("the client must not connect")

        monkeypatch.setattr(protocol.socket, "create_connection",
                            refuse_to_connect)
        out = tmp_path / "x.pot"
        try:
            code = client_main(["run", "--plan", str(plan_path),
                                "--out", str(out), "--corpus-file",
                                str(corpus), *flags])
        except SystemExit as exc:  # argparse refuses the exclusive pair
            code = exc.code
        assert code == EXIT_PARSE
        assert "error: " in capsys.readouterr().err
        assert not out.exists()


def test_exit_codes_agree_with_the_docs():
    table = {code for _, code in cli._EXIT_CODES}
    table |= {EXIT_OK, EXIT_NOT_CRACKED, EXIT_FOUL_PLAY}  # verify's verdicts
    docstring = {int(c) for c in re.findall(r"^    (\d+)  ", cli.__doc__,
                                            re.M)}
    readme = (Path(__file__).resolve().parent.parent
              / "README.md").read_text()
    section = readme.split("### Exit codes\n", 1)[1].split("\n#", 1)[0]
    rows = {int(c) for c in re.findall(r"^\| (\d+) \|", section, re.M)}
    assert table == docstring == rows


def test_server_bind_failure_exits_one(tmp_path):
    import socket

    from threepc.cli import server_main

    with socket.socket() as holder:
        holder.bind(("127.0.0.1", 0))
        holder.listen(1)
        taken = holder.getsockname()[1]
        assert server_main(["--listen", f"127.0.0.1:{taken}"]) == EXIT_FAILURE


@pytest.mark.parametrize("flag,value,least", [
    ("--workers", "0", 1),
    ("--rate-budget", "10", 100_000),
    ("--max-frame-mib", "0", 1),
])
def test_server_flag_below_minimum_exits_two(capsys, monkeypatch, flag, value,
                                            least):
    from threepc import protocol
    from threepc.cli import server_main

    def refuse_to_bind(*args, **kwargs):
        raise AssertionError("the server must not bind")

    monkeypatch.setattr(protocol, "CrackServer", refuse_to_bind)
    assert server_main(["--listen", "127.0.0.1:0", flag, value]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err == f"error: {flag} must be at least {least}, got {value}\n"


def test_server_port_over_65535_exits_two(capsys, monkeypatch):
    from threepc import protocol
    from threepc.cli import server_main

    def refuse_to_bind(*args, **kwargs):
        raise AssertionError("the server must not bind")

    monkeypatch.setattr(protocol, "CrackServer", refuse_to_bind)
    assert server_main(["--listen", "127.0.0.1:99999"]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err == ("error: endpoint port must be at most 65535, got "
                   "'127.0.0.1:99999'\n")


@pytest.mark.usefixtures("tmp_path")
class TestServerProcess:
    def _spawn_server(self, tmp_path, corpus_dir):
        proc = subprocess.Popen(
            [sys.executable, "-m", "threepc.cli", "server",
             "--listen", "127.0.0.1:0", "--corpus-dir", str(corpus_dir)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        line = proc.stdout.readline()
        m = re.search(r"listening on ([\d.]+):(\d+)", line)
        assert m, line
        return proc, (m.group(1), int(m.group(2)))

    def test_networked_run_matches_offline(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        words = b"\n".join(b"w%04d" % i for i in range(2000))
        (corpus_dir / "corpus").write_bytes(words)
        corpus_file = tmp_path / "corpus.txt"
        corpus_file.write_bytes(words)

        plan_path, _, _ = make_plan(tmp_path, capsys)
        proc, (host, port) = self._spawn_server(tmp_path, corpus_dir)
        try:
            net_out = tmp_path / "net.pot"
            assert client_main([
                "run", "--plan", str(plan_path), "--out", str(net_out),
                "--server", f"{host}:{port}",
            ]) == EXIT_OK
            off_out = tmp_path / "off.pot"
            assert client_main([
                "run", "--plan", str(plan_path), "--out", str(off_out),
                "--offline", "--corpus-file", str(corpus_file),
            ]) == EXIT_OK
            assert net_out.read_bytes() == off_out.read_bytes()
            assert list(iter_potfile(net_out, 8))
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stdout.close()

    def test_uploaded_corpus_count_matches_the_plan(self, tmp_path, capsys,
                                                   local_server):
        # the client plans and the server cracks from one ingest of the
        # same file: duplicates, blank lines, CRLF endings and overlong
        # lines drop out on both sides, so the server's hashed count is
        # the plan's |DS| and the run is not refused
        words = ([b"w%04d" % i for i in range(300)] * 2
                 + [b"", b"x\r", b"x", b"y" * 300, b"z\r"])
        plan_path, corpus, _ = make_plan(tmp_path, capsys, words=words)
        plan = Plan.from_text(plan_path.read_text())
        assert plan.keyspace_size == 302
        host, port = local_server.address
        out = tmp_path / "net.pot"
        assert client_main([
            "run", "--plan", str(plan_path), "--out", str(out),
            "--server", f"{host}:{port}", "--corpus-file", str(corpus),
        ]) == EXIT_OK
        report = (tmp_path / "net.pot.report").read_text()
        assert "hashed_count = 302\n" in report

    def test_networked_report_counts_skipped_candidates(self, tmp_path,
                                                        capsys, local_server):
        # ntlm skips the words that are not UTF-8, on the server as offline
        words = [b"w%d" % i for i in range(60)] + [
            "café".encode(), b"\xe9t\xe9", b"lat\xefn", b"\xff"]
        plan_path, corpus, _ = make_plan(
            tmp_path, capsys, algo="ntlm", r=40.0, words=words,
            descriptor="hybrid:corpus:?w?d")
        host, port = local_server.address
        reports, pots = [], []
        for name, transport in (("net", ["--server", f"{host}:{port}"]),
                                ("off", ["--offline"])):
            out = tmp_path / f"{name}.pot"
            assert client_main([
                "run", "--plan", str(plan_path), "--out", str(out),
                "--corpus-file", str(corpus), *transport,
            ]) == EXIT_OK
            reports.append((tmp_path / f"{name}.pot.report").read_text())
            pots.append(out.read_bytes())
        for report in reports:
            assert "hashed_count = 640\n" in report
            assert "skipped_count = 30\n" in report
        assert pots[0] and pots[0] == pots[1]

    def test_sigterm_mid_job_leaves_partial_potfile(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        # 10^8 candidates keep the server busy for seconds (it hashes
        # 10^7 crc32 PINs in about one)
        plan_path, _, target = make_plan(
            tmp_path, capsys, target_pw=b"01234567",
            descriptor="mask:?d?d?d?d?d?d?d?d")
        proc, (host, port) = self._spawn_server(tmp_path, corpus_dir)
        out = tmp_path / "partial.pot"
        try:
            import threading

            def kill_soon():
                time.sleep(1.0)
                proc.send_signal(signal.SIGTERM)

            killer = threading.Thread(target=kill_soon)
            killer.start()
            code = client_main([
                "run", "--plan", str(plan_path), "--out", str(out),
                "--server", f"{host}:{port}",
            ])
            killer.join()
            assert code == EXIT_CONNECTION
            report = (tmp_path / "partial.pot.report").read_text()
            assert "partial = true" in report
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stdout.close()


def test_demo_workflow_runs(tmp_path):
    # the README's demo, from the repository root as documented
    proc = subprocess.run(
        [sys.executable, "scripts/demo_workflow.py"],
        cwd=Path(__file__).resolve().parent.parent,
        env={**os.environ, "TMPDIR": str(tmp_path)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "cracked = yes" in proc.stdout
