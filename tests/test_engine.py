import itertools
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threepc import engine, hashers, keyspace
from threepc.engine import (
    EngineAbortError,
    ListSink,
    compile_checker,
    compile_filter,
    crack,
    crack_parallel,
)
from threepc.planner import SlotPacking, gen_v
from threepc.potfile import Hits
from threepc.predicate import (
    Digest,
    PredicateVector,
    eval_predicate,
    parse_vector,
    singleton_vector,
    zk_vector,
)

import fixtures


def oracle_pairs(v, spec, algo_id):
    """Reference path: hash everything one candidate at a time with the
    oracle's hashes, filter with the pure predicate; returns (pairs in
    enumeration order, skipped)."""
    pairs, skipped = [], 0
    for pw in keyspace.enumerate_candidates(spec):
        raw = fixtures.oracle_digest(algo_id, pw)
        if raw is None:
            skipped += 1
        elif eval_predicate(v, Digest.from_bytes(raw)):
            pairs.append((pw, raw))
    return pairs, skipped


def run_in_thread(fn, timeout):
    """fn() in a daemon thread; its result, or a failure if it does not
    finish within timeout seconds."""
    out = {}

    def body():
        try:
            out["result"] = fn()
        except BaseException as exc:  # reported to the test below
            out["error"] = exc

    t = threading.Thread(target=body, daemon=True)
    t.start()
    t.join(timeout)
    assert not t.is_alive(), f"no result within {timeout} s"
    if "error" in out:
        raise out["error"]
    return out["result"]


def raise_system_exit(signum, frame):
    raise SystemExit(0)


def blocked_signals():
    return signal.pthread_sigmask(signal.SIG_BLOCK, [])


def random_vector(rng, length):
    bounds = []
    for _ in range(length):
        a, b = rng.randint(0, 15), rng.randint(0, 15)
        bounds.append((min(a, b), max(a, b)))
    return PredicateVector(tuple(bounds))


class TestCompileChecker:
    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)),
                    min_size=8, max_size=8),
           st.lists(st.integers(0, 255), min_size=4, max_size=4))
    def test_equivalent_to_eval_predicate(self, bounds, raw):
        v = PredicateVector(tuple(bounds))
        check = compile_checker(v)
        digest = bytes(raw)
        assert check(digest) == eval_predicate(v, Digest.from_bytes(digest))

    def test_zk_vector_accepts_everything(self):
        check = compile_checker(zk_vector(8))
        assert check(b"\x00\x00\x00\x00")
        assert check(b"\xff\xff\xff\xff")

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            compile_checker(PredicateVector(((0, 15),) * 3))


def digest_matrix(rows, width):
    return np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(-1, width)


def checker_rows(v, m):
    """The rows compile_checker accepts, one digest at a time."""
    check = compile_checker(v)
    return [i for i, row in enumerate(m) if check(row.tobytes())]


@st.composite
def box_and_rows(draw):
    """A non-empty box over 1, 4 or 16 digest bytes, and up to 80 random
    rows with a member of the box planted at every third row."""
    width = draw(st.sampled_from([1, 4, 16]))
    bounds = draw(st.lists(
        st.one_of(st.just((0, 15)),
                  st.tuples(st.integers(0, 15), st.integers(0, 15)).map(
                      lambda p: (min(p), max(p)))),
        min_size=2 * width, max_size=2 * width))
    member = [draw(st.integers(lo, hi)) for lo, hi in bounds]
    member = bytes(h << 4 | lo for h, lo in zip(member[::2], member[1::2]))
    rows = draw(st.lists(st.binary(min_size=width, max_size=width),
                         max_size=80))
    rows = [member if i % 3 == 0 else r for i, r in enumerate(rows)]
    return PredicateVector(tuple(bounds)), digest_matrix(rows, width)


class TestCompileFilter:
    @given(box_and_rows())
    def test_matches_checker_row_by_row(self, case):
        v, m = case
        kept = compile_filter(v)(m).tolist()
        assert kept == checker_rows(v, m)
        assert set(range(0, len(m), 3)) <= set(kept)

    @pytest.mark.parametrize("n_rows", [0, 1, 500])
    @pytest.mark.parametrize("case", ["zk", "singleton", "empty-box"])
    def test_edge_vectors(self, case, n_rows):
        rng = random.Random(n_rows)
        target = b"\x12\x34\x56\x78"
        rows = [target if i % 7 == 0 else rng.randbytes(4)
                for i in range(n_rows)]
        v, expected = {
            "zk": (zk_vector(8), list(range(n_rows))),
            "singleton": (singleton_vector(Digest.from_bytes(target)),
                          [i for i, r in enumerate(rows) if r == target]),
            "empty-box": (PredicateVector(((0, 15),) * 5 + ((9, 3),)
                                          + ((0, 15),) * 2), []),
        }[case]
        m = digest_matrix(rows, 4)
        kept = compile_filter(v)(m)
        assert kept.tolist() == expected == checker_rows(v, m)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            compile_filter(PredicateVector(((0, 15),) * 3))


# one range per algorithm, the ntlm one with skipped rows; prints the
# modules the scans imported
SCAN_IMPORTS_JOB = """
import sys
from threepc import engine, keyspace
from threepc.predicate import zk_vector
words = (b"plain", "caf\\u00e9".encode(), b"lat\\xefn")
spec = keyspace.make_keyspace("hybrid:w:?w?d", words=words)
before = set(sys.modules)
for algo, nibbles in (("crc32", 8), ("sha256", 64), ("ntlm", 32)):
    keep = engine.compile_filter(zk_vector(nibbles))
    _, skipped, hits = engine._scan_range(keep, spec, algo, 0, 30)
    assert len(hits) == 30 - skipped
    assert skipped == (10 if algo == "ntlm" else 0)
print(sorted(set(sys.modules) - before))
"""


class TestScanRange:
    def test_one_batch_is_the_range(self, monkeypatch):
        def probe(parts):
            calls.append(fixtures.expand_parts(parts))
            return np.zeros((len(calls[-1]), 4), dtype=np.uint8), None

        rng = random.Random(7)
        words = tuple(b"w%d" % i for i in range(40))
        descriptors = ("mask:?d?d?d", "mask:a?l?d", "wordlist:w",
                       "hybrid:w:?w?d")
        full = {d: list(keyspace.enumerate_candidates(
            keyspace.make_keyspace(d, words=words))) for d in descriptors}
        calls = []
        monkeypatch.setattr(hashers, "block_fn", lambda algo_id: probe)
        for _ in range(60):
            cap = rng.choice((1, 3, 16, 45, 100, 5000))
            monkeypatch.setattr(keyspace, "_BLOCK_CAP", cap)
            # built after the patch: a spec's layout follows the cap at
            # its first use
            desc = rng.choice(descriptors)
            spec = keyspace.make_keyspace(desc, words=words)
            total = keyspace.spec_cardinality(spec)
            start = rng.randrange(total)
            stop = rng.randrange(start, total + 1)
            calls.clear()
            result = engine._scan_range(compile_filter(zk_vector(8)), spec,
                                        "crc32", start, stop)
            assert calls == [list(keyspace.enumerate_range(spec, start, stop))]
            assert calls[0] == full[desc][start:stop]
            assert result == (stop - start, 0, Hits.from_pairs(
                [(pw, bytes(4)) for pw in calls[0]]))
            assert result[2].width == 4
            assert result[2].pairs() == [(pw, bytes(4)) for pw in calls[0]]

    @pytest.mark.parametrize("algo_id", ["crc32", "sha256", "ntlm"])
    def test_ranges_match_oracle(self, monkeypatch, algo_id):
        # accented, latin-1, 4-byte UTF-8, surrogate-encoded and two-MD4-
        # block words; a literal non-ASCII character in prefix and suffix;
        # ranges that start and stop inside blocks of several sizes
        words = ("café".encode(), b"lat\xefn", "\U0001f511key".encode(),
                 b"\xed\xa0\x80sur", b"y" * 30, b"plain")
        nibbles = hashers.descriptor(algo_id).digest_nibbles
        v = PredicateVector(((0, 7), (2, 9)) + ((0, 15),) * (nibbles - 2))
        rng = random.Random(17)
        for desc in ("hybrid:w:?w?d?s", "hybrid:w:é?d?w", "mask:?dé?l",
                     "wordlist:w"):
            spec = keyspace.make_keyspace(desc, words=words)
            digests = [fixtures.oracle_digest(algo_id, pw)
                       for pw in keyspace.enumerate_candidates(spec)]
            for cap in (7, 64, keyspace._BLOCK_CAP):
                monkeypatch.setattr(keyspace, "_BLOCK_CAP", cap)
                # built after the patch, so its layout follows the cap
                spec = keyspace.make_keyspace(desc, words=words)
                total = keyspace.spec_cardinality(spec)
                for _ in range(6):
                    start = rng.randrange(total)
                    stop = rng.randrange(start, total + 1)
                    cands = keyspace.enumerate_range(spec, start, stop)
                    pairs = [(pw, d) for pw, d in zip(cands,
                                                      digests[start:stop])
                             if d is not None
                             and eval_predicate(v, Digest.from_bytes(d))]
                    skipped = digests[start:stop].count(None)
                    hashed, got_skipped, hits = engine._scan_range(
                        compile_filter(v), spec, algo_id, start, stop)
                    assert (hashed, got_skipped, hits.pairs()) == (
                        stop - start, skipped, pairs)

    def test_scan_imports_no_module(self):
        # a module imported lazily on a scan's first call would be imported
        # again in every forked worker, on every job
        src = os.path.dirname(os.path.dirname(engine.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", SCAN_IMPORTS_JOB],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


def forbidden(*args):
    raise AssertionError("a job with a digest table called this")


class TestDigestTable:
    @pytest.mark.parametrize("algo_id", ["crc32", "sha256", "ntlm"])
    def test_slices_are_the_kernels_output(self, monkeypatch, algo_id):
        # a cap of 7 cuts the build into 9 ranges, each of which skips
        # rows under ntlm
        monkeypatch.setattr(keyspace, "_BLOCK_CAP", 7)
        words = fixtures.mixed_words(60)
        spec = keyspace.make_keyspace("wordlist:w", words=words)
        table = engine.DigestTable.build(spec, algo_id)
        digests = [fixtures.oracle_digest(algo_id, pw) for pw in words]
        hashed = [i for i, d in enumerate(digests) if d is not None]
        width = hashers.descriptor(algo_id).digest_nibbles // 2
        assert table.digests.shape == (len(hashed), width)
        assert table.digests.tobytes() == b"".join(filter(None, digests))
        if algo_id == "ntlm":
            assert table.hashed.tolist() == hashed
        else:
            assert table.hashed is None
        # every candidate, hashed or not, as one blob and n + 1 offsets
        assert table.passwords.tobytes() == b"".join(words)
        assert table.ends.tolist() == [0, *itertools.accumulate(
            map(len, words))]
        assert table.nbytes == (len(hashed) * width + 8 * (len(words) + 1)
                                + sum(map(len, words))
                                + (8 * len(hashed) if algo_id == "ntlm"
                                   else 0))
        kernel = hashers.block_fn(algo_id)
        rng = random.Random(5)
        for _ in range(40):
            start = rng.randrange(len(words) + 1)
            stop = rng.randrange(start, len(words) + 1)
            m, rows = table.rows(start, stop)
            want_m, want_rows = kernel(
                list(keyspace.iter_blocks(spec, start, stop)))
            every = list(range(stop - start))
            assert m.tobytes() == want_m.tobytes()
            assert (every if rows is None else rows.tolist()) == (
                every if want_rows is None else want_rows.tolist())

    @pytest.mark.parametrize("algo_id", ["crc32", "sha256", "ntlm"])
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_job_reads_the_table_in_its_own_thread(self, monkeypatch,
                                                   algo_id, n_workers):
        monkeypatch.setattr(keyspace, "_BLOCK_CAP", 7)
        spec = keyspace.make_keyspace("wordlist:w",
                                      words=fixtures.mixed_words(60))
        nibbles = hashers.descriptor(algo_id).digest_nibbles
        v = PredicateVector(((0, 7), (2, 9)) + ((0, 15),) * (nibbles - 2))
        pairs, skipped = oracle_pairs(v, spec, algo_id)
        table = engine.DigestTable.build(spec, algo_id)
        # the job hashes nothing, forks no worker and builds no password
        # in Python
        monkeypatch.setattr(hashers, "block_fn", forbidden)
        monkeypatch.setattr(multiprocessing, "get_context", forbidden)
        monkeypatch.setattr(engine, "_passwords", forbidden)
        monkeypatch.setattr(Hits, "from_rows", forbidden)
        sink = ListSink()
        report = crack_parallel(v, spec, algo_id, sink, n_workers=n_workers,
                                table=table)
        assert sink.pairs == pairs
        assert (report.hashed_count, report.skipped_count,
                report.hit_count) == (60, skipped, len(pairs))

    @pytest.mark.parametrize("algo_id", ["crc32", "sha256", "ntlm"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_table_scan_is_the_kernel_scan(self, algo_id, data):
        # mixed_words' kinds, plus the bytes a potfile line must carry
        words = fixtures.mixed_words(48) + (b"co:lon", b"cr\rlf", b":",
                                            b"\r")
        nibbles = hashers.descriptor(algo_id).digest_nibbles
        pinned = data.draw(st.dictionaries(
            st.integers(0, nibbles - 1),
            st.lists(st.integers(0, 15), min_size=2, max_size=2).map(sorted),
            max_size=3))
        keep = compile_filter(PredicateVector(tuple(
            tuple(pinned.get(i, (0, 15))) for i in range(nibbles))))
        desc = data.draw(st.sampled_from(["wordlist:w", "hybrid:w:?d?w"]))
        with mock.patch.object(keyspace, "_BLOCK_CAP",
                               data.draw(st.integers(1, 64))):
            # built under the cap, as its layout follows the cap at first use
            spec = keyspace.make_keyspace(desc, words=words)
            table = engine.DigestTable.build(spec, algo_id)
            total = keyspace.spec_cardinality(spec)
            start = data.draw(st.integers(0, total))
            stop = data.draw(st.integers(start, total))
            assert engine._scan_range(keep, spec, algo_id, start, stop,
                                      table) == engine._scan_range(
                keep, spec, algo_id, start, stop)

    def test_empty_keyspace(self):
        spec = keyspace.make_keyspace("wordlist:w", words=())
        table = engine.DigestTable.build(spec, "sha256")
        assert table.digests.shape == (0, 32) and table.hashed is None
        report = crack_parallel(zk_vector(64), spec, "sha256", ListSink(),
                                table=table)
        assert report.hashed_count == report.hit_count == 0


class TestRanges:
    @given(st.integers(0, 50_000), st.integers(1, 8),
           st.integers(1, 5_000))
    def test_cut(self, total, n_workers, cap):
        with mock.patch.object(keyspace, "_BLOCK_CAP", cap):
            ranges = list(engine._ranges(total, n_workers))
        # cover [0, total) in order, with no overlap
        bounds = [0] + [b for _, b in ranges]
        assert ranges == list(zip(bounds, bounds[1:]))
        assert bounds[-1] == total
        sizes = [b - a for a, b in ranges]
        assert all(0 < size <= cap for size in sizes)
        assert not sizes or max(sizes) - min(sizes) <= 1
        assert len(ranges) >= min(n_workers, total)

    def test_huge_keyspace_is_cut_lazily(self):
        spec = keyspace.make_keyspace("mask:" + "?a" * 8)
        total = keyspace.spec_cardinality(spec)
        ranges = engine._ranges(total, 2)
        assert iter(ranges) is ranges
        start, stop = next(ranges)
        assert start == 0 and 0 < stop <= keyspace._BLOCK_CAP

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_one_kernel_call_per_range(self, monkeypatch, n_workers):
        def probe(parts):
            # one row, for the first candidate: the range's size
            size = len(fixtures.expand_parts(parts))
            row = np.frombuffer(size.to_bytes(4, "big"), np.uint8)
            return row.reshape(1, 4), np.array([0])

        monkeypatch.setattr(keyspace, "_BLOCK_CAP", 700)
        monkeypatch.setattr(hashers, "block_fn", lambda algo_id: probe)
        spec = keyspace.make_keyspace("mask:?d?d?d?d")
        sink = ListSink()
        report = crack_parallel(zk_vector(8), spec, "crc32", sink,
                                n_workers=n_workers)
        sizes = [int.from_bytes(d, "big") for _, d in sink.pairs]
        assert len(sizes) == report.hit_count == 15  # ceil(10^4 / 700)
        assert sum(sizes) == report.hashed_count == 10 ** 4
        assert max(sizes) <= 700
        # one call per range, each from its range's first candidate
        firsts = [pw for pw, _ in sink.pairs]
        assert firsts == [b"%04d" % a for a, _ in engine._ranges(10 ** 4, 1)]


class TestCrack:
    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(0xACE)
        for _ in range(40):
            spec = keyspace.make_keyspace(
                "mask:" + "?d" * rng.randint(2, 4))
            v = random_vector(rng, 8)
            sink = ListSink()
            report = crack(v, spec, "crc32", sink)
            expected, _ = oracle_pairs(v, spec, "crc32")
            assert sink.pairs == expected
            assert report.hit_count == len(expected)
            assert report.hashed_count == keyspace.spec_cardinality(spec)

    def test_singleton_vector_finds_member(self):
        spec = keyspace.make_keyspace("mask:?d?d?d")
        target = hashers.digest("crc32", b"042")
        sink = ListSink()
        report = crack(singleton_vector(target), spec, "crc32", sink)
        assert report.hit_count == 1
        assert sink.pairs[0][0] == b"042"

    def test_zk_vector_hits_everything(self):
        spec = keyspace.make_keyspace("mask:?d?d")
        sink = ListSink()
        report = crack(zk_vector(8), spec, "crc32", sink)
        assert report.hit_count == report.hashed_count == 100

    def test_empty_keyspace(self):
        spec = keyspace.make_keyspace("wordlist:w", words=())
        sink = ListSink()
        report = crack(zk_vector(8), spec, "crc32", sink)
        assert report.hashed_count == report.hit_count == 0

    def test_vector_length_must_match_algo(self):
        spec = keyspace.make_keyspace("mask:?d")
        with pytest.raises(ValueError):
            crack(zk_vector(10), spec, "crc32", ListSink())

    def test_ntlm_skips_invalid_utf8_candidates(self):
        words = (b"good", b"\xe9bad", b"ok\xc3\xa9")
        spec = keyspace.make_keyspace("wordlist:w", words=words)
        sink = ListSink()
        report = crack(zk_vector(32), spec, "ntlm", sink)
        assert report.hashed_count == 3
        assert report.skipped_count == 1
        assert report.hit_count == 2

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_sink_failure_aborts_with_partial_report(self, n_workers):
        spec = keyspace.make_keyspace("mask:?d?d?d?d")

        class FailingSink:
            def write_hits(self, hits):
                raise OSError("disk full")

        with pytest.raises(EngineAbortError) as err:
            run_in_thread(lambda: crack_parallel(
                zk_vector(8), spec, "crc32", FailingSink(), n_workers), 30)
        assert err.value.report.partial
        assert not multiprocessing.active_children()


class TestCrackParallel:
    def test_parallel_matches_serial_multiset(self):
        spec = keyspace.make_keyspace("mask:?d?d?d?d?d")
        rng = random.Random(5)
        v = gen_v(Digest.from_hex(fixtures.TOY1_TARGET_HEX),
                  SlotPacking((4, 5, 2, 3, 7, 1, 1, 7)), rng)
        serial, parallel = ListSink(), ListSink()
        rep1 = crack(v, spec, "crc32", serial)
        rep2 = crack_parallel(v, spec, "crc32", parallel, n_workers=2)
        assert serial.pairs == parallel.pairs
        assert rep1.hashed_count == rep2.hashed_count == 10 ** 5
        assert rep1.hit_count == rep2.hit_count

    def test_one_worker_is_serial(self):
        spec = keyspace.make_keyspace("mask:?d?d?d")
        a, b = ListSink(), ListSink()
        crack(zk_vector(8), spec, "crc32", a)
        crack_parallel(zk_vector(8), spec, "crc32", b, n_workers=1)
        assert a.pairs == b.pairs

    def test_concurrent_jobs_stay_apart(self):
        # two multi-worker jobs in one process, as a server with several
        # clients runs them; each must see only its own vector and keyspace
        rng = random.Random(11)
        jobs = [(random_vector(rng, 8), keyspace.make_keyspace(desc))
                for desc in ("mask:?d?d?d?d?d", "mask:?l?l?l")]
        expected = []
        for v, spec in jobs:
            sink = ListSink()
            crack(v, spec, "crc32", sink)
            expected.append(sink.pairs)
        for _ in range(4):
            start = threading.Barrier(len(jobs))
            results = [None] * len(jobs)

            def run(i, v, spec):
                sink = ListSink()
                start.wait()
                crack_parallel(v, spec, "crc32", sink, n_workers=2)
                results[i] = sink.pairs

            threads = [threading.Thread(target=run, args=(i, v, spec),
                                        daemon=True)
                       for i, (v, spec) in enumerate(jobs)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
                assert not t.is_alive()
            assert results == expected

    def test_fork_inside_another_jobs_window_is_held_off(self, monkeypatch):
        # job "dies" stalls after its first Pipe() until job "slow" has
        # forked a worker (or 2 s pass).  A worker of slow forked there
        # would hold a copy of dies's first write end, and dies, whose
        # workers exit at once, would see that only when slow's workers
        # exit: slow's sink waits for dies to finish first.
        ctx = multiprocessing.get_context("fork")
        pipe = ctx.Pipe
        window_open, slow_forked, dies_done = (threading.Event()
                                               for _ in range(3))
        calls = {"dies": 0, "slow": 0}

        def stalling_pipe(duplex=True):
            name = threading.current_thread().name
            calls[name] += 1
            if name == "slow" and calls[name] == 2:
                slow_forked.set()  # its first worker has forked
            ends = pipe(duplex)
            if name == "dies" and calls[name] == 1:
                window_open.set()
                slow_forked.wait(2)
            return ends

        dies_spec = keyspace.make_keyspace("mask:?d?d")
        slow_spec = keyspace.make_keyspace("mask:?d?d?d?d?d")
        scan = engine._scan_range

        def scan_or_die(keep, spec, algo_id, start, stop):
            if spec is dies_spec:
                os._exit(3)
            return scan(keep, spec, algo_id, start, stop)

        monkeypatch.setattr(ctx, "Pipe", stalling_pipe)
        monkeypatch.setattr(engine, "_scan_range", scan_or_die)
        out = {}

        class WaitingSink(ListSink):
            def write_hits(self, hits):
                # every row is a hit, so slow's workers block on their
                # pipes and stay alive while this waits
                if "dies_first" not in out:
                    out["dies_first"] = dies_done.wait(15)
                super().write_hits(hits)

        def dies():
            try:
                crack_parallel(zk_vector(8), dies_spec, "crc32", ListSink(),
                               n_workers=2)
            except EngineAbortError as exc:
                out["dies"] = str(exc)
            finally:
                dies_done.set()

        def slow():
            window_open.wait(10)
            sink = WaitingSink()
            crack_parallel(zk_vector(8), slow_spec, "crc32", sink,
                           n_workers=2)
            out["slow"] = sink.pairs

        threads = [threading.Thread(target=job, name=job.__name__,
                                    daemon=True) for job in (dies, slow)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
            assert not t.is_alive()
        assert out["dies_first"], "dies aborted only after slow finished"
        assert "worker 0 died with exit code 3" in out["dies"]
        assert out["slow"] == oracle_pairs(zk_vector(8), slow_spec,
                                           "crc32")[0]
        assert not multiprocessing.active_children()

    def test_workers_survive_inherited_sigterm_handler(self):
        # threepc-server installs a SIGTERM handler that raises SystemExit;
        # with it inherited, an idle worker could outlive Pool.terminate()
        # (in roughly 1% of runs) and the job never returned
        spec = keyspace.make_keyspace("mask:?d?d?d?d")
        v = random_vector(random.Random(3), 8)
        serial = ListSink()
        crack(v, spec, "crc32", serial)
        old = signal.signal(signal.SIGTERM, raise_system_exit)
        try:
            for _ in range(20):
                sink = ListSink()
                run_in_thread(lambda: crack_parallel(v, spec, "crc32", sink,
                                                     n_workers=2), 30)
                assert sink.pairs == serial.pairs
        finally:
            signal.signal(signal.SIGTERM, old)

    def test_workers_reset_sigterm_to_default(self, monkeypatch):
        def probe(parts):
            default = signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
            unblocked = signal.SIGTERM not in blocked_signals()
            row = [default, unblocked, 0, 0]
            size = len(fixtures.expand_parts(parts))
            return np.array([row] * size, dtype=np.uint8), None

        def job():
            # the job's own thread: its mask must be as it was before
            before = blocked_signals()
            crack_parallel(zk_vector(8), spec, "crc32", sink, n_workers=2)
            return before, blocked_signals()

        monkeypatch.setattr(hashers, "block_fn", lambda algo_id: probe)
        spec = keyspace.make_keyspace("mask:?d?d")
        old = signal.signal(signal.SIGTERM, raise_system_exit)
        try:
            sink = ListSink()
            before, after = run_in_thread(job, 30)
        finally:
            signal.signal(signal.SIGTERM, old)
        assert before == after
        assert len(sink.pairs) == 100
        assert {d for _, d in sink.pairs} == {b"\x01\x01\x00\x00"}

    @pytest.mark.parametrize("algo_id", ["crc32", "sha256", "ntlm"])
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_pair_sequence_matches_oracle(self, monkeypatch, algo_id,
                                          n_workers):
        # a small cap cuts the job into 38 ranges; the sink must still see
        # them in order
        monkeypatch.setattr(keyspace, "_BLOCK_CAP", 70)
        spec = keyspace.make_keyspace("mask:?l?d?d")
        nibbles = hashers.descriptor(algo_id).digest_nibbles
        v = PredicateVector(((0, 7), (2, 9)) + ((0, 15),) * (nibbles - 2))
        pairs, _ = oracle_pairs(v, spec, algo_id)
        sink = ListSink()
        report = crack_parallel(v, spec, algo_id, sink, n_workers=n_workers)
        assert sink.pairs == pairs
        assert report.hit_count == len(pairs)

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    @pytest.mark.parametrize("block_cap", [keyspace._BLOCK_CAP, 70])
    def test_ntlm_hybrid_matches_raw_fn_oracle(self, monkeypatch, n_workers,
                                               block_cap):
        # a small block cap makes ranges span and split blocks
        monkeypatch.setattr(keyspace, "_BLOCK_CAP", block_cap)
        words = ("café".encode(), "naïve".encode(), "Ünïcödé".encode(),
                 b"plain", "\U0001f511key".encode(), b"\xe9t\xe9",
                 b"lat\xefn", b"\xed\xa0\x80sur", b"x" * 40)
        spec = keyspace.make_keyspace("hybrid:w:?w?d?s", words=words)
        v = PredicateVector(((0, 7), (2, 9)) + ((0, 15),) * 30)
        for vector in (zk_vector(32), v):
            pairs, skipped = oracle_pairs(vector, spec, "ntlm")
            sink = ListSink()
            report = crack_parallel(vector, spec, "ntlm", sink,
                                    n_workers=n_workers)
            assert sink.pairs == pairs
            assert report.skipped_count == skipped == 3 * 320
            assert report.hit_count == len(pairs)
            assert report.hashed_count == len(words) * 320

    @pytest.mark.parametrize("failure", ["raise", "exit"])
    def test_worker_failure_aborts_with_partial_report(self, monkeypatch,
                                                        failure):
        def probe(parts):
            block = fixtures.expand_parts(parts)
            if b"5000" in block:
                if failure == "exit":
                    os._exit(3)
                raise ValueError("kernel failed")
            return np.zeros((len(block), 4), dtype=np.uint8), None

        # 15 ranges; 5000 is in range 7, which worker 1 of 2 scans
        monkeypatch.setattr(keyspace, "_BLOCK_CAP", 700)
        monkeypatch.setattr(hashers, "block_fn", lambda algo_id: probe)
        spec = keyspace.make_keyspace("mask:?d?d?d?d")
        sink = ListSink()
        with pytest.raises(EngineAbortError) as err:
            run_in_thread(lambda: crack_parallel(zk_vector(8), spec, "crc32",
                                                 sink, n_workers=2), 30)
        assert ("kernel failed" if failure == "raise"
                else "worker 1 died with exit code 3") in str(err.value)
        # ranges 0-6 reached the sink, in order, and nothing after them
        report = err.value.report
        assert report.partial
        assert report.hashed_count == report.hit_count == 7 * 10 ** 4 // 15
        assert [pw for pw, _ in sink.pairs] == [
            b"%04d" % i for i in range(report.hashed_count)]
        assert not multiprocessing.active_children()

    def test_more_workers_than_ranges(self):
        # two candidates make two ranges, so the third worker gets none
        spec = keyspace.make_keyspace("wordlist:w", words=(b"a", b"b"))
        pairs, _ = oracle_pairs(zk_vector(8), spec, "crc32")
        sink = ListSink()
        report = run_in_thread(lambda: crack_parallel(
            zk_vector(8), spec, "crc32", sink, n_workers=3), 30)
        assert sink.pairs == pairs
        assert report.hashed_count == report.hit_count == 2
        assert not multiprocessing.active_children()

    def test_workers_must_be_positive(self):
        spec = keyspace.make_keyspace("mask:?d")
        with pytest.raises(ValueError):
            crack_parallel(zk_vector(8), spec, "crc32", ListSink(), 0)


# Run in a process of its own, so that the peak RSS is this job's alone.
SLOW_SINK_JOB = """
import resource, time
from threepc import engine, keyspace
from threepc.predicate import zk_vector

words = tuple(b"%07d" % i for i in range(2_000_000))
spec = keyspace.make_keyspace("wordlist:w", words=words)


class SlowSink:
    pairs = 0

    def write_hits(self, hits):
        self.pairs += len(hits)
        time.sleep(0.02)


sink = SlowSink()
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
engine.crack_parallel(zk_vector(8), spec, "crc32", sink, n_workers=2)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(sink.pairs, (after - before) / 1024)
"""


class TestBoundedMemory:
    def test_slow_sink_holds_few_hits(self):
        # every candidate is a hit and the sink is slower than two
        # workers; the parent must not queue the finished ranges
        src = os.path.dirname(os.path.dirname(engine.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", SLOW_SINK_JOB], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        pairs, growth_mib = proc.stdout.split()
        assert int(pairs) == 2_000_000
        assert float(growth_mib) < 32


class TestStatisticalTargeting:
    def test_hit_counts_concentrate_around_r(self):
        # quick 5-seed version; the acceptance suite runs the full 20
        from threepc.planner import build_plan

        hits = []
        for seed in range(5):
            rng = random.Random(seed)
            words = tuple(rng.randbytes(12).hex().encode()
                          for _ in range(100_000))
            spec = keyspace.make_keyspace("wordlist:synthetic", words=words)
            target = Digest(tuple(rng.randint(0, 15) for _ in range(8)), "crc32")
            plan = build_plan(target, "crc32", "wordlist:synthetic",
                              len(words), 50, seed=seed)
            sink = ListSink()
            crack_parallel(parse_vector(plan.vector_hex), spec, "crc32", sink,
                           n_workers=2)
            hits.append(len(sink.pairs))
        within = sum(1 for h in hits if 15 <= h <= 85)
        assert within >= 4, hits
