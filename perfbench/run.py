#!/usr/bin/env python3
"""threepc benchmark: four workloads timed end to end, and per layer in a
traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It makes the workload's inputs from
the seed, starts the program in processes of its own (program.py), runs
jobs for S seconds, checks every output against oracle.py, and prints the
metrics.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones.  A report
(and, for a traced run, the spans) is written under .perfbench_out/.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracle  # noqa: E402

PROGRAM = "perfbench/program.py"
SETUPS = 3           # set-ups per untraced run; setup_s is their median
WORKERS = 2          # engine workers wherever the program forks
TOLERANCE = 0.05     # the planner's default, which every plan here uses
TIME_LIMIT = 170.0   # seconds a run may take, set-up and checks included

# Metrics printed on the last line.  Every workload reports every one.
END_TO_END = {"setup_s": "s", "job_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "planner.cold_s": "s",
    "planner.table_mb": "MiB",
    "planner.gen_v_us": "us",
    "engine.check_ns": "ns",
    "engine.check_ns_d2": "ns",
    "engine.check_ns_d26": "ns",
    "trace.overhead_s": "s",
}
# Units of the metrics that only some workloads have; printed above the
# last line and kept in the report.
UNITS = {
    **END_TO_END, **PER_LAYER,
    "hash_rate": "H/s", "verify_s": "s", "plan_ms_p50": "ms",
    "plan_ms_p99": "ms",
    "keyspace.enum_rate": "cand/s", "keyspace.load_s": "s",
    "hashers.rate": "H/s", "engine.crack_s": "s", "engine.parallel_eff": "ratio",
    "engine.hashed": "count", "engine.hits": "count",
    "engine.skipped": "count", "engine.hit_ratio": "ratio",
    "cli.run_self_s": "s", "potfile.write_rate": "pairs/s",
    "potfile.parse_rate": "lines/s", "verifier.count_s": "s",
    "verifier.lookup_s": "s", "verifier.spot_s": "s",
    "verifier.file_reads": "count", "protocol.first_chunk_s": "s",
    "protocol.client_busy_s": "s", "protocol.encode_rate": "pairs/s",
    "protocol.decode_rate": "pairs/s", "protocol.bytes_per_pair": "B",
    "protocol.frames": "count", "planner.search_ms_p50": "ms",
    "planner.search_ms_p99": "ms",
}


class BenchError(RuntimeError):
    """The run could not be completed; no result is printed."""


# ---------------------------------------------------------------------------
# Inputs and checks, one class per workload


class Workload:
    kind = ""
    needs_server = False

    def __init__(self, seed: int, work: Path):
        self.rng = random.Random(seed)
        self.work = work
        self.cfg: dict = {"kind": self.kind, "seed": seed, "workers": WORKERS}

    def check(self, results: list[dict]) -> list[list[str]]:
        """Faults per job of the last process; the earlier set-up
        processes' results come first in the list."""
        raise NotImplementedError

    def extra_metrics(self, jobs: list[dict]) -> dict:
        """The end-to-end metrics only this kind of workload has."""
        return {"hash_rate": self.size / statistics.median(j["run_s"] for j in jobs),
                "verify_s": statistics.median(j["verify_s"] for j in jobs)}


class Offline(Workload):
    """plan (set-up) then `run --offline` + `verify` per job."""

    kind = "offline"
    width = 0

    def check(self, results):
        last = results[-1]
        target = self.cfg["target"]
        texts = [(self.work / f"p{i}" / "plans" / f"{target}.plan").read_text()
                 for i in range(len(results))]
        plan = oracle.read_plan_file(texts[-1])
        shared = oracle.plan_faults(plan, target, self.size, self.cfg["r"],
                                    TOLERANCE)
        if len(set(texts)) != 1:
            shared.append("set-ups with one seed wrote different plans")
        if plan["keyspace_size"] != self.size:
            shared.append(f"keyspace_size {plan['keyspace_size']} != {self.size}")
        box = oracle.parse_box(plan["vector_hex"])
        by_output: dict[bytes, list[str]] = {}
        faults = []
        for job in last["jobs"]:
            f = list(shared)
            if job["rc_run"] != 0 or job["rc_verify"] != 0:
                f.append(f"run exited {job['rc_run']}, verify exited "
                         f"{job['rc_verify']} (want 0: cracked and honest)")
            report = dict(line.split(" = ", 1) for line in
                          Path(job["out"] + ".report").read_text().splitlines()
                          if " = " in line)
            data = Path(job["out"]).read_bytes()
            lines = oracle.potfile_lines(data)
            if int(report["hashed_count"]) != self.size:
                f.append(f"hashed_count {report['hashed_count']} != {self.size}")
            if int(report["skipped_count"]) != self.skipped:
                f.append(f"skipped {report['skipped_count']} != {self.skipped}")
            if int(report["hit_count"]) != len(lines):
                f.append(f"hit_count {report['hit_count']} != {len(lines)} lines")
            if data not in by_output:
                by_output[data] = self.check_pairs(lines, box)
            f += by_output[data]
            faults.append(f)
        return faults

    def check_pairs(self, lines: list[bytes], box) -> list[str]:
        f = []
        for line in lines:
            digest, pw = oracle.split_line(line, self.width)
            if not self.member(pw):
                f.append(f"{pw!r} is not in the keyspace")
            elif self.hash_hex(pw) != digest or not oracle.in_box(box, digest):
                f.append(f"line {line!r} fails the re-hash or the box")
        if self.planted_line not in lines:
            f.append("the planted password is missing")
        got = sorted(line for line in lines if self.in_slice(
            oracle.split_line(line, self.width)[1]))
        want = sorted(self.slice_lines(box))
        if got != want:
            f.append(f"slice oracle: {len(want)} lines expected, {len(got)} returned")
        return f


class Pins(Offline):
    """mask:?d^6 under SHA-256, r = 10 around a planted PIN."""

    width = 64
    digits = 6
    slice_len = 100_000

    def __init__(self, seed, work):
        super().__init__(seed, work)
        rng = self.rng
        self.size = 10 ** self.digits
        self.skipped = 0
        pin = b"%0*d" % (self.digits, rng.randrange(self.size))
        self.cfg.update(
            algo="sha256", keyspace="mask:" + "?d" * self.digits,
            target=oracle.sha256_hex(pin), r=10.0,
            plan_seed=rng.getrandbits(32), hash_sample=100_000,
            parallel_slice={"keyspace": "mask:1" + "?d" * (self.digits - 1)})
        self.planted_line = f"{self.cfg['target']}:".encode() + pin
        self.slice_start = rng.randrange(self.size - self.slice_len)

    hash_hex = staticmethod(oracle.sha256_hex)

    def member(self, pw):
        return len(pw) == self.digits and pw.isdigit()

    def in_slice(self, pw):
        return self.slice_start <= int(pw) < self.slice_start + self.slice_len

    def slice_lines(self, box):
        for n in range(self.slice_start, self.slice_start + self.slice_len):
            pw = b"%0*d" % (self.digits, n)
            digest = oracle.sha256_hex(pw)
            if oracle.in_box(box, digest):
                yield digest.encode() + b":" + pw


def _hybrid_words(rng: random.Random, n: int, n_accented: int,
                  n_invalid: int) -> list[bytes]:
    letters = "abcdefghijklmnopqrstuvwxyz"
    accents = "éèêüöäñçøåßàíóú"
    words: dict[bytes, None] = {}
    while len(words) < n:
        base = "".join(rng.choice(letters) for _ in range(rng.randint(4, 9)))
        k = len(words)
        if k < n_accented + n_invalid:
            at = rng.randrange(len(base) + 1)
            base = base[:at] + rng.choice(accents) + base[at:]
        # the first n_invalid are latin-1 bytes, which are not valid UTF-8
        raw = base.encode("latin-1" if k < n_invalid else "utf-8")
        words.setdefault(raw, None)
    out = list(words)
    rng.shuffle(out)
    return out


class Hybrid(Offline):
    """hybrid:<list>:?w?d?s under NTLM over a seeded list with accented
    UTF-8 words and a few words that are not valid UTF-8."""

    width = 32
    n_words, n_accented, n_invalid = 300, 30, 4
    slice_words = 10

    def __init__(self, seed, work):
        super().__init__(seed, work)
        rng = self.rng
        self.words = _hybrid_words(rng, self.n_words, self.n_accented,
                                   self.n_invalid)
        corpus = work / "corpus"
        corpus.mkdir()
        (corpus / "words").write_bytes(b"\n".join(self.words) + b"\n")
        (corpus / "slice").write_bytes(b"\n".join(self.words[:16]) + b"\n")
        per_word = len(oracle.DIGITS) * len(oracle.SPECIALS)
        self.size = len(self.words) * per_word
        self.skipped = per_word * sum(
            1 for w in self.words if oracle.ntlm_hex(w) is None)
        valid = [w for w in self.words if oracle.ntlm_hex(w) is not None]
        planted = (rng.choice(valid) + bytes([rng.choice(oracle.DIGITS)])
                   + bytes([rng.choice(oracle.SPECIALS)]))
        self.cfg.update(
            algo="ntlm", keyspace="hybrid:words:?w?d?s",
            corpus_dir=str(corpus), target=oracle.ntlm_hex(planted), r=10.0,
            plan_seed=rng.getrandbits(32), hash_sample=3_000,
            parallel_slice={"keyspace": "hybrid:slice:?w?d?s"})
        self.planted_line = f"{self.cfg['target']}:".encode() + planted
        at = rng.randrange(len(self.words) - self.slice_words)
        self.slice_set = set(self.words[at:at + self.slice_words])
        self.word_set = set(self.words)

    hash_hex = staticmethod(oracle.ntlm_hex)

    def member(self, pw):
        return (len(pw) > 2 and pw[:-2] in self.word_set
                and pw[-2] in oracle.DIGITS and pw[-1] in oracle.SPECIALS)

    def in_slice(self, pw):
        return pw[:-2] in self.slice_set

    def slice_lines(self, box):
        for word in self.slice_set:
            for d in oracle.DIGITS:
                for s in oracle.SPECIALS:
                    pw = word + bytes((d, s))
                    digest = oracle.ntlm_hex(pw)
                    if digest is not None and oracle.in_box(box, digest):
                        yield digest.encode() + b":" + pw


def _random_words(rng: random.Random, n: int, lo: int = 6, hi: int = 12
                  ) -> list[bytes]:
    alphabet = b"abcdefghijklmnopqrstuvwxyz0123456789"
    table = bytes(alphabet[b % len(alphabet)] for b in range(256))
    words: dict[bytes, None] = {}
    while len(words) < n:
        need = n - len(words) + 1000
        blob = rng.randbytes(need * hi).translate(table)
        at = 0
        for b in rng.randbytes(need):
            k = lo + b % (hi - lo + 1)
            words[blob[at:at + k]] = None
            at += k
            if len(words) == n:
                break
    return list(words)


class SessionCrc(Workload):
    """sequential sessions against a `--workers 2` server over loopback;
    wordlist keyspace, r = |DS| / 10, a fresh target and plan per session."""

    kind = "session"
    needs_server = True
    size = 500_000

    def __init__(self, seed, work):
        super().__init__(seed, work)
        rng = self.rng
        self.words = _random_words(rng, self.size)
        corpus = work / "corpus"
        corpus.mkdir()
        (corpus / "words").write_bytes(b"\n".join(self.words) + b"\n")
        self.crcs = np.fromiter((zlib.crc32(w) for w in self.words),
                                dtype=np.uint32, count=len(self.words))
        self.r = float(self.size // 10)
        sessions = []
        for _ in range(200):
            j = rng.randrange(self.size)
            sessions.append([oracle.crc32_hex(self.words[j]), rng.getrandbits(32)])
        self.cfg.update(algo="crc32", keyspace="wordlist:words",
                        corpus_dir=str(corpus), corpus_name="words",
                        r=self.r, sessions=sessions, hash_sample=100_000)
        self.products = oracle.width_products(8)

    def check(self, results):
        faults = []
        for job in results[-1]["jobs"]:
            plan = job["plan"]
            f = oracle.plan_faults(plan, job["target"], self.size, self.r,
                                   TOLERANCE, self.products)
            if plan["keyspace_size"] != self.size:
                f.append(f"keyspace_size {plan['keyspace_size']}")
            if job["hashed"] != self.size:
                f.append(f"hashed_count {job['hashed']} != {self.size}")
            if not (job["cracked"] and job["honest"]):
                f.append(f"verify: cracked={job['cracked']} honest={job['honest']}")
            lines = oracle.potfile_lines(Path(job["out"]).read_bytes())
            if job["hits"] != len(lines):
                f.append(f"JobDone.hit_count {job['hits']} != {len(lines)} received")
            idx = np.flatnonzero(oracle.crc_box_mask(
                self.crcs, oracle.parse_box(plan["vector_hex"])))
            want = sorted(b"%08x:%s" % (int(self.crcs[i]), self.words[i])
                          for i in idx)
            if sorted(lines) != want:
                f.append(f"pair multiset differs from the crc32 oracle "
                         f"({len(want)} expected, {len(lines)} received)")
            faults.append(f)
        return faults


class PlanSha(Workload):
    """build_plan at l = 64 with |DS| log-uniform in 10^6..10^16 and r
    log-uniform in 1..10^4, a fresh random target per call."""

    kind = "plan"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        rng = self.rng
        self.plans = [[rng.randbytes(32).hex(), int(10 ** rng.uniform(6, 16)),
                       10 ** rng.uniform(0, 4), rng.getrandbits(32)]
                      for _ in range(4000)]
        self.cfg.update(algo="sha256", keyspace="mask:?d", plans=self.plans)

    def check(self, results):
        faults = []
        for job in results[-1]["jobs"]:
            target, size, r, _ = self.plans[job["input"] % len(self.plans)]
            faults.append(oracle.plan_faults(job["plan"], target, size, r,
                                             TOLERANCE))
        return faults

    def extra_metrics(self, jobs):
        ms = sorted(j["job_s"] * 1e3 for j in jobs)
        return {"plan_ms_p50": statistics.median(ms),
                "plan_ms_p99": ms[min(len(ms) - 1, int(0.99 * len(ms)))]}


WORKLOADS = {"pins-sha256": Pins, "hybrid-ntlm": Hybrid,
             "session-crc32": SessionCrc, "plan-sha256": PlanSha}


# ---------------------------------------------------------------------------
# Processes


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("THREEPC_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    return env


def _kill(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("time limit reached")
    return left


def start_server(cfg: dict, log, deadline: float):
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, PROGRAM, "server", cfg["corpus_dir"],
         cfg["corpus_name"], str(WORKERS)],
        stdout=subprocess.PIPE, stderr=log, env=_env(), start_new_session=True)
    ready, _, _ = select.select([proc.stdout], [], [], _remaining(deadline))
    line = proc.stdout.readline().decode() if ready else ""
    if not line.startswith("ready "):
        _kill(proc)
        raise BenchError("server did not start")
    return proc, time.perf_counter() - start, int(line.split()[1])


def stop_server(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGTERM)
        proc.wait(timeout=10)
    except ProcessLookupError:
        proc.wait()
    except subprocess.TimeoutExpired:
        _kill(proc)
    proc.stdout.close()


def run_client(cfg: dict, work: Path, log, deadline: float) -> dict:
    work.mkdir()
    cfg_path, result_path = work / "config.json", work / "result.json"
    cfg_path.write_text(json.dumps({**cfg, "work": str(work)}))
    proc = subprocess.Popen(
        [sys.executable, PROGRAM, "client", str(cfg_path), str(result_path)],
        stdout=log, stderr=log, env=_env(), start_new_session=True)
    try:
        rc = proc.wait(timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        _kill(proc)
        raise BenchError("program process ran out of time") from None
    except BaseException:
        _kill(proc)
        raise
    if rc != 0:
        raise BenchError(f"program process exited {rc}")
    return json.loads(result_path.read_text())


# ---------------------------------------------------------------------------


def measure(args, work: Path, deadline: float) -> tuple[Workload, list, list]:
    wl = WORKLOADS[args.workload](args.seed, work)
    if not oracle.md4_self_test():
        raise BenchError("reference MD4 fails the RFC 1320 suite")
    results, setups = [], []
    n_setups = 1 if args.trace else SETUPS
    with open(work / "program.log", "wb") as log:
        for i in range(n_setups):
            last = i == n_setups - 1
            cfg = dict(wl.cfg, seconds=args.seconds if last else 0,
                       trace=args.trace)
            server_s, server = 0.0, None
            if wl.needs_server:
                server, server_s, port = start_server(cfg, log, deadline)
                cfg["endpoint"] = ["127.0.0.1", port]
            try:
                res = run_client(cfg, work / f"p{i}", log, deadline)
            finally:
                if server is not None:
                    stop_server(server)
            setups.append(server_s + res["setup_s"])
            results.append(res)
    return wl, results, setups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "threepc" / "__init__.py").is_file():
        print("error: run from the root of a threepc checkout "
              "(src/threepc is missing)", file=sys.stderr)
        return 2
    # a SIGTERM to the benchmark still stops the processes it started
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    deadline = time.monotonic() + TIME_LIMIT
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    out_dir = root / ".perfbench_out"
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    try:
        wl, results, setups = measure(args, work, deadline)
        faults = wl.check(results)
    except BenchError as exc:
        log = work / "program.log"
        if log.exists():
            sys.stderr.write(log.read_text(errors="replace")[-4000:])
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        shutil.rmtree(work, ignore_errors=True)

    last = results[-1]
    jobs = last["jobs"]
    failed = sum(1 for f in faults if f)
    for n, f in enumerate(faults):
        for fault in f[:3]:
            print(f"job {n}: {fault}", file=sys.stderr)
    untraced = [j for j in jobs if not j["traced"]] or jobs
    info = {"setup_s": statistics.median(setups),
            "job_s": statistics.median(j["job_s"] for j in untraced),
            "peak_rss_mb": peak_mb, **wl.extra_metrics(untraced)}
    if args.trace:
        info.update(last["layers"])
        shown = PER_LAYER
    else:
        shown = END_TO_END
    host = {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__}

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print("# host: " + " ".join(f"{k}={v}" for k, v in host.items()))
    print(f"# set-ups (s): {' '.join(f'{s:.4f}' for s in setups)}; "
          f"jobs: {len(jobs)}")
    for name, value in info.items():
        print(f"{name} = {value:.6g} {UNITS[name]}")
    print(f"attempted = {len(jobs)}  failed = {failed}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              "setups_s": setups, "attempted": len(jobs), "failed": failed,
              "metrics": {k: {"value": v, "unit": UNITS[k]}
                          for k, v in info.items()},
              "jobs": [{k: v for k, v in j.items() if k != "plan"}
                       for j in jobs]}
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if args.trace:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(last["spans"]))

    print(json.dumps({
        "correct": True, "attempted": len(jobs), "failed": failed,
        "metrics": {k: {"value": info[k], "unit": u} for k, u in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
