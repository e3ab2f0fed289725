"""Program side of the benchmark: one process per set-up, per job loop and
per server, so that memory is measured on the program's own processes.

run.py starts this file; it is not meant to be started by hand.

    python3 perfbench/program.py client CONFIG.json RESULT.json
    python3 perfbench/program.py server CORPUS_DIR CORPUS_NAME WORKERS

`client` imports threepc, times the workload's set-up, then runs jobs
through the public entry points for the configured number of seconds and
writes per-job timings and outputs' paths to RESULT.json.  In a traced run
it wraps module attributes of threepc (never its files) to record spans,
alternating traced and untraced jobs so the tracing overhead is measured
in the same process, and ends with per-layer microbenchmarks.

`server` starts a protocol.CrackServer on an ephemeral loopback port,
loads its corpus and its rate measurement, prints `ready <port>` and
serves until it is killed.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

now = time.perf_counter


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# Tracing


class Tracer:
    """Spans (name, start, end, parent, note) around module attributes.

    Wrappers are installed with install() and taken off with remove(); the
    program's files are never touched.  A note function may attach a small
    value from the call's arguments or result to its span.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._targets: list[tuple] = []
        self._saved: list[tuple] = []

    def add(self, owner, attr: str, note=None) -> None:
        name = f"{owner.__name__.rpartition('.')[2]}.{attr}"
        self._targets.append((owner, attr, name, note))

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, name, note in self._targets:
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name, note))

    def remove(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def _wrap(self, orig, name: str, note):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [name, now(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = orig(*args, **kwargs)
                if note is not None:
                    span[4] = note(args, result)
                return result
            finally:
                span[2] = now()
                stack.pop()

        wrapper.__wrapped__ = orig
        return wrapper

    def as_dicts(self) -> list[dict]:
        return [{"id": i, "name": n, "start": s, "end": e, "parent": p,
                 **({"note": x} if x is not None else {})}
                for i, (n, s, e, p, x) in enumerate(self.spans)]


def install_points(tracer: Tracer) -> None:
    from threepc import cli, engine, keyspace, planner, potfile, protocol
    from threepc import verifier

    def kind(args, result):
        return type(args[1] if result is None else result).__name__

    def report(args, result):
        return [result.hashed_count, result.hit_count, result.skipped_count]

    tracer.add(cli, "client_main")
    tracer.add(engine, "crack_parallel", report)
    tracer.add(keyspace, "load_wordlist")
    tracer.add(planner, "build_plan")
    tracer.add(planner, "smooth_search")
    tracer.add(planner, "gen_v")
    tracer.add(verifier, "verify")
    tracer.add(verifier, "chk_cs")
    tracer.add(verifier, "spot_check")
    tracer.add(potfile, "count_records")
    tracer.add(potfile, "iter_potfile")  # a generator: the span counts calls
    tracer.add(protocol, "run_job")
    tracer.add(protocol, "send_message", kind)
    tracer.add(protocol, "recv_message", kind)
    tracer.add(protocol, "decode_payload", lambda args, result: len(args[1]))


def spans_named(tracer: Tracer, name: str) -> list[list]:
    return [s for s in tracer.spans if s[0] == name]


def children(tracer: Tracer, parent_idx: int, name: str) -> list[list]:
    return [s for s in tracer.spans[parent_idx + 1:]
            if s[3] == parent_idx and s[0] == name]


def within(tracer: Tracer, idx: int, ancestor: int) -> bool:
    while idx >= 0:
        if idx == ancestor:
            return True
        idx = tracer.spans[idx][3]
    return False


def median(xs):
    return statistics.median(xs) if xs else None


def quantile(xs, q: float):
    """Nearest-rank quantile."""
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(q * len(xs)))]


def rate(fn, units: int, min_seconds: float = 0.2) -> float:
    """units per second of fn(), repeated until min_seconds have passed."""
    reps = 0
    start = now()
    while True:
        fn()
        reps += 1
        elapsed = now() - start
        if elapsed >= min_seconds:
            return reps * units / elapsed


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    def __init__(self, cfg: dict, tracer: Tracer | None):
        self.cfg = cfg
        self.work = Path(cfg["work"])
        self.tracer = tracer
        self.results: list[dict] = []  # one dict per job, in order

    def setup(self) -> None:
        raise NotImplementedError

    def job(self, i: int) -> dict:
        raise NotImplementedError

    def layers(self) -> dict:
        """Per-layer metrics from the spans and microbenchmarks."""
        return {}


class Offline(Workload):
    """plan once (set-up), then `run --offline` + `verify` per job."""

    def corpus_args(self) -> list[str]:
        if self.cfg.get("corpus_dir"):
            return ["--corpus-dir", self.cfg["corpus_dir"]]
        return []

    def setup(self) -> None:
        from threepc import cli

        store = self.work / "plans"
        argv = ["plan", "--algo", self.cfg["algo"], "--target",
                self.cfg["target"], "--keyspace", self.cfg["keyspace"],
                "--r", repr(self.cfg["r"]), "--seed",
                str(self.cfg["plan_seed"]), "--plan-store", str(store)]
        rss0 = maxrss_mb()
        rc = cli.client_main(argv + self.corpus_args())
        self.table_mb = maxrss_mb() - rss0
        if rc != 0:
            raise RuntimeError(f"plan exited {rc}")
        self.plan_path = store / f"{self.cfg['target']}.plan"

    def job(self, i: int) -> dict:
        from threepc import cli

        out = self.work / f"job{i}.pot"
        t0 = now()
        rc_run = cli.client_main(
            ["run", "--plan", str(self.plan_path), "--out", str(out),
             "--offline", "--workers", str(self.cfg["workers"])]
            + self.corpus_args())
        t1 = now()
        rc_verify = cli.client_main(
            ["verify", "--plan", str(self.plan_path), "--potfile", str(out)])
        t2 = now()
        return {"run_s": t1 - t0, "verify_s": t2 - t1, "job_s": t2 - t0,
                "rc_run": rc_run, "rc_verify": rc_verify, "out": str(out)}

    def layers(self) -> dict:
        from threepc import keyspace, planner

        tr = self.tracer
        out: dict = {}
        run_self, crack = [], []
        for idx, span in enumerate(tr.spans):
            if span[0] != "cli.client_main":
                continue
            for c in children(tr, idx, "engine.crack_parallel"):
                crack.append(c[2] - c[1])
                run_self.append((span[2] - span[1]) - (c[2] - c[1]))
                out["engine.hashed"], out["engine.hits"], \
                    out["engine.skipped"] = c[4]
        out["engine.crack_s"] = median(crack)
        out["cli.run_self_s"] = median(run_self)
        out["engine.hit_ratio"] = out["engine.hits"] / out["engine.hashed"]
        spec = keyspace.make_keyspace(
            self.cfg["keyspace"],
            keyspace.DirectoryCorpus(self.cfg["corpus_dir"])
            if self.cfg.get("corpus_dir") else None)
        vector = planner.Plan.from_text(self.plan_path.read_text()).vector_hex
        out.update(crack_layers(self.cfg, spec, vector))
        out.update(verify_layers(tr))
        out.update(parallel_eff(self.cfg, vector))
        if self.cfg.get("corpus_dir"):
            out["keyspace.load_s"] = median(
                [s[2] - s[1] for s in spans_named(tr, "keyspace.load_wordlist")])
        return out


class Session(Workload):
    """client side of sequential sessions against a running server; each
    job makes the calls protocol.client_session makes, one by one, so the
    crack and verify steps are timed without wrappers."""

    def setup(self) -> None:
        from threepc import keyspace

        self.corpus = keyspace.DirectoryCorpus(self.cfg["corpus_dir"])
        self.corpus(self.cfg["corpus_name"])

    def job(self, i: int) -> dict:
        from threepc import hashers, keyspace, planner, protocol, verifier
        from threepc.predicate import parse_vector

        target_hex, seed = self.cfg["sessions"][i % len(self.cfg["sessions"])]
        out = self.work / f"job{i}.pot"
        algo, desc = self.cfg["algo"], self.cfg["keyspace"]
        t0 = now()
        target = hashers.parse_digest_hex(algo, target_hex)
        spec = keyspace.make_keyspace(desc, self.corpus)
        size = keyspace.spec_cardinality(spec)
        rss0 = maxrss_mb()
        plan = planner.build_plan(target, algo, desc, size, self.cfg["r"],
                                  seed=seed)
        if i == 0:
            self.table_mb = maxrss_mb() - rss0
        t1 = now()
        report = protocol.run_job(plan, tuple(self.cfg["endpoint"]), out)
        t2 = now()
        verdict = verifier.verify(
            out, target, parse_vector(plan.vector_hex), algo,
            plan.expected_candidates, rng=plan.seed ^ 0x5F0F)
        t3 = now()
        return {"plan_s": t1 - t0, "run_s": t2 - t1, "verify_s": t3 - t2,
                "job_s": t3 - t0, "out": str(out), "target": target_hex,
                "plan": {"vector_hex": plan.vector_hex,
                         "cardinality": plan.cardinality,
                         "expected_candidates": plan.expected_candidates,
                         "keyspace_size": plan.keyspace_size},
                "hashed": report.hashed_count, "hits": report.hit_count,
                "crack_s": report.elapsed,
                "cracked": verdict.cracked, "honest": verdict.honest}

    def layers(self) -> dict:
        from threepc import keyspace

        tr = self.tracer
        out: dict = {}
        first_chunk, busy, frames, frame_bytes = [], [], [], []
        for idx, span in enumerate(tr.spans):
            if span[0] != "protocol.run_job":
                continue
            sub = [(j, s) for j, s in enumerate(tr.spans[idx + 1:], idx + 1)
                   if within(tr, j, idx)]
            submit = next(s for _, s in sub if s[0] == "protocol.send_message"
                          and s[4] == "JobSubmit")
            recvs = [(j, s) for j, s in sub if s[0] == "protocol.recv_message"]
            chunk = next(s for _, s in recvs if s[4] == "CandidateChunk")
            first_chunk.append(chunk[2] - submit[1])
            waited = 0.0
            for j, s in recvs:
                decode = sum(c[2] - c[1] for c in
                             children(tr, j, "protocol.decode_payload"))
                waited += (s[2] - s[1]) - decode
            busy.append((span[2] - span[1]) - waited)
            frames.append(len(recvs))
            # 5 header bytes per frame besides the payload
            frame_bytes.append(sum(
                s[4] + 5 for _, s in sub if s[0] == "protocol.decode_payload"))
        jobs = [j for j in self.results if j["traced"]]
        pairs = [j["hits"] for j in jobs]
        out["protocol.first_chunk_s"] = median(first_chunk)
        out["protocol.client_busy_s"] = median(busy)
        out["protocol.frames"] = median(frames)
        out["protocol.bytes_per_pair"] = sum(frame_bytes) / sum(pairs)
        out["engine.crack_s"] = median([j["crack_s"] for j in jobs])
        out["engine.hashed"] = jobs[-1]["hashed"]
        out["engine.hits"] = jobs[-1]["hits"]
        out["engine.hit_ratio"] = jobs[-1]["hits"] / jobs[-1]["hashed"]
        searches = [s[2] - s[1] for s in spans_named(tr, "planner.smooth_search")]
        if len(searches) > 1:  # the first search builds the tables
            out["planner.search_ms_p50"] = median(searches[1:]) * 1e3

        last = jobs[-1]
        spec = keyspace.make_keyspace(self.cfg["keyspace"], self.corpus)
        out.update(crack_layers(self.cfg, spec, last["plan"]["vector_hex"]))
        out.update(verify_layers(tr))
        out.update(candidate_path_layers(Path(last["out"])))
        out["keyspace.load_s"] = median(
            [s[2] - s[1] for s in spans_named(tr, "keyspace.load_wordlist")])
        return out


class Plans(Workload):
    """build_plan calls at l = 64 over seeded (target, |DS|, r) inputs."""

    def inputs(self, i: int):
        from threepc import hashers

        target_hex, size, r, seed = self.cfg["plans"][i % len(self.cfg["plans"])]
        return hashers.parse_digest_hex("sha256", target_hex), size, r, seed

    def setup(self) -> None:
        from threepc import planner

        target, size, r, seed = self.inputs(0)
        rss0 = maxrss_mb()
        planner.build_plan(target, "sha256", self.cfg["keyspace"], size, r,
                           seed=seed)
        self.table_mb = maxrss_mb() - rss0

    def job(self, i: int) -> dict:
        from threepc import planner

        target, size, r, seed = self.inputs(i + 1)
        t0 = now()
        plan = planner.build_plan(target, "sha256", self.cfg["keyspace"],
                                  size, r, seed=seed)
        t1 = now()
        return {"job_s": t1 - t0, "input": i + 1,
                "plan": {"vector_hex": plan.vector_hex,
                         "cardinality": plan.cardinality,
                         "expected_candidates": plan.expected_candidates}}

    def layers(self) -> dict:
        from threepc import engine
        from threepc.predicate import parse_vector

        tr = self.tracer
        searches = [s[2] - s[1] for s in spans_named(tr, "planner.smooth_search")]
        out = {"planner.search_ms_p50": median(searches[1:]) * 1e3,
               "planner.search_ms_p99": quantile(searches[1:], 0.99) * 1e3}
        # the planned vectors against the workload's own targets
        digests = [bytes.fromhex(t[0]) for t in self.cfg["plans"]]
        vector = parse_vector(self.results[-1]["plan"]["vector_hex"])
        check = engine.compile_checker(vector)
        out["engine.check_ns"] = 1e9 / rate(
            lambda: [check(d) for d in digests], len(digests), 0.1)
        return out


WORKLOADS = {"offline": Offline, "session": Session, "plan": Plans}


# ---------------------------------------------------------------------------
# Per-layer microbenchmarks on the workload's own inputs


def crack_layers(cfg: dict, spec, vector_hex: str) -> dict:
    from threepc import engine, hashers, keyspace
    from threepc.predicate import parse_vector

    total = keyspace.spec_cardinality(spec)

    def enumerate_all():
        # the engine's enumeration: blocks joined to a prefix, then visited
        # one candidate at a time as the hash loop does
        for prefix, suffixes, lo, hi in keyspace.iter_blocks(spec, 0, total):
            chunk = suffixes if (not lo and hi == len(suffixes)) else suffixes[lo:hi]
            if prefix:
                chunk = [prefix + s for s in chunk]
            for _ in chunk:
                pass

    out = {"keyspace.enum_rate": rate(enumerate_all, total)}
    fn = hashers.raw_fn(cfg["algo"])
    sample = list(keyspace.enumerate_range(spec, 0, min(total, cfg["hash_sample"])))
    digests = []
    for pw in sample:
        try:
            digests.append(fn(pw))
        except hashers.CandidateEncodingError:
            pass

    def hash_all():
        for pw in sample:
            try:
                fn(pw)
            except hashers.CandidateEncodingError:
                pass

    out["hashers.rate"] = rate(hash_all, len(sample))
    check = engine.compile_checker(parse_vector(vector_hex))
    out["engine.check_ns"] = 1e9 / rate(
        lambda: [check(d) for d in digests], len(digests))
    return out


def verify_layers(tr: Tracer) -> dict:
    out = {}
    verifies = [i for i, s in enumerate(tr.spans) if s[0] == "verifier.verify"]
    for key, name in (("verifier.count_s", "potfile.count_records"),
                      ("verifier.lookup_s", "verifier.chk_cs"),
                      ("verifier.spot_s", "verifier.spot_check")):
        out[key] = median([c[2] - c[1] for v in verifies
                           for c in children(tr, v, name)])
    reads = sum(1 for j, s in enumerate(tr.spans)
                if s[0] == "potfile.iter_potfile"
                and any(within(tr, j, v) for v in verifies))
    out["verifier.file_reads"] = reads / len(verifies)
    return out


def parallel_eff(cfg: dict, vector_hex: str) -> dict:
    from threepc import engine, keyspace
    from threepc.predicate import parse_vector

    slice_cfg = cfg["parallel_slice"]
    spec = keyspace.make_keyspace(
        slice_cfg["keyspace"],
        keyspace.DirectoryCorpus(cfg["corpus_dir"]) if cfg.get("corpus_dir") else None)
    v = parse_vector(vector_hex)
    rates = {}
    for workers in (1, 2):
        rep = engine.crack_parallel(v, spec, cfg["algo"], engine.ListSink(),
                                    n_workers=workers)
        rates[workers] = rep.rate
    return {"engine.parallel_eff": rates[2] / (2 * rates[1])}


def candidate_path_layers(pot: Path) -> dict:
    from threepc import potfile, protocol

    width = 8
    pairs = []
    for line in pot.read_bytes().splitlines():
        pairs.append((line[width + 1:], bytes.fromhex(line[:width].decode())))
    sink_path = pot.with_suffix(".rewrite")

    def write_all():
        with potfile.PotfileWriter(sink_path) as writer:
            writer.write_batch(pairs)

    def parse_all():
        for _ in potfile.iter_potfile(pot, width):
            pass

    chunks = [protocol.CandidateChunk(tuple(
        (d.hex(), pw) for pw, d in pairs[i:i + protocol.CHUNK_PAIRS]))
        for i in range(0, len(pairs), protocol.CHUNK_PAIRS)]
    frames = [protocol.encode_message(c) for c in chunks]
    return {
        "potfile.write_rate": rate(write_all, len(pairs)),
        "potfile.parse_rate": rate(parse_all, len(pairs)),
        "protocol.encode_rate": rate(
            lambda: [protocol.encode_message(c) for c in chunks], len(pairs)),
        "protocol.decode_rate": rate(
            lambda: [protocol.decode_payload(f[4], f[5:]) for f in frames],
            len(pairs)),
    }


def constant_time_layers(seed: int) -> dict:
    """compile_checker on 64-nibble vectors with 16^2 and 16^26 decoys,
    over random digests (the early-reject path almost every digest takes)."""
    from threepc import engine
    from threepc.predicate import Digest, from_hit_mask

    rng = random.Random(seed)
    target = Digest(tuple(rng.randrange(16) for _ in range(64)), "sha256")
    digests = [rng.randbytes(32) for _ in range(256)] * 64
    checks = {"engine.check_ns_d2": engine.compile_checker(
                  from_hit_mask(target, "7fffffff")),
              "engine.check_ns_d26": engine.compile_checker(
                  from_hit_mask(target, "ffffe000"))}
    samples: dict[str, list[float]] = {key: [] for key in checks}
    for _ in range(15):  # alternate, so both see the same host load
        for key, check in checks.items():
            samples[key].append(1e9 / rate(
                lambda: [check(d) for d in digests], len(digests), 0.03))
    return {key: median(ns) for key, ns in samples.items()}


# ---------------------------------------------------------------------------
# Entry points

TRACER = Tracer()


def client(cfg_path: str, result_path: str) -> int:
    cfg = json.loads(Path(cfg_path).read_text())
    traced = bool(cfg["trace"])
    result: dict = {}
    import threepc  # noqa: F401  (import time is set-up time)

    if traced:
        install_points(TRACER)
        TRACER.install()
    wl = WORKLOADS[cfg["kind"]](cfg, TRACER)
    wl.setup()
    result["setup_s"] = now() - T_START

    jobs = wl.results
    deadline = now() + cfg["seconds"]
    i = 0
    while cfg["seconds"] > 0 and (now() < deadline or not jobs):
        # a traced run alternates traced and untraced jobs
        on = traced and i % 2 == 0
        if traced:
            TRACER.install() if on else TRACER.remove()
        job = wl.job(i)
        job["traced"] = on
        jobs.append(job)
        i += 1
    TRACER.remove()
    result["jobs"] = jobs
    result["table_mb"] = getattr(wl, "table_mb", None)
    if traced and jobs:
        with_t = [j["job_s"] for j in jobs if j["traced"]]
        without = [j["job_s"] for j in jobs if not j["traced"]]
        layers = {"trace.overhead_s": median(with_t) - median(without or with_t)}
        first = spans_named(TRACER, "planner.build_plan")[0]
        layers["planner.cold_s"] = first[2] - first[1]
        layers["planner.table_mb"] = result["table_mb"]
        gen_v = [s[2] - s[1] for s in spans_named(TRACER, "planner.gen_v")]
        layers["planner.gen_v_us"] = median(gen_v) * 1e6
        layers.update(wl.layers())
        layers.update(constant_time_layers(cfg["seed"]))
        result["layers"] = layers
        result["spans"] = TRACER.as_dicts()
    Path(result_path).write_text(json.dumps(result))
    return 0


def server(corpus_dir: str, corpus_name: str, workers: str) -> int:
    from threepc import hashers, protocol

    srv = protocol.CrackServer("127.0.0.1", 0, corpus_dir, int(workers))
    srv.corpus(corpus_name)
    hashers.measure_rate("crc32", srv.rate_budget)
    # SIGTERM keeps its default action.  threepc-server's handler, which
    # raises SystemExit, is inherited by the forked engine workers, and the
    # pool's terminate() then left a blocked worker alive and the job hung.
    print(f"ready {srv.address[1]}", flush=True)
    srv.serve_forever()
    return 0


if __name__ == "__main__":
    role, *rest = sys.argv[1:]
    sys.exit(client(*rest) if role == "client" else server(*rest))
