"""Command-line front ends: `threepc-client` and `threepc-server`.

Exit codes (disjoint, exhaustive):

    0  success; for `verify`: target cracked and no foul play suspected
    1  generic failure (bind failure; aborted run, partial potfile kept)
    2  parse or configuration error (flags; r, tolerance or nv out of
       range; an empty keyspace; plan/potfile files, corpus file; a plan
       inconsistent with itself; an unwritable potfile; an inline corpus
       over 256 MiB; a flag that the chosen transport does not read)
    3  verify: target not cracked, but the server looks honest
    4  verify: foul play suspected (deviation or spot-check failure)
    5  connection error (refused, lost mid-job; partial potfile kept)
    6  protocol error (server error reply, malformed traffic or
       candidate chunks)
    7  plan refused: a vector already exists for this target
    8  planning infeasible within tolerance (widen-tolerance error)

A client command raises on failure; _EXIT_CODES maps the exception to
its code, and client_main prints it as one `error:` line.
"""

from __future__ import annotations

import argparse
import os
import random
import signal
import sys
from pathlib import Path

from . import engine, hashers, keyspace, planner, potfile, protocol, verifier
from .planner import DuplicatePlanError, PlanStore, WidenToleranceError
from .predicate import parse_vector

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARSE = 2
EXIT_NOT_CRACKED = 3
EXIT_FOUL_PLAY = 4
EXIT_CONNECTION = 5
EXIT_PROTOCOL = 6
EXIT_PLAN_EXISTS = 7
EXIT_NO_SMOOTH = 8

ENV_CORPUS_DIR = "THREEPC_CORPUS_DIR"


# Which failure gives which client exit code; the first matching row wins.
# An exception outside the table propagates.
_EXIT_CODES = (
    (WidenToleranceError, EXIT_NO_SMOOTH),
    (DuplicatePlanError, EXIT_PLAN_EXISTS),
    (engine.EngineAbortError, EXIT_FAILURE),
    (protocol.ConnectionLostError, EXIT_CONNECTION),
    ((protocol.ServerError, protocol.ProtocolViolation), EXIT_PROTOCOL),
    ((OSError, ValueError, KeyError), EXIT_PARSE),
)

# The `run` flags that each transport does not read.
_UNREAD_BY = {"server": ("workers", "corpus_dir"), "offline": ("timeout",)}


def _resolve_spec(args, descriptor: str) -> keyspace.KeyspaceSpec:
    if args.corpus_file:
        words, _ = keyspace.load_wordlist(args.corpus_file)
        return keyspace.make_keyspace(descriptor, words=words)
    corpus_dir = args.corpus_dir or os.environ.get(ENV_CORPUS_DIR)
    provider = keyspace.DirectoryCorpus(corpus_dir) if corpus_dir else None
    return keyspace.make_keyspace(descriptor, provider)


def _below_minimum(args, **minimums: int) -> None:
    """Refuse the first flag whose value is below its minimum."""
    for name, least in minimums.items():
        value = getattr(args, name)
        if value < least:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{flag} must be at least {least}, got {value}")


def _pick_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return random.SystemRandom().getrandbits(64)


def _save_plan(args, plan: planner.Plan) -> int:
    path = PlanStore(args.plan_store).save(plan)
    sys.stdout.write(plan.to_text())
    print(f"plan written to {path}")
    return EXIT_OK


def cmd_plan(args) -> int:
    target = hashers.parse_digest_hex(args.algo, args.target)
    size = keyspace.spec_cardinality(_resolve_spec(args, args.keyspace))
    return _save_plan(args, planner.build_plan(
        target, args.algo, args.keyspace, size, args.r, args.tolerance,
        _pick_seed(args)))


def cmd_genv(args) -> int:
    target = hashers.parse_digest_hex(args.algo, args.target)
    return _save_plan(args, planner.plan_for_nv(
        target, args.algo, args.keyspace or "none", keyspace_size=0,
        r=0.0, nv_target=args.nv, tolerance=args.tolerance,
        seed=_pick_seed(args)))


def _write_run_report(out: Path, plan_path: str, report: engine.CrackReport,
                      seed: int | None) -> None:
    text = (
        "# threepc run report\n"
        f"plan = {plan_path}\n"
        f"hashed_count = {report.hashed_count}\n"
        f"hit_count = {report.hit_count}\n"
        f"skipped_count = {report.skipped_count}\n"
        f"elapsed = {report.elapsed:.3f}\n"
        f"rate = {report.rate:.0f}\n"
        f"partial = {'true' if report.partial else 'false'}\n"
    )
    if seed is not None:
        text += f"seed = {seed}\n"
    out.write_text(text)
    sys.stdout.write(text)


def cmd_run(args) -> int:
    if not (args.offline or args.server):
        raise ValueError("need --server host:port or --offline")
    transport = "offline" if args.offline else "server"
    for name in _UNREAD_BY[transport]:
        if getattr(args, name) is not None:
            raise ValueError(f"--{name.replace('_', '-')} is not read by "
                             f"--{transport} runs")
    if args.workers is not None:
        _below_minimum(args, workers=1)
    plan = planner.Plan.from_text(Path(args.plan).read_text())
    vector = parse_vector(plan.vector_hex)
    out = Path(args.out)

    if args.offline:
        spec = _resolve_spec(args, plan.keyspace_descriptor)

        def progress(hashed: int, rate: float, eta: float) -> None:
            print(f"progress: {hashed:,} hashed, {rate:,.0f} H/s, "
                  f"ETA {eta:.0f}s", file=sys.stderr)

        def job() -> engine.CrackReport:
            with potfile.PotfileWriter(out) as sink:
                return engine.crack_parallel(
                    vector, spec, plan.algo_id, sink,
                    n_workers=args.workers or os.cpu_count() or 1,
                    progress=progress)
    else:
        endpoint = protocol.parse_endpoint(args.server)
        inline = (Path(args.corpus_file).read_bytes() if args.corpus_file
                  else b"")

        def job() -> engine.CrackReport:
            return protocol.run_job(plan, endpoint, out, inline,
                                    timeout=args.timeout)

    report_path = out.with_name(out.name + ".report")
    try:
        report = job()
    except (engine.EngineAbortError, protocol.ConnectionLostError) as exc:
        _write_run_report(report_path, args.plan, exc.report, plan.seed)
        raise
    except OSError as exc:  # past the engine and run_job, only the potfile
        raise OSError(f"cannot write the potfile: {exc}") from exc
    _write_run_report(report_path, args.plan, report, plan.seed)
    return EXIT_OK


def cmd_verify(args) -> int:
    plan = planner.Plan.from_text(Path(args.plan).read_text())
    vector = parse_vector(plan.vector_hex)
    target = hashers.parse_digest_hex(plan.algo_id, plan.target_hex)
    expected_r = args.expected_r
    if expected_r is None:
        expected_r = plan.expected_candidates
        if expected_r <= 0:
            raise ValueError("plan has no expected candidate count; "
                             "pass --expected-r")
    seed = args.seed if args.seed is not None else plan.seed ^ 0x5F0F
    verdict = verifier.verify(
        args.potfile, target, vector, plan.algo_id, expected_r,
        z_threshold=args.z_threshold, spot_sample=args.spot_sample, rng=seed,
    )
    sys.stdout.write(verifier.render_verdict(verdict))
    print(f"seed = {seed}")
    if not verdict.honest:
        return EXIT_FOUL_PLAY
    return EXIT_OK if verdict.cracked else EXIT_NOT_CRACKED


def client_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="threepc-client",
        description="Plan, run, and verify privacy-preserving crack jobs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=None,
                       help="seed for all randomized behavior (printed in reports)")

    def add_corpus(p):
        p.add_argument("--corpus-dir", default=None,
                       help=f"corpus directory (default ${ENV_CORPUS_DIR})")
        p.add_argument("--corpus-file", default=None,
                       help="use this local wordlist file as the corpus")

    p = sub.add_parser("plan", help="compute parameters and generate the vector")
    p.add_argument("--algo", required=True, choices=hashers.known_algos())
    p.add_argument("--target", required=True, help="target digest hex")
    p.add_argument("--keyspace", required=True, help="keyspace descriptor")
    p.add_argument("--r", type=float, required=True,
                   help="expected number of candidate passwords")
    p.add_argument("--tolerance", type=float, default=planner.DEFAULT_TOLERANCE)
    p.add_argument("--plan-store", default="plans")
    add_seed(p)
    add_corpus(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("genv", help="generate a vector for an explicit decoy count")
    p.add_argument("--algo", required=True, choices=hashers.known_algos())
    p.add_argument("--target", required=True)
    p.add_argument("--nv", type=float, required=True,
                   help="desired decoy-set size")
    p.add_argument("--keyspace", default=None)
    p.add_argument("--tolerance", type=float, default=planner.DEFAULT_TOLERANCE)
    p.add_argument("--plan-store", default="plans")
    add_seed(p)
    p.set_defaults(func=cmd_genv)

    p = sub.add_parser("run", help="submit the planned job and collect candidates")
    p.add_argument("--plan", required=True)
    p.add_argument("--out", required=True, help="potfile output path")
    transport = p.add_mutually_exclusive_group()
    transport.add_argument("--server", default=None, help="host:port")
    transport.add_argument("--offline", action="store_true",
                           help="run the engine in-process instead of a server")
    p.add_argument("--workers", type=int, default=None,
                   help="engine worker processes, --offline only "
                        "(default: CPU count)")
    p.add_argument("--timeout", type=float, default=None,
                   help="socket timeout in seconds, --server only")
    add_corpus(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="check the candidate set and the server's effort")
    p.add_argument("--plan", required=True)
    p.add_argument("--potfile", required=True)
    p.add_argument("--z-threshold", type=float,
                   default=verifier.DEFAULT_Z_THRESHOLD)
    p.add_argument("--spot-sample", type=int,
                   default=verifier.DEFAULT_SPOT_SAMPLE)
    p.add_argument("--expected-r", type=float, default=None)
    add_seed(p)
    p.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        for types, code in _EXIT_CODES:
            if isinstance(exc, types):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise


def server_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="threepc-server",
        description="Serve crack jobs over the framed TCP protocol.",
    )
    parser.add_argument("--listen", default=f"127.0.0.1:{protocol.DEFAULT_PORT}",
                        help="host:port to bind")
    parser.add_argument("--corpus-dir", default=None)
    parser.add_argument("--workers", type=int, default=1,
                        help="engine worker processes per job")
    parser.add_argument("--rate-budget", type=int,
                        default=hashers.MIN_RATE_BUDGET,
                        help="hashes per rate measurement")
    parser.add_argument("--max-frame-mib", type=int, default=64)
    args = parser.parse_args(argv)
    try:
        _below_minimum(args, workers=1, rate_budget=hashers.MIN_RATE_BUDGET,
                       max_frame_mib=1)
        endpoint = protocol.parse_endpoint(args.listen)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    corpus_dir = args.corpus_dir or os.environ.get(ENV_CORPUS_DIR)
    try:
        server = protocol.CrackServer(
            endpoint[0], endpoint[1], corpus_dir, args.workers,
            args.rate_budget, args.max_frame_mib * 1024 * 1024)
    except OSError as exc:
        print(f"error: cannot bind {args.listen}: {exc}", file=sys.stderr)
        return EXIT_FAILURE

    def _terminate(signum, frame):
        raise SystemExit(EXIT_OK)

    signal.signal(signal.SIGTERM, _terminate)
    host, port = server.address
    print(f"threepc-server listening on {host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    return EXIT_OK


def main(argv=None) -> int:
    """`python -m threepc.cli {client,server} ...` dispatcher."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in ("client", "server"):
        print("usage: threepc {client,server} ...", file=sys.stderr)
        return EXIT_PARSE
    if argv[0] == "client":
        return client_main(argv[1:])
    return server_main(argv[1:])


if __name__ == "__main__":
    sys.exit(main())
