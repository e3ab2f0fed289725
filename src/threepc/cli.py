"""Command-line front ends: `threepc-client` and `threepc-server`.

Exit codes (disjoint, exhaustive):

    0  success; for `verify`: target cracked and no foul play suspected
    1  generic failure (bind failure; aborted run, partial potfile kept)
    2  parse or configuration error (flags, plan/potfile files, corpus
       file; a plan inconsistent with itself; an unwritable potfile)
    3  verify: target not cracked, but the server looks honest
    4  verify: foul play suspected (deviation or spot-check failure)
    5  connection error (refused, lost mid-job; partial potfile kept)
    6  protocol error (server error reply, malformed traffic or
       candidate chunks)
    7  plan refused: a vector already exists for this target
    8  planning infeasible within tolerance (widen-tolerance error)
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


def _corpus_dir(args) -> str | None:
    return args.corpus_dir or os.environ.get(ENV_CORPUS_DIR)


def _resolve_spec(args, descriptor: str) -> keyspace.KeyspaceSpec:
    if getattr(args, "corpus_file", None):
        words, _ = keyspace.load_wordlist(args.corpus_file)
        return keyspace.make_keyspace(descriptor, words=words)
    corpus_dir = _corpus_dir(args)
    provider = keyspace.DirectoryCorpus(corpus_dir) if corpus_dir else None
    return keyspace.make_keyspace(descriptor, provider)


def _below_minimum(args, **minimums: int) -> bool:
    """Report the first flag whose value is below its minimum."""
    for name, least in minimums.items():
        value = getattr(args, name)
        if value < least:
            flag = "--" + name.replace("_", "-")
            print(f"error: {flag} must be at least {least}, got {value}",
                  file=sys.stderr)
            return True
    return False


def _pick_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return random.SystemRandom().getrandbits(64)


def cmd_plan(args) -> int:
    try:
        target = hashers.parse_digest_hex(args.algo, args.target)
        spec = _resolve_spec(args, args.keyspace)
        size = keyspace.spec_cardinality(spec)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    seed = _pick_seed(args)
    store = PlanStore(args.plan_store)
    try:
        plan = planner.build_plan(target, args.algo, args.keyspace, size,
                                  args.r, args.tolerance, seed)
        path = store.save(plan)
    except WidenToleranceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_SMOOTH
    except DuplicatePlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PLAN_EXISTS
    sys.stdout.write(plan.to_text())
    print(f"plan written to {path}")
    return EXIT_OK


def cmd_genv(args) -> int:
    try:
        target = hashers.parse_digest_hex(args.algo, args.target)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    seed = _pick_seed(args)
    store = PlanStore(args.plan_store)
    try:
        plan = planner.plan_for_nv(
            target, args.algo, args.keyspace or "none", keyspace_size=0,
            r=0.0, nv_target=args.nv, tolerance=args.tolerance, seed=seed)
        path = store.save(plan)
    except WidenToleranceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_SMOOTH
    except DuplicatePlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PLAN_EXISTS
    sys.stdout.write(plan.to_text())
    print(f"plan written to {path}")
    return EXIT_OK


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
    if _below_minimum(args, workers=1):
        return EXIT_PARSE
    try:
        plan = planner.Plan.from_text(Path(args.plan).read_text())
        vector = parse_vector(plan.vector_hex)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    out = Path(args.out)
    report_path = out.with_name(out.name + ".report")

    if args.offline:
        try:
            spec = _resolve_spec(args, plan.keyspace_descriptor)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE

        def progress(hashed: int, rate: float, eta: float) -> None:
            print(f"progress: {hashed:,} hashed, {rate:,.0f} H/s, "
                  f"ETA {eta:.0f}s", file=sys.stderr)

        try:
            sink = potfile.PotfileWriter(out)
        except OSError as exc:
            print(f"error: cannot write the potfile: {exc}", file=sys.stderr)
            return EXIT_PARSE
        try:
            with sink:
                report = engine.crack_parallel(
                    vector, spec, plan.algo_id, sink,
                    n_workers=args.workers, progress=progress)
        except engine.EngineAbortError as exc:
            print(f"error: {exc}", file=sys.stderr)
            _write_run_report(report_path, args.plan, exc.report, plan.seed)
            return EXIT_FAILURE
        _write_run_report(report_path, args.plan, report, plan.seed)
        return EXIT_OK

    if not args.server:
        print("error: need --server host:port or --offline", file=sys.stderr)
        return EXIT_PARSE
    try:
        endpoint = protocol.parse_endpoint(args.server)
        inline = (Path(args.corpus_file).read_bytes() if args.corpus_file
                  else b"")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        report = protocol.run_job(plan, endpoint, out, inline,
                                  timeout=args.timeout)
    except OSError as exc:  # run_job's OSErrors all come from the potfile
        print(f"error: cannot write the potfile: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except protocol.ConnectionLostError as exc:
        print(f"error: {exc}", file=sys.stderr)
        partial = exc.partial.report if exc.partial else engine.CrackReport(
            0, 0, 0.0, 0.0, partial=True)
        _write_run_report(report_path, args.plan, partial, plan.seed)
        return EXIT_CONNECTION
    except (protocol.ServerError, protocol.ProtocolViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    _write_run_report(report_path, args.plan, report, plan.seed)
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        plan = planner.Plan.from_text(Path(args.plan).read_text())
        vector = parse_vector(plan.vector_hex)
        target = hashers.parse_digest_hex(plan.algo_id, plan.target_hex)
        expected_r = (args.expected_r if args.expected_r is not None
                      else plan.expected_candidates)
        if expected_r <= 0:
            print("error: plan has no expected candidate count; "
                  "pass --expected-r", file=sys.stderr)
            return EXIT_PARSE
        seed = args.seed if args.seed is not None else plan.seed ^ 0x5F0F
        verdict = verifier.verify(
            args.potfile, target, vector, plan.algo_id, expected_r,
            z_threshold=args.z_threshold, spot_sample=args.spot_sample,
            rng=seed,
        )
    except (OSError, ValueError, potfile.PotfileParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
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

    def add_common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="seed for all randomized behavior (printed in reports)")
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
    add_common(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("genv", help="generate a vector for an explicit decoy count")
    p.add_argument("--algo", required=True, choices=hashers.known_algos())
    p.add_argument("--target", required=True)
    p.add_argument("--nv", type=float, required=True,
                   help="desired decoy-set size")
    p.add_argument("--keyspace", default=None)
    p.add_argument("--tolerance", type=float, default=planner.DEFAULT_TOLERANCE)
    p.add_argument("--plan-store", default="plans")
    add_common(p)
    p.set_defaults(func=cmd_genv)

    p = sub.add_parser("run", help="submit the planned job and collect candidates")
    p.add_argument("--plan", required=True)
    p.add_argument("--out", required=True, help="potfile output path")
    p.add_argument("--server", default=None, help="host:port")
    p.add_argument("--offline", action="store_true",
                   help="run the engine in-process instead of a server")
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    p.add_argument("--timeout", type=float, default=None)
    add_common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="check the candidate set and the server's effort")
    p.add_argument("--plan", required=True)
    p.add_argument("--potfile", required=True)
    p.add_argument("--z-threshold", type=float,
                   default=verifier.DEFAULT_Z_THRESHOLD)
    p.add_argument("--spot-sample", type=int,
                   default=verifier.DEFAULT_SPOT_SAMPLE)
    p.add_argument("--expected-r", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


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
    if _below_minimum(args, workers=1, rate_budget=hashers.MIN_RATE_BUDGET,
                      max_frame_mib=1):
        return EXIT_PARSE
    try:
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
