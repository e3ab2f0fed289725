#!/usr/bin/env python3
"""Membership-cost benchmark: evaluation time must not depend on how many
digests the vector describes.

Compares predicate cost for decoy sets of size 16^2 and 16^26 (a factor
of about 7.9 x 10^28) on the same digest length: per digest for the pure
nibble evaluator, and per row for the engine's compiled block filter
(``compile_filter``, the one form a job runs) over a random digest
matrix.  Asserts the spread stays under 10%.
"""

import random
import sys
import time

import numpy as np

sys.path.insert(0, "src")

from threepc.engine import compile_filter
from threepc.hashers import raw_digest
from threepc.predicate import Digest, eval_predicate, from_hit_mask

ROUNDS = 200_000
# rows per filter call, and calls per timing (the fastest one counts)
MATRIX_ROWS = 1 << 18
MATRIX_REPEATS = 15


def bench(fn, args_iter) -> float:
    start = time.perf_counter()
    for args in args_iter:
        fn(args)
    return time.perf_counter() - start


def main() -> int:
    rng = random.Random(1)
    target = Digest(tuple(rng.randint(0, 15) for _ in range(64)), "sha256")
    vectors = {
        "16^2  decoys": from_hit_mask(target, "7fffffff"),
        "16^26 decoys": from_hit_mask(target, "ffffe000"),
    }
    member_raw = raw_digest("sha256", b"member-sample")
    # members exercise the full check; random digests the early-reject path
    members = {
        name: Digest(tuple(
            t if lo == hi else m
            for (lo, hi), t, m in zip(v.bounds, target.nibbles,
                                      Digest.from_bytes(member_raw).nibbles)
        ))
        for name, v in vectors.items()
    }
    randoms = np.random.default_rng(1).integers(
        0, 256, (MATRIX_ROWS, 32), dtype=np.uint8)

    print(f"{ROUNDS:,} evaluations per member cell, the fastest of "
          f"{MATRIX_REPEATS} filter calls over {MATRIX_ROWS:,} rows per "
          f"random cell\n")
    failures = 0
    for label in ("member digests", "random digests"):
        costs = {}
        for name, v in vectors.items():
            if label == "member digests":
                digest = members[name]
                elapsed = bench(lambda d, v=v: eval_predicate(v, d),
                                (digest for _ in range(ROUNDS)))
                costs[name] = elapsed / ROUNDS * 1e9
            else:
                keep = compile_filter(v)
                costs[name] = min(bench(keep, (randoms,))
                                  for _ in range(MATRIX_REPEATS)
                                  ) / MATRIX_ROWS * 1e9
            print(f"  {label:15s} {name}: {costs[name]:8.1f} ns/digest")
        spread = abs(costs["16^2  decoys"] - costs["16^26 decoys"]) / max(
            costs.values())
        verdict = "OK" if spread < 0.10 else "FAIL"
        failures += verdict == "FAIL"
        print(f"  -> spread {spread:.1%} {verdict}\n")

    worker_scaling()
    return 1 if failures else 0


def worker_scaling() -> None:
    # soft probe, no assertion: scaling depends on host core count
    import os

    from threepc import keyspace
    from threepc.engine import ListSink, crack_parallel
    from threepc.predicate import parse_vector

    spec = keyspace.make_keyspace("mask:" + "?d" * 6)
    v = parse_vector("0f" * 62 + "0011")
    print("engine worker scaling (10^6 SHA-256):")
    base = None
    for workers in (1, 2, os.cpu_count() or 1):
        rep = crack_parallel(v, spec, "sha256", ListSink(), n_workers=workers)
        base = base or rep.rate
        print(f"  {workers} worker(s): {rep.rate:12,.0f} H/s "
              f"({rep.rate / base:.2f}x)")


if __name__ == "__main__":
    sys.exit(main())
