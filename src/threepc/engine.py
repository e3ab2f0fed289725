"""Server-side cracking loop: hash the keyspace, filter through the
predicate, stream the survivors to a sink.

One batch is the unit of work.  ``crack_parallel`` cuts the keyspace into
max(n_workers, ceil(|DS| / keyspace._BLOCK_CAP)) contiguous index ranges
whose sizes differ by at most one, made as they are used (``_ranges``).
Each range is one candidate list, one call of the algorithm's block
kernel (``hashers.block_fn``) and one ``sink.write_batch`` of its hits, so
a kernel's working memory and the hits held in the serial path stay
within one batch.  The kernel only hashes: it returns the batch's digest
matrix, one row per hashed candidate, and the block indices of its rows
when it skipped some (NTLM skips candidates that are not UTF-8).
``_scan_range`` alone applies the predicate filter, once per batch as
numpy table lookups, and pairs each kept row with its password.

The predicate is compiled to per-byte lookup tables (``_byte_tables``),
ordered most restrictive first.  ``compile_filter`` looks the first one
up over a whole digest column and each further one over the survivors
only, so the cost per candidate is about one column gather regardless of
decoy-set size.  ``compile_checker`` probes the same tables for a single
digest.

With several workers the ranges are scanned in a forked pool; each pool
receives its job through its worker initializer, so concurrent jobs in
one process stay apart.

The sink receives pairs in keyspace enumeration order at any worker
count: kernels return rows in block order and ranges are consumed in
index order, so a sink can stream its output byte-reproducibly.
"""

from __future__ import annotations

import multiprocessing
import signal
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Protocol

import numpy as np

from . import hashers, keyspace
from .predicate import PredicateVector

PROGRESS_EVERY = 10_000_000


class Sink(Protocol):
    def write_batch(self, pairs: list[tuple[bytes, bytes]]) -> None: ...


@dataclass
class CrackReport:
    hashed_count: int
    hit_count: int
    elapsed: float
    rate: float
    skipped_count: int = 0
    partial: bool = False


class EngineAbortError(RuntimeError):
    """Cracking aborted; carries the partial (still sound) report."""

    def __init__(self, message: str, report: CrackReport):
        super().__init__(message)
        self.report = report


# high and low nibble of each byte value
_HI = np.arange(256) >> 4
_LO = np.arange(256) & 0xF


def _byte_tables(v: PredicateVector) -> list[tuple[int, np.ndarray]]:
    """(digest byte index, 256-entry bool table) for every byte the vector
    restricts, most restrictive first; fully free bytes are left out."""
    if len(v) % 2 != 0:
        raise ValueError("vector length must cover whole digest bytes")
    # per byte: high nibble lo, hi, then low nibble lo, hi
    b = np.array(v.bounds).reshape(-1, 4, 1)
    tables = ((b[:, 0] <= _HI) & (_HI <= b[:, 1])
              & (b[:, 2] <= _LO) & (_LO <= b[:, 3]))
    counts = tables.sum(axis=1)
    return [(k, tables[k]) for k in np.argsort(counts, kind="stable").tolist()
            if counts[k] < 256]


def compile_checker(v: PredicateVector) -> Callable[[bytes], bool]:
    """Byte-table membership test over one raw digest, equivalent to
    eval_predicate on the nibble form.

    Fully-free bytes are skipped and pinned bytes are probed most
    restrictive first, which keeps the average cost near one probe and
    independent of cardinality.
    """
    checks = tuple((k, tbl.tobytes()) for k, tbl in _byte_tables(v))

    if not checks:
        return lambda digest: True

    k0, t0 = checks[0]
    rest = checks[1:]

    if not rest:
        return lambda digest: t0[digest[k0]] == 1

    def check(digest: bytes) -> bool:
        if not t0[digest[k0]]:
            return False
        for k, tbl in rest:
            if not tbl[digest[k]]:
                return False
        return True

    return check


def compile_filter(v: PredicateVector
                   ) -> Callable[[np.ndarray], np.ndarray]:
    """The predicate over a block: ``keep(m)`` takes an (n, digest bytes)
    uint8 matrix and returns the ascending indices of the rows that
    satisfy v.

    The most restrictive byte column is looked up over every row, each
    further table over the survivors only, so a row costs about one
    column gather whatever the cardinality.
    """
    tables = _byte_tables(v)
    if not tables:
        return lambda m: np.arange(len(m))
    (k0, t0), rest = tables[0], tables[1:]

    def keep(m: np.ndarray) -> np.ndarray:
        rows = np.flatnonzero(t0.take(m[:, k0]))
        for k, tbl in rest:
            if not len(rows):
                break
            rows = rows[tbl.take(m[rows, k])]
        return rows

    return keep


def _ranges(total: int, n_workers: int) -> Iterator[tuple[int, int]]:
    """[0, total) in max(n_workers, ceil(total / keyspace._BLOCK_CAP))
    contiguous ranges, made as they are used; sizes differ by at most one
    and never exceed the cap.  Empty ranges (total < n_workers) are left
    out."""
    n = max(n_workers, -(-total // keyspace._BLOCK_CAP))
    for k in range(n):
        start, stop = k * total // n, (k + 1) * total // n
        if start < stop:
            yield start, stop


def _scan_range(v: PredicateVector, spec: keyspace.KeyspaceSpec,
                algo_id: str, start: int, stop: int
                ) -> tuple[int, int, list[tuple[bytes, bytes]]]:
    """Hash candidates [start, stop) in one kernel call and filter the
    digest matrix once; return (hashed, skipped, hits in block order)."""
    batch: list[bytes] = []
    for prefix, suffixes, lo, hi in keyspace.iter_blocks(spec, start, stop):
        part = suffixes[lo:hi]
        batch += [prefix + s for s in part] if prefix else part
    m, hashed = hashers.block_fn(algo_id)(batch)
    rows = compile_filter(v)(m)
    digests = m[rows].view(f"V{m.shape[1]}").ravel().tolist()
    if hashed is not None:
        rows = hashed[rows]
    hits = [(batch[i], d) for i, d in zip(rows.tolist(), digests)]
    return stop - start, len(batch) - len(m), hits


# the job of this pool worker process, set once by _init_worker
_WORKER_JOB: tuple | None = None


def _init_worker(v: PredicateVector, spec: keyspace.KeyspaceSpec,
                 algo_id: str) -> None:
    global _WORKER_JOB
    # A SIGTERM handler inherited from the parent (threepc-server raises
    # SystemExit from one) can leave a worker blocked in a lock wait alive
    # through Pool.terminate(), and the job then never finishes.  The
    # parent forks with SIGTERM blocked, so one sent before this point
    # waits for the default action.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
    _WORKER_JOB = (v, spec, algo_id)


def _range_worker(rng: tuple[int, int]):
    v, spec, algo_id = _WORKER_JOB
    return _scan_range(v, spec, algo_id, rng[0], rng[1])


def crack(v: PredicateVector, spec: keyspace.KeyspaceSpec, algo_id: str,
          sink: Sink,
          progress: Callable[[int, float, float], None] | None = None
          ) -> CrackReport:
    """Hash every candidate exactly once; sink receives exactly the pairs
    whose digest satisfies the predicate."""
    return crack_parallel(v, spec, algo_id, sink, n_workers=1,
                          progress=progress)


def crack_parallel(v: PredicateVector, spec: keyspace.KeyspaceSpec,
                   algo_id: str, sink: Sink, n_workers: int = 1,
                   progress: Callable[[int, float, float], None] | None = None
                   ) -> CrackReport:
    """Same pair sequence as crack(): enumeration order, whatever
    n_workers is.

    progress, when given, is called at most every 10^7 hashes with
    (hashed so far, hashes/second, estimated seconds remaining).
    """
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    desc = hashers.descriptor(algo_id)
    if len(v) != desc.digest_nibbles:
        raise ValueError(
            f"vector length {len(v)} != {algo_id} digest length "
            f"{desc.digest_nibbles}"
        )
    total = keyspace.spec_cardinality(spec)
    ranges = _ranges(total, n_workers)
    start_time = time.perf_counter()
    hashed = skipped = hits = 0
    last_progress = 0

    def consume(result: tuple[int, int, list[tuple[bytes, bytes]]]) -> None:
        nonlocal hashed, skipped, hits, last_progress
        range_hashed, range_skipped, pairs = result
        hashed += range_hashed
        skipped += range_skipped
        sink.write_batch(pairs)
        hits += len(pairs)
        if progress and hashed - last_progress >= PROGRESS_EVERY:
            last_progress = hashed
            elapsed = time.perf_counter() - start_time
            rate = hashed / max(elapsed, 1e-9)
            progress(hashed, rate, (total - hashed) / rate)

    def report(partial: bool = False) -> CrackReport:
        elapsed = time.perf_counter() - start_time
        return CrackReport(hashed, hits, elapsed,
                           hashed / max(elapsed, 1e-9), skipped, partial)

    try:
        if n_workers == 1 or total < 2:
            for a, b in ranges:
                consume(_scan_range(v, spec, algo_id, a, b))
        else:
            # fork hands the initializer's arguments to each worker
            # without pickling them; SIGTERM stays blocked from the fork
            # until _init_worker has reset its handler
            ctx = multiprocessing.get_context("fork")
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
            try:
                pool = ctx.Pool(n_workers, initializer=_init_worker,
                                initargs=(v, spec, algo_id))
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            with pool:
                for result in pool.imap(_range_worker, ranges):
                    consume(result)
    except (Exception, KeyboardInterrupt) as exc:
        raise EngineAbortError(f"cracking aborted: {exc}", report(partial=True)
                               ) from exc
    return report()


class ListSink:
    """Collects pairs in memory (tests, small runs)."""

    def __init__(self):
        self.pairs: list[tuple[bytes, bytes]] = []

    def write_batch(self, pairs: list[tuple[bytes, bytes]]) -> None:
        self.pairs.extend(pairs)
