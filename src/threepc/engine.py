"""Server-side cracking loop: hash the keyspace, filter through the
predicate, stream the survivors to a sink.

One batch is the unit of work.  ``crack_parallel`` cuts the keyspace into
max(n_workers, ceil(|DS| / keyspace._BLOCK_CAP)) contiguous index ranges
whose sizes differ by at most one, made as they are used (``_ranges``).
Each range is one candidate list, one call of the algorithm's block
kernel (``hashers.block_fn``) and one ``sink.write_hits`` of its hits, so
a kernel's working memory stays within one batch and the hits held
within a batch per worker.  The kernel only hashes: it returns the
batch's digest matrix, one row per hashed candidate, and the block
indices of its rows when it skipped some (NTLM skips non-UTF-8 ones).
``_scan_range`` alone applies the predicate filter, once per batch as
numpy table lookups, and returns the kept rows as one ``potfile.Hits``:
their digest matrix, and their passwords joined in row order.  No
per-hit tuple is made; the batch crosses the worker pipes as three
buffers.

The predicate is compiled to per-byte lookup tables (``_byte_tables``),
ordered most restrictive first.  ``compile_filter`` looks the first one
up over a whole digest column and each further one over the survivors
only, so the cost per candidate is about one column gather regardless of
decoy-set size.  ``compile_checker`` probes the same tables for a single
digest.

With n workers, forked worker k takes the job as arguments, scans ranges
k, k + n, ... and sends each result down its own pipe, read in range
order, so a worker blocks once it is one result ahead of the sink.  Jobs
in concurrent threads fork one at a time (``_FORK_LOCK``), so no worker
holds another job's write end.

The sink receives rows in keyspace enumeration order at any worker
count: kernels return rows in block order and ranges are consumed in
index order, so a sink can stream its output byte-reproducibly.
"""

from __future__ import annotations

import itertools
import multiprocessing
import signal
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Protocol

import numpy as np

from . import hashers, keyspace
from .potfile import Hits
from .predicate import PredicateVector

PROGRESS_EVERY = 10_000_000
# Held by a job from its first Pipe() to its last send_end.close().  A job
# that forked inside another's window would hand its workers a copy of that
# job's write end, and a worker death there would be seen only once those
# workers exit.
_FORK_LOCK = threading.Lock()


class Sink(Protocol):
    def write_hits(self, hits: Hits) -> None: ...


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
                ) -> tuple[int, int, Hits]:
    """Hash candidates [start, stop) in one kernel call and filter the
    digest matrix once; return (hashed, skipped, hits in block order)."""
    batch: list[bytes] = []
    for prefix, suffixes, lo, hi in keyspace.iter_blocks(spec, start, stop):
        part = suffixes[lo:hi]
        batch += [prefix + s for s in part] if prefix else part
    m, hashed = hashers.block_fn(algo_id)(batch)
    rows = compile_filter(v)(m)
    digests = m[rows]
    if hashed is not None:
        rows = hashed[rows]
    hits = Hits.from_rows(digests, [batch[i] for i in rows.tolist()])
    return stop - start, len(batch) - len(m), hits


def _worker(conn, v: PredicateVector, spec: keyspace.KeyspaceSpec,
            algo_id: str, k: int, n_workers: int) -> None:
    """Send each result of ranges k, k + n_workers, ... down conn, in order."""
    # An inherited SIGTERM handler (threepc-server raises SystemExit from
    # one) can keep a worker blocked in a lock wait alive through the
    # SIGTERM of multiprocessing's exit handler.  The parent forks with
    # SIGTERM blocked, so one sent before this point gets the default.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
    mine = itertools.islice(_ranges(keyspace.spec_cardinality(spec),
                                    n_workers), k, None, n_workers)
    try:
        for a, b in mine:
            conn.send(_scan_range(v, spec, algo_id, a, b))
    except Exception as exc:
        conn.send(exc)


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

    def report(partial: bool = False) -> CrackReport:
        elapsed = time.perf_counter() - start_time
        return CrackReport(hashed, hits, elapsed,
                           hashed / max(elapsed, 1e-9), skipped, partial)

    workers = []  # (pipe read end, process) of each forked worker
    try:
        if n_workers > 1 and total > 1:
            # fork hands each worker its job without pickling it; SIGTERM
            # stays blocked from the fork until _worker has reset its handler
            ctx = multiprocessing.get_context("fork")
            with _FORK_LOCK:
                mask = signal.pthread_sigmask(signal.SIG_BLOCK,
                                              {signal.SIGTERM})
                try:
                    for k in range(n_workers):
                        conn, send_end = ctx.Pipe(duplex=False)
                        proc = ctx.Process(target=_worker, daemon=True, args=(
                            send_end, v, spec, algo_id, k, n_workers))
                        proc.start()
                        workers.append((conn, proc))
                        send_end.close()  # conn reads EOF once proc is gone
                finally:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for k, (a, b) in enumerate(ranges):
            if not workers:
                result = _scan_range(v, spec, algo_id, a, b)
            else:
                conn, proc = workers[k % n_workers]
                try:
                    result = conn.recv()
                except EOFError:
                    proc.join()
                    raise RuntimeError(f"worker {k % n_workers} died with "
                                       f"exit code {proc.exitcode}")
                if isinstance(result, Exception):
                    raise result
            range_hashed, range_skipped, range_hits = result
            hashed += range_hashed
            skipped += range_skipped
            sink.write_hits(range_hits)
            hits += len(range_hits)
            if progress and hashed - last_progress >= PROGRESS_EVERY:
                last_progress = hashed
                elapsed = time.perf_counter() - start_time
                rate = hashed / max(elapsed, 1e-9)
                progress(hashed, rate, (total - hashed) / rate)
    except (Exception, KeyboardInterrupt) as exc:
        raise EngineAbortError(f"cracking aborted: {exc}", report(partial=True)
                               ) from exc
    finally:
        for conn, proc in workers:
            proc.kill()
            proc.join()
            conn.close()
    return report()


class ListSink:
    """Collects (password, raw digest) pairs in memory (tests, small
    runs)."""

    def __init__(self):
        self.pairs: list[tuple[bytes, bytes]] = []

    def write_hits(self, hits: Hits) -> None:
        self.pairs.extend(hits.pairs())
