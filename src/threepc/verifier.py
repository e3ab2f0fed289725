"""Client-side result checking: target lookup, proof-of-work statistics,
and spot-check re-hashing.

Recorded digests are never trusted: a positive target verdict requires a
fresh hash of the recorded password to reproduce the target, and spot
checks re-hash a random sample and re-evaluate the predicate.  Both
re-hash their rows as one block through the engine's kernel
(``hashers.block_fn``) and compare raw digest matrices; the spot check
filters the fresh matrix with the engine's ``compile_filter``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import hashers, potfile, predicate
from .engine import compile_filter
from .predicate import Digest, LengthMismatchError, PredicateVector

DEFAULT_Z_THRESHOLD = 5.0
DEFAULT_SPOT_SAMPLE = 1000


@dataclass(frozen=True)
class TargetLookup:
    cracked: bool
    cleartexts: tuple[bytes, ...] = ()   # all passwords that re-hash to target
    forged_lines: tuple[int, ...] = ()   # target-digest lines failing re-hash

    @property
    def cleartext(self) -> bytes | None:
        return self.cleartexts[0] if self.cleartexts else None


@dataclass(frozen=True)
class PowResult:
    passed: bool
    z_score: float


@dataclass(frozen=True)
class SpotCheckResult:
    passed: bool
    sampled: int
    bad_lines: tuple[int, ...] = ()


@dataclass
class VerificationVerdict:
    cracked: bool
    cleartext: bytes | None
    hit_count: int
    expected_r: float
    z_score: float
    pow_pass: bool
    spotcheck_pass: bool
    sampled: int
    forged_lines: tuple[int, ...] = field(default=())

    @property
    def honest(self) -> bool:
        return self.pow_pass and self.spotcheck_pass and not self.forged_lines


def _digest_width(algo_id: str, *items: Digest | PredicateVector) -> int:
    """The algorithm's digest length in nibbles; every item must have it."""
    width = hashers.descriptor(algo_id).digest_nibbles
    for item in items:
        if len(item) != width:
            raise LengthMismatchError(
                f"{type(item).__name__} length {len(item)} != {algo_id} "
                f"digest length {width}")
    return width


def _rehash(index: potfile.PotfileIndex, rows: np.ndarray, algo_id: str
            ) -> tuple[np.ndarray, np.ndarray]:
    """Re-hash the passwords of the index rows as one block: the positions
    in rows whose fresh digest reproduces the recorded one, and those
    fresh digests.  A password the kernel skips fails."""
    fresh, hashed = hashers.block_fn(algo_id)(index.passwords(rows))
    at = np.arange(len(rows)) if hashed is None else hashed
    same = (fresh == index.digests[rows[at]]).all(axis=1)
    return at[same], fresh[same]


def chk_cs(potfile_path: str | Path | potfile.PotfileIndex, target: Digest,
           algo_id: str) -> TargetLookup:
    """Scan the candidate set for the target digest.

    Every recorded match is re-hashed; forged lines (right digest, wrong
    password) are flagged, and hash collisions on the target are all
    reported rather than hidden.
    """
    index = potfile.as_index(potfile_path, _digest_width(algo_id, target))
    # the rows whose digest is the target: the singleton vector's decoy set
    rows = compile_filter(predicate.singleton_vector(target))(index.digests)
    good, _ = _rehash(index, rows, algo_id)
    cleartexts = tuple(index.passwords(rows[good]))
    forged = np.delete(rows, good) + 1
    return TargetLookup(bool(cleartexts), cleartexts, tuple(forged.tolist()))


def proof_of_work(hit_count: int, expected_r: float,
                  z_threshold: float = DEFAULT_Z_THRESHOLD) -> PowResult:
    """Poisson-approximation deviation test on the returned hit count.

    Passes iff |hit_count - expected_r| <= z_threshold * sqrt(expected_r).
    """
    if expected_r <= 0:
        raise ValueError("expected_r must be positive")
    z = (hit_count - expected_r) / math.sqrt(expected_r)
    return PowResult(abs(z) <= z_threshold, z)


def spot_check(potfile_path: str | Path | potfile.PotfileIndex,
               v: PredicateVector, algo_id: str,
               sample_size: int = DEFAULT_SPOT_SAMPLE,
               rng: random.Random | int | None = None) -> SpotCheckResult:
    """Re-hash a uniform sample of candidate-set lines; every sampled pair
    must reproduce its digest and satisfy the predicate."""
    _check_sample_size(sample_size)
    index = potfile.as_index(potfile_path, _digest_width(algo_id, v))
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    k = min(sample_size, len(index))
    # the same draws as rng.sample(records, k), without building records
    rows = np.array(rng.sample(range(len(index)), k), np.int64)
    good, fresh = _rehash(index, rows, algo_id)
    bad = np.sort(np.delete(rows, good[compile_filter(v)(fresh)])) + 1
    return SpotCheckResult(not len(bad), k, tuple(bad.tolist()))


def _check_sample_size(sample_size: int) -> None:
    if sample_size < 1:
        raise ValueError("sample_size must be >= 1")


def verify(potfile_path: str | Path, target: Digest, v: PredicateVector,
           algo_id: str, expected_r: float,
           z_threshold: float = DEFAULT_Z_THRESHOLD,
           spot_sample: int = DEFAULT_SPOT_SAMPLE,
           rng: random.Random | int | None = None) -> VerificationVerdict:
    """Full CHK-CS: target lookup, proof of work, spot check, over one
    read of the potfile."""
    _check_sample_size(spot_sample)
    width = _digest_width(algo_id, target, v)
    index = potfile.PotfileIndex.read(potfile_path, width)
    hit_count = potfile.count_records(index, width)
    lookup = chk_cs(index, target, algo_id)
    pow_result = proof_of_work(hit_count, expected_r, z_threshold)
    spot = spot_check(index, v, algo_id, spot_sample, rng)
    return VerificationVerdict(
        cracked=lookup.cracked,
        cleartext=lookup.cleartext,
        hit_count=hit_count,
        expected_r=expected_r,
        z_score=pow_result.z_score,
        pow_pass=pow_result.passed,
        spotcheck_pass=spot.passed,
        sampled=spot.sampled,
        forged_lines=lookup.forged_lines,
    )


def render_verdict(verdict: VerificationVerdict) -> str:
    lines = [
        f"cracked = {'yes' if verdict.cracked else 'no'}",
    ]
    if verdict.cracked and verdict.cleartext is not None:
        lines.append(
            "cleartext = " + verdict.cleartext.decode("utf-8", "backslashreplace")
        )
    lines += [
        f"hit_count = {verdict.hit_count}",
        f"expected_r = {verdict.expected_r:.4f}",
        f"z_score = {verdict.z_score:.4f}",
        f"proof_of_work = {'pass' if verdict.pow_pass else 'FAIL'}",
        f"spot_check = {'pass' if verdict.spotcheck_pass else 'FAIL'} "
        f"({verdict.sampled} sampled)",
    ]
    if verdict.forged_lines:
        lines.append(f"forged_lines = {list(verdict.forged_lines)}")
    return "\n".join(lines) + "\n"
