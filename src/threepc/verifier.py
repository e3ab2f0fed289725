"""Client-side result checking: target lookup, proof-of-work statistics,
and spot-check re-hashing.

Recorded digests are never trusted: a positive target verdict requires a
fresh hash of the recorded password to reproduce the target, and spot
checks re-hash a random sample and re-evaluate the predicate.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from . import hashers, potfile
from .engine import compile_checker
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


def chk_cs(potfile_path: str | Path | potfile.PotfileIndex, target: Digest,
           algo_id: str) -> TargetLookup:
    """Scan the candidate set for the target digest.

    Every recorded match is re-hashed; forged lines (right digest, wrong
    password) are flagged, and hash collisions on the target are all
    reported rather than hidden.
    """
    width = hashers.descriptor(algo_id).digest_nibbles
    index = potfile.as_index(potfile_path, width)
    raw = hashers.raw_fn(algo_id)
    target_hex = target.hex
    cleartexts: list[bytes] = []
    forged: list[int] = []
    for row in index.rows_with_digest(target_hex):
        line_no, _, password = index.record(row)
        try:
            fresh = raw(password)
        except hashers.CandidateEncodingError:
            forged.append(line_no)
            continue
        if fresh.hex() == target_hex:
            cleartexts.append(password)
        else:
            forged.append(line_no)
    return TargetLookup(bool(cleartexts), tuple(cleartexts), tuple(forged))


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
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    width = hashers.descriptor(algo_id).digest_nibbles
    index = potfile.as_index(potfile_path, width)
    if not len(index):
        return SpotCheckResult(True, 0)
    if len(v) != width:
        raise LengthMismatchError(
            f"vector length {len(v)} != digest length {width}")
    raw = hashers.raw_fn(algo_id)
    check = compile_checker(v)
    k = min(sample_size, len(index))
    # the same draws as rng.sample(records, k), without building records
    sample = [index.record(i) for i in rng.sample(range(len(index)), k)]
    bad: list[int] = []
    for line_no, digest_hex, password in sample:
        try:
            fresh = raw(password)
        except hashers.CandidateEncodingError:
            bad.append(line_no)
            continue
        if fresh.hex() != digest_hex or not check(fresh):
            bad.append(line_no)
    bad.sort()
    return SpotCheckResult(not bad, k, tuple(bad))


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
    width = hashers.descriptor(algo_id).digest_nibbles
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
