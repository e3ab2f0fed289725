"""Client-side parameter calculus.

Given a keyspace size and a desired candidate count r, the client sizes
its decoy set as nv = r * 16^l / |DS|.  Decoy-set cardinalities are
products of per-position range widths in [1, 16], i.e. 13-smooth numbers
whose prime factors fit into l slots with per-slot product at most 16.
smooth_search finds the packable 13-smooth value nearest nv in log
space; gen_v then turns a slot packing into a concrete vector around the
target digest.

The search pairs each (2, 3) product with a sorted table of (5, 7, 11,
13) products, keeping only halves that pack into l slots on their own,
and widens one error window, doubling it, until it holds the best
packable pair, so it is exact: the returned value minimizes
|ln(value/nv)| among all packable 13-smooth numbers, ties broken toward
the smaller value.  Packability is a closed-form count over the six
exponents (_slots_used), so each round tests every pair within the
window at once; pack_into_slots builds the chosen value's slots only.
"""

from __future__ import annotations

import functools
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import hashers
from .predicate import (Digest, PredicateVector, cardinality, eval_predicate,
                        parse_vector, serialize_vector)

_LN2, _LN3, _LN5, _LN7, _LN11, _LN13 = (math.log(p) for p in (2, 3, 5, 7, 11, 13))
_TIE_EPS = 1e-9  # float log-error slack before exact rational comparison
DEFAULT_TOLERANCE = 0.05


class DuplicatePlanError(RuntimeError):
    """A vector was already generated for this target in this plan store."""


@dataclass(frozen=True)
class SmoothFactorization:
    """value = 2^A * 3^B * 5^C * 7^D * 11^E * 13^F."""

    exponents: tuple[int, int, int, int, int, int]
    value: int

    def __post_init__(self) -> None:
        if _value(self.exponents) != self.value:
            raise ValueError("stored value does not match exponents")

    @classmethod
    def from_exponents(cls, exponents) -> "SmoothFactorization":
        exponents = tuple(int(e) for e in exponents)
        return cls(exponents, _value(exponents))


def _value(exponents) -> int:
    return prod(p ** int(e) for p, e in zip((2, 3, 5, 7, 11, 13), exponents))


@dataclass(frozen=True)
class SlotPacking:
    """Per-position range widths f_i in [1, 16] with prod(f_i) = value."""

    slot_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(not 1 <= f <= 16 for f in self.slot_sizes):
            raise ValueError("slot sizes must be in [1, 16]")

    @property
    def value(self) -> int:
        return prod(self.slot_sizes)


@dataclass(frozen=True)
class PlanParameters:
    keyspace_size: int
    r: Fraction
    digest_length: int
    nv_target: Fraction


@dataclass(frozen=True)
class SmoothSearchResult:
    factorization: SmoothFactorization
    packing: SlotPacking
    log_error: float  # signed ln(value / nv_target)


class WidenToleranceError(ValueError):
    def __init__(self, nv_target: float, tolerance: float,
                 nearest: SmoothSearchResult):
        self.nearest = nearest
        super().__init__(
            f"no packable 13-smooth cardinality within tolerance "
            f"{tolerance:g} of {nv_target:.6g}; nearest is "
            f"{nearest.factorization.value} (log error "
            f"{nearest.log_error:+.4g}) -- widen the tolerance to proceed"
        )


def _ln_fraction(x: Fraction) -> float:
    return math.log(x.numerator) - math.log(x.denominator)


def _finite_fraction(x, name: str) -> Fraction:
    try:
        return Fraction(x)  # floats convert exactly
    except (OverflowError, ValueError):  # inf, NaN
        raise ValueError(f"{name} must be a finite number, got {x!r}") from None


def plan_nv(keyspace_size: int, r, digest_length: int) -> PlanParameters:
    """nv = r * 16^l / |DS|, kept exact as a rational."""
    if keyspace_size < 1:
        raise ValueError("keyspace_size must be >= 1")
    r = _finite_fraction(r, "r")
    if r <= 0:
        raise ValueError("r must be positive")
    nv = r * Fraction(16 ** digest_length, keyspace_size)
    return PlanParameters(keyspace_size, r, digest_length, nv)


def pack_into_slots(exponents, n_slots: int) -> tuple[int, ...] | None:
    """First-fit-decreasing of the prime factors (largest first) into
    n_slots with per-slot product capped at 16; None if it does not fit.

    The slots follow from _slots_used's counts, in the order first fit
    opens them: 13s, 11s, 7s (first those with a 2: 14), 5s (with a 3: 15,
    then with a 2: 10), 9s, a lone 3 (with up to two 2s), then 2s by four."""
    a, b, c, d, e, f = (int(x) for x in exponents)
    fifteens, threes = min(b, c), max(b - c, 0)
    fourteens = min(a, d)
    tens = min(a - fourteens, c - fifteens)
    with_three = min(a - fourteens - tens, 2 * (threes % 2))
    twos = a - fourteens - tens - with_three
    slots = ([13] * f + [11] * e + [14] * fourteens + [7] * (d - fourteens)
             + [15] * fifteens + [10] * tens + [5] * (c - fifteens - tens)
             + [9] * (threes // 2) + [3 << with_three] * (threes % 2)
             + [16] * (twos // 4) + ([1 << twos % 4] if twos % 4 else []))
    if len(slots) > n_slots:
        return None
    return tuple(slots) + (1,) * (n_slots - len(slots))


def _slots_used(exps: np.ndarray) -> np.ndarray:
    """Slots that pack_into_slots fills, per row of an (n, 6) exponent
    array: a row is packable into l slots iff its count is <= l.

    First fit decreasing reduces to counts.  Each 13, 11, 7 and 5 takes a
    slot of its own; the 3s fill the 5-slots (15), then pair up (9); the
    2s go one into each 7-slot (14) and each 5-slot without a 3 (10), two
    into a lone 3 (12), then four to a new slot (16)."""
    a, b, c, d, e, f = np.asarray(exps, np.int64).T
    threes, lone_fives = np.maximum(b - c, 0), np.maximum(c - b, 0)
    twos = np.maximum(a - d - lone_fives - 2 * (threes % 2), 0)
    return f + e + d + c + (threes + 1) // 2 + (twos + 3) // 4


def _extend(logs: np.ndarray, packed: np.ndarray, ln_p: float, shift: int,
            counts) -> tuple[np.ndarray, np.ndarray]:
    """Expand every row (base log, packed exponents) by one more prime:
    row i becomes rows base_i + k*ln_p for k = 0 .. counts[i] - 1, in row
    order, with k packed at `shift`.  The sums are the same float
    operations as the nested loop `base + k * ln_p`, so the logs match it
    bit for bit."""
    rows = np.repeat(np.arange(len(logs), dtype=np.int32), counts)
    k = np.arange(len(rows), dtype=packed.dtype)
    k -= np.repeat((np.cumsum(counts) - counts).astype(packed.dtype), counts)
    # in place to bound peak memory; float addition commutes exactly
    out_logs = k.astype(np.float64)
    out_logs *= ln_p
    out_logs += logs[rows]
    k <<= shift
    k |= packed[rows]
    return out_logs, k


class _SmoothGroups:
    """Cached per-digest-length enumeration tables for the search.

    left:  2^A * 3^B, A + 2B <= 4l  (packed A | B << 16, int64)
    right: 5^C 7^D 11^E 13^F, C + D + E + F <= l  (packed C | D<<8 |
           E<<16 | F<<24, int32), sorted by log (stable, (C, D, E, F) order).

    These are the halves that pack into l slots on their own, all <= 16^l;
    no other half is part of a packable pair, since adding a prime never
    frees a slot (a 7, 11 or 13 takes one and frees at most one 2; a 5
    frees at most one 3 or one 2, and shifts the parity of the 3s).

    Built once per process and l with numpy, one prime at a time, so no
    per-entry Python object exists.  At l = 64 the tables have 129^2 and
    C(68, 4) = 814,385 entries (9.8 MB); a cold build takes 0.1 s (2 cores).

    smooth_search reads the left table through arrays that depend only on
    l and are built here once: search_logs and search_packed, the left
    entries sorted by log (descending, stable), so that a search's
    queries ln(nv) - log arrive ascending and numpy's binary search
    narrows from the previous one; and search_limit, per entry the
    right-table bound of the pairs below the zone floor (the zone catalog
    serves those above it).  They add about 0.4 MB at l = 64.  left_logs
    and left_packed stay in build order.
    """

    def __init__(self, digest_length: int):
        self.cap = cap = digest_length * math.log(16) + 1e-9

        # 4l + 1 values of A, then (4l - A) // 2 + 1 of B per row
        logs, packed = _extend(np.zeros(1), np.zeros(1, dtype=np.int64),
                               _LN2, 0, [4 * digest_length + 1])
        self.left_logs, self.left_packed = _extend(
            logs, packed, _LN3, 16, (4 * digest_length - packed) // 2 + 1)

        # each prime takes k = 0 .. l - (exponents so far) on every row;
        # F <= l <= 127, so F << 24 fits in int32
        logs, packed = np.zeros(1), np.zeros(1, dtype=np.int32)
        for ln_p, shift in ((_LN5, 0), (_LN7, 8), (_LN11, 16), (_LN13, 24)):
            used = sum((packed >> s) & 0xFF for s in (0, 8, 16))
            logs, packed = _extend(logs, packed, ln_p, shift,
                                   digest_length + 1 - used)
        order = np.argsort(logs, kind="stable").astype(np.int32)
        self.right_logs = logs[order]
        del logs
        self.right_packed = packed[order]

        self.zone_floor = cap - _ZONE_DEPTH
        by_log = np.argsort(-self.left_logs, kind="stable")
        self.search_logs = self.left_logs[by_log]
        self.search_packed = self.left_packed[by_log]
        self.search_limit = np.searchsorted(
            self.right_logs, self.zone_floor - self.search_logs + 1e-6,
            side="right")

    def exponents(self, left_idx: np.ndarray, right_idx: np.ndarray
                  ) -> np.ndarray:
        """(n, 6) exponents of the pairs (search_* entry, right entry)."""
        ab = self.search_packed[left_idx]
        cdef = self.right_packed[right_idx]
        return np.stack((ab & 0xFFFF, ab >> 16, cdef & 0xFF,
                         (cdef >> 8) & 0xFF, (cdef >> 16) & 0xFF, cdef >> 24),
                        axis=1)


_groups_for = functools.cache(_SmoothGroups)  # one table set per l


# Near the 16^l ceiling almost no 13-smooth number is packable (every
# below-16 slot product wastes capacity), so the error window would grind
# through millions of rejects there.  But the packable values in that
# band have a closed form: 16^(l-k) times k slot products f_i, where the
# total capacity deficit sum(ln(16/f_i)) is below the band depth.  That
# is a small, enumerable catalog; the window handles everything deeper.
_ZONE_DEPTH = 2.0


def _factor_exponents(value: int) -> tuple[int, int, int, int, int, int]:
    exps = []
    for p in (2, 3, 5, 7, 11, 13):
        e = 0
        while value % p == 0:
            value //= p
            e += 1
        exps.append(e)
    assert value == 1
    return tuple(exps)


class _ZoneCatalog:
    """All packable values with ln(16^l / v) < _ZONE_DEPTH, exact."""

    def __init__(self, digest_length: int):
        deltas = [(_factor_exponents(f), math.log(16 / f))
                  for f in range(15, 2, -1)
                  if math.log(16 / f) <= _ZONE_DEPTH + 1e-9]
        seen = {(4 * digest_length, 0, 0, 0, 0, 0)}

        def rec(idx: int, budget: float, k: int, exps):
            if k > 0:
                seen.add((exps[0] + 4 * (digest_length - k),) + exps[1:])
            if k == digest_length:
                return
            for at in range(idx, len(deltas)):
                fe, delta = deltas[at]
                if delta <= budget:
                    rec(at, budget - delta, k + 1,
                        tuple(a + b for a, b in zip(exps, fe)))

        rec(0, _ZONE_DEPTH + 1e-9, 0, (0, 0, 0, 0, 0, 0))
        exps = np.asarray(list(seen), np.int64)
        self.exps = exps[_slots_used(exps) <= digest_length]
        self.logs = np.asarray([math.log(_value(e))
                                for e in self.exps.tolist()])


_zone_for = functools.cache(_ZoneCatalog)


def smooth_search(nv_target, digest_length: int,
                  tolerance: float = DEFAULT_TOLERANCE) -> SmoothSearchResult:
    """Best packable 13-smooth approximation of nv_target.

    Raises WidenToleranceError (carrying the nearest packable candidate)
    if nothing lands within |ln(value/nv_target)| <= tolerance.
    """
    if not 0 <= digest_length <= 127:  # the packed int32 fields hold 127
        raise ValueError(f"digest_length {digest_length!r} is not in [0, 127]")
    target = _finite_fraction(nv_target, "nv_target")
    if target < 1:
        raise ValueError("nv_target must be >= 1")
    if not tolerance > 0:  # also refuses NaN
        raise ValueError(f"tolerance must be positive, got {tolerance!r}")
    groups = _groups_for(digest_length)
    ln_target = _ln_fraction(target)

    # ascending, since search_logs descends
    resid = ln_target - groups.search_logs
    right_logs = groups.right_logs
    # pairs above the zone floor are the catalog's job; excluding them
    # here keeps near-ceiling targets from flooding the window
    limit = groups.search_limit
    pos = np.minimum(np.searchsorted(right_logs, resid), limit)
    # per left entry, the error of its nearest pair
    near = np.minimum(
        np.where(pos > 0, resid - right_logs[np.maximum(pos - 1, 0)], np.inf),
        np.where(pos < limit, right_logs[np.minimum(pos, len(right_logs) - 1)]
                 - resid, np.inf))

    # the near-ceiling catalog's values, when the target can reach them
    zone_errs, zone_exps = np.empty(0), np.empty((0, 6), np.int64)
    if ln_target > groups.zone_floor - 1.0:
        zone = _zone_for(digest_length)
        zone_errs, zone_exps = np.abs(zone.logs - ln_target), zone.exps
    best = float(zone_errs.min(initial=math.inf))

    # Each round tests every pair within error t and lowers best to the
    # least packable error, until t passes best + _TIE_EPS.  t only grows,
    # so the last round holds every pair that can tie best.
    t = float(near.min())
    while True:
        rows = np.flatnonzero(near <= t)
        r = resid[rows]
        lo = np.searchsorted(right_logs, r - t)
        hi = np.minimum(np.searchsorted(right_logs, r + t, side="right"),
                        limit[rows])
        counts = np.maximum(hi - lo, 0)
        i = np.repeat(rows, counts)
        j = np.arange(len(i)) + np.repeat(lo + counts - np.cumsum(counts),
                                          counts)
        exps = groups.exponents(i, j)
        packable = _slots_used(exps) <= digest_length
        errs, exps = np.abs(resid[i] - right_logs[j])[packable], exps[packable]
        best = float(errs.min(initial=best))
        if best + _TIE_EPS <= t or t > groups.cap:
            break
        # from an exact hit (t = 0) step straight to _TIE_EPS
        t = min(max(2 * t, _TIE_EPS), best + _TIE_EPS)

    if best == math.inf:
        raise RuntimeError("smooth search found no packable value")

    errs, exps = (np.concatenate((errs, zone_errs)),
                  np.concatenate((exps, zone_exps)))

    def exact_key(f: SmoothFactorization):
        ratio = Fraction(f.value) / target
        return (ratio if ratio >= 1 else 1 / ratio, f.value)

    fact = min((SmoothFactorization.from_exponents(e)
                for e in exps[errs <= best + _TIE_EPS].tolist()),
               key=exact_key)
    slots = pack_into_slots(fact.exponents, digest_length)
    assert slots is not None

    log_error = _ln_fraction(Fraction(fact.value) / target)
    result = SmoothSearchResult(fact, SlotPacking(slots), log_error)
    if abs(log_error) > tolerance + 1e-12:
        raise WidenToleranceError(float(target), tolerance, result)
    return result


def gen_v(target: Digest, packing: SlotPacking,
          rng: random.Random | int | None = None) -> PredicateVector:
    """Place one window of the packed width around each target nibble.

    Slot sizes are shuffled across positions, then each window offset is
    drawn uniformly from the placements that keep the target inside, so
    the vector never deterministically centers on the target.
    """
    if len(packing.slot_sizes) != len(target):
        raise ValueError(
            f"packing has {len(packing.slot_sizes)} slots for digest "
            f"length {len(target)}"
        )
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    widths = list(packing.slot_sizes)
    rng.shuffle(widths)
    bounds = []
    for t, f in zip(target.nibbles, widths):
        lo = rng.randint(max(0, t - f + 1), min(16 - f, t))
        bounds.append((lo, lo + f - 1))
    return PredicateVector(tuple(bounds))


def expected_candidates(v: PredicateVector, keyspace_size: int) -> float:
    """Expected hit count: cardinality(v) * |DS| / 16^l."""
    return float(Fraction(cardinality(v) * keyspace_size, 16 ** len(v)))


def deniability(v: PredicateVector) -> float:
    """Probability that an arbitrary digest lands in the decoy set."""
    return float(Fraction(cardinality(v), 16 ** len(v)))


def guess_probability(keyspace_size: int, num_sorted_out: int) -> float:
    """The server's best conditional guess after sorting out that many
    keyspace members."""
    if not 0 <= num_sorted_out < keyspace_size:
        raise ValueError("num_sorted_out must be in [0, keyspace_size)")
    return 1.0 / (keyspace_size - num_sorted_out)


@dataclass(frozen=True)
class DatasetProjection:
    per_set: tuple[float, ...]
    cumulative: float


def multi_dataset_projection(v: PredicateVector,
                             sizes) -> DatasetProjection:
    """Expected hits per disjoint data set plus the saturating cumulative
    total (never exceeding the decoy-set size)."""
    card = cardinality(v)
    space = 16 ** len(v)
    per_set = tuple(float(Fraction(card * int(n), space)) for n in sizes)
    total = Fraction(card * sum(int(n) for n in sizes), space)
    cumulative = float(min(total, Fraction(card)))
    return DatasetProjection(per_set, cumulative)


# ---------------------------------------------------------------------------
# Plan files


# The plan file, declared once: (file key, Plan attribute, parser) in file
# order.  Floats are written with repr, so they parse back exactly.
_PLAN_FIELDS: tuple[tuple[str, str, Callable[[str], Any]], ...] = (
    ("target", "target_hex", str),
    ("algo", "algo_id", str),
    ("keyspace", "keyspace_descriptor", str),
    ("keyspace_size", "keyspace_size", int),
    ("r", "r", float),
    ("nv_target", "nv_target", float),
    ("tolerance", "tolerance", float),
    ("seed", "seed", int),
    ("vector", "vector_hex", str),
    ("cardinality", "cardinality", int),
    ("expected_candidates", "expected_candidates", float),
    ("deniability", "deniability", float),
)


@dataclass
class Plan:
    target_hex: str
    algo_id: str
    keyspace_descriptor: str
    keyspace_size: int
    r: float
    nv_target: float
    tolerance: float
    seed: int
    vector_hex: str
    cardinality: int
    expected_candidates: float
    deniability: float

    def to_text(self) -> str:
        lines = ["# threepc plan"]
        for key, attr, parse in _PLAN_FIELDS:
            value = getattr(self, attr)
            lines.append(f"{key} = {repr(value) if parse is float else value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Plan":
        fields: dict[str, str] = {}
        for line_no, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            m = re.fullmatch(r"(\w+)\s*=\s*(.*)", line)
            if not m:
                raise ValueError(f"plan line {line_no}: expected key = value")
            fields[m.group(1)] = m.group(2)
        try:
            plan = cls(**{attr: parse(fields[key])
                          for key, attr, parse in _PLAN_FIELDS})
        except KeyError as exc:
            raise ValueError(f"plan is missing field {exc.args[0]!r}") from None
        plan._check_consistent()
        return plan

    def _check_consistent(self) -> None:
        """Reject a plan whose vector does not fit its algorithm, whose
        target is outside its own vector, or whose cardinality or expected
        candidate count is not the one its vector and keyspace size give:
        running or verifying it would mislead (ValueError)."""
        if self.algo_id not in hashers.known_algos():
            raise ValueError(f"plan names unknown algorithm {self.algo_id!r}")
        nibbles = hashers.descriptor(self.algo_id).digest_nibbles
        vector = parse_vector(self.vector_hex)
        if len(vector) != nibbles:
            raise ValueError(
                f"plan vector covers {len(vector)} nibbles, {self.algo_id} "
                f"digests have {nibbles}")
        target = hashers.parse_digest_hex(self.algo_id, self.target_hex)
        if not eval_predicate(vector, target):
            raise ValueError("plan target is outside its own vector")
        if self.cardinality != cardinality(vector):
            raise ValueError(
                f"plan cardinality {self.cardinality} is not the vector's "
                f"{cardinality(vector)}")
        expected = expected_candidates(vector, self.keyspace_size)
        if self.expected_candidates != expected:
            raise ValueError(
                f"plan expected_candidates {self.expected_candidates!r} is not "
                f"the {expected!r} its vector and keyspace size give")


def plan_for_nv(target: Digest, algo_id: str, keyspace_descriptor: str,
                keyspace_size: int, r: float, nv_target, tolerance: float,
                seed: int) -> Plan:
    """Search a packing for nv_target, draw the vector from seed, and
    derive the plan's cardinality, expected candidates and deniability
    from that vector."""
    found = smooth_search(nv_target, len(target), tolerance)
    vector = gen_v(target, found.packing, random.Random(seed))
    return Plan(
        target_hex=target.hex,
        algo_id=algo_id,
        keyspace_descriptor=keyspace_descriptor,
        keyspace_size=keyspace_size,
        r=r,
        nv_target=float(nv_target),
        tolerance=tolerance,
        seed=seed,
        vector_hex=serialize_vector(vector),
        cardinality=cardinality(vector),
        expected_candidates=expected_candidates(vector, keyspace_size),
        deniability=deniability(vector),
    )


def build_plan(target: Digest, algo_id: str, keyspace_descriptor: str,
               keyspace_size: int, r, tolerance: float = DEFAULT_TOLERANCE,
               seed: int | None = None) -> Plan:
    """Full client-side planning: nv, smooth search, vector generation."""
    if seed is None:
        seed = random.SystemRandom().getrandbits(64)
    params = plan_nv(keyspace_size, r, len(target))
    return plan_for_nv(target, algo_id, keyspace_descriptor, keyspace_size,
                       float(params.r), params.nv_target, tolerance, seed)


class PlanStore:
    """Directory of plan files; refuses a second vector for any target,
    by exclusive create, so of concurrent saves exactly one succeeds."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def path_for(self, target_hex: str) -> Path:
        return self.root / f"{target_hex.lower()}.plan"

    def save(self, plan: Plan) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(plan.target_hex)
        try:
            with open(path, "x") as fh:
                fh.write(plan.to_text())
        except FileExistsError:
            raise DuplicatePlanError(
                f"a vector was already generated for target "
                f"{plan.target_hex}; generating another would narrow the "
                f"decoy set, refusing"
            ) from None
        return path
