"""Digests, predicate vectors, and decoy-set arithmetic.

A digest is a fixed-length sequence of hex nibbles (most significant
first, matching the conventional hex rendering).  A predicate vector
assigns each nibble position an inclusive [lo, hi] range; the decoy set
is the box of all digests whose every nibble falls inside its range.
Membership costs at most two comparisons per position no matter how
large the box is, and the box size is the product of the range widths.
"""

from __future__ import annotations

from dataclasses import dataclass

SMOOTH_PRIMES = (2, 3, 5, 7, 11, 13)


class LengthMismatchError(ValueError):
    """Vector and digest lengths disagree."""


@dataclass(frozen=True)
class Digest:
    """Hash output as nibbles in [0, 15], most significant first."""

    nibbles: tuple[int, ...]
    algo_id: str = ""

    def __post_init__(self) -> None:
        if not self.nibbles:
            raise ValueError("digest must contain at least one nibble")
        if any(not 0 <= n <= 15 for n in self.nibbles):
            raise ValueError("digest nibbles must be in [0, 15]")

    def __len__(self) -> int:
        return len(self.nibbles)

    @classmethod
    def from_hex(cls, text: str, algo_id: str = "") -> "Digest":
        try:
            nibbles = tuple(int(c, 16) for c in text)
        except ValueError:
            raise ValueError(f"invalid hex digest: {text!r}") from None
        return cls(nibbles, algo_id)

    @classmethod
    def from_bytes(cls, raw: bytes, algo_id: str = "") -> "Digest":
        nibbles = []
        for b in raw:
            nibbles.append(b >> 4)
            nibbles.append(b & 0xF)
        return cls(tuple(nibbles), algo_id)

    @property
    def hex(self) -> str:
        return "".join("0123456789abcdef"[n] for n in self.nibbles)


@dataclass(frozen=True)
class PredicateVector:
    """Per-nibble [lo, hi] ranges; degenerate hi < lo is allowed (empty box)."""

    bounds: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.bounds:
            raise ValueError("vector must contain at least one bound pair")
        for lo, hi in self.bounds:
            if not (0 <= lo <= 15 and 0 <= hi <= 15):
                raise ValueError("vector components must be in [0, 15]")

    def __len__(self) -> int:
        return len(self.bounds)

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(max(hi - lo + 1, 0) for lo, hi in self.bounds)


def eval_predicate(v: PredicateVector, x: Digest) -> bool:
    """Decoy-set membership: lo_i <= x_i <= hi_i for every position.

    At most 2*len(v) comparisons; cost never depends on cardinality(v).
    """
    if len(v) != len(x):
        raise LengthMismatchError(
            f"vector length {len(v)} != digest length {len(x)}"
        )
    for n, (lo, hi) in zip(x.nibbles, v.bounds):
        if n < lo or n > hi:
            return False
    return True


def cardinality(v: PredicateVector) -> int:
    """Exact size of the decoy set: product of max(hi - lo + 1, 0)."""
    card = 1
    for lo, hi in v.bounds:
        card *= max(hi - lo + 1, 0)
        if card == 0:
            return 0
    return card


def is_13_smooth(n: int) -> bool:
    """True iff n has no prime factor greater than 13 (n > 0)."""
    if n <= 0:
        return False
    for p in SMOOTH_PRIMES:
        while n % p == 0:
            n //= p
    return n == 1


def zk_vector(length: int) -> PredicateVector:
    """Full-range vector: the decoy set is the whole digest space."""
    if length <= 0:
        raise ValueError("length must be positive")
    return PredicateVector(((0, 15),) * length)


def singleton_vector(target: Digest) -> PredicateVector:
    """Vector whose decoy set is exactly {target}."""
    return PredicateVector(tuple((n, n) for n in target.nibbles))


def serialize_vector(v: PredicateVector) -> str:
    """2l lowercase hex chars: lo_i then hi_i per position, MSB first."""
    digits = "0123456789abcdef"
    return "".join(digits[lo] + digits[hi] for lo, hi in v.bounds)


def parse_vector(text: str) -> PredicateVector:
    """Inverse of serialize_vector; case-insensitive."""
    if len(text) % 2 != 0:
        raise ValueError("vector text must have an even number of hex chars")
    try:
        vals = [int(c, 16) for c in text]
    except ValueError:
        raise ValueError(f"invalid vector hex: {text!r}") from None
    bounds = tuple((vals[i], vals[i + 1]) for i in range(0, len(vals), 2))
    return PredicateVector(bounds)


def from_hit_mask(target: Digest, mask_hex: str) -> PredicateVector:
    """Byte-granular vector: mask bit n (from the right) pins digest byte n
    (from the right) to the target's value; unpinned bytes are full-range."""
    length = len(target)
    if length % 2 != 0:
        raise LengthMismatchError("digest length must be even for byte masks")
    n_bytes = length // 2
    width = (n_bytes + 3) // 4  # l/2 mask bits, 4 per hex char
    if len(mask_hex) != width:
        raise LengthMismatchError(
            f"mask must be {width} hex chars for l={length}")
    mask = int(mask_hex, 16)
    if mask >> n_bytes:
        raise ValueError("mask has bits beyond the digest width")
    bounds = []
    for j in range(n_bytes):
        bit = (mask >> (n_bytes - 1 - j)) & 1
        hi_nib = target.nibbles[2 * j]
        lo_nib = target.nibbles[2 * j + 1]
        if bit:
            bounds.append((hi_nib, hi_nib))
            bounds.append((lo_nib, lo_nib))
        else:
            bounds.append((0, 15))
            bounds.append((0, 15))
    return PredicateVector(tuple(bounds))
