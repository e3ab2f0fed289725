"""Reference computations made apart from threepc.

Nothing here imports the program.  The hashes come from hashlib, zlib and
an MD4 written from RFC 1320; the decoy-set test, the plan arithmetic and
the keyspace enumeration are written from their definitions (PAPER.md and
the descriptor syntax in the README).
"""

from __future__ import annotations

import bisect
import hashlib
import math
import struct
import zlib
from fractions import Fraction
from math import prod

import numpy as np

# The fixed printable-specials set of the mask class ?s.
SPECIALS = bytes(c for c in range(0x21, 0x7F) if not chr(c).isalnum())
DIGITS = b"0123456789"

# ---------------------------------------------------------------------------
# Hashes

_M32 = 0xFFFFFFFF


def _rotl(x: int, s: int) -> int:
    return ((x << s) | (x >> (32 - s))) & _M32


def md4(message: bytes) -> bytes:
    """MD4 as specified in RFC 1320."""
    state = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476]
    padded = message + b"\x80" + b"\x00" * ((55 - len(message)) % 64)
    padded += struct.pack("<Q", 8 * len(message))
    rounds = (
        (lambda x, y, z: (x & y) | (~x & z), 0, range(16), (3, 7, 11, 19)),
        (lambda x, y, z: (x & y) | (x & z) | (y & z), 0x5A827999,
         (0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15), (3, 5, 9, 13)),
        (lambda x, y, z: x ^ y ^ z, 0x6ED9EBA1,
         (0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15), (3, 9, 11, 15)),
    )
    for off in range(0, len(padded), 64):
        x = struct.unpack_from("<16I", padded, off)
        a, b, c, d = state
        for fn, const, order, shifts in rounds:
            for i, k in enumerate(order):
                a = _rotl((a + fn(b, c, d) + x[k] + const) & _M32, shifts[i % 4])
                a, b, c, d = d, a, b, c
        state = [(s + t) & _M32 for s, t in zip(state, (a, b, c, d))]
    return struct.pack("<4I", *state)


# RFC 1320, appendix A.5.
RFC1320_SUITE = (
    (b"", "31d6cfe0d16ae931b73c59d7e0c089c0"),
    (b"a", "bde52cb31de33e46245e05fbdbd6fb24"),
    (b"abc", "a448017aaf21d8525fc10ae87aa6729d"),
    (b"message digest", "d9130a8164549fe818874806e1c7014b"),
    (b"abcdefghijklmnopqrstuvwxyz", "d79e1c308aa5bbcdeea8ed63df412da9"),
    (b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
     "043f8582f241db351ce627e153e7f0e4"),
    (b"1234567890" * 8, "e33b4ddc9c38f2199c3e7b164fcc0536"),
)


def md4_self_test() -> bool:
    return all(md4(msg).hex() == want for msg, want in RFC1320_SUITE)


def ntlm_hex(password: bytes) -> str | None:
    """MD4 of the UTF-16LE text; None where the bytes are not UTF-8."""
    try:
        text = password.decode("utf-8")
    except UnicodeDecodeError:
        return None
    return md4(text.encode("utf-16-le")).hex()


def sha256_hex(password: bytes) -> str:
    return hashlib.sha256(password).hexdigest()


def crc32_hex(password: bytes) -> str:
    return "%08x" % zlib.crc32(password)


# ---------------------------------------------------------------------------
# Decoy sets

Box = list[tuple[int, int]]


def parse_box(vector_hex: str) -> Box:
    """Vector text is lo, hi per nibble position, most significant first."""
    vals = [int(c, 16) for c in vector_hex]
    return list(zip(vals[0::2], vals[1::2]))


def in_box(box: Box, digest_hex: str) -> bool:
    return len(box) == len(digest_hex) and all(
        lo <= int(c, 16) <= hi for (lo, hi), c in zip(box, digest_hex))


def box_size(box: Box) -> int:
    return prod(max(hi - lo + 1, 0) for lo, hi in box)


def crc_box_mask(crcs: np.ndarray, box: Box) -> np.ndarray:
    """Which uint32 digests lie in an 8-nibble box."""
    mask = np.ones(len(crcs), dtype=bool)
    for i, (lo, hi) in enumerate(box):
        nib = (crcs >> np.uint32(28 - 4 * i)) & np.uint32(0xF)
        mask &= (nib >= lo) & (nib <= hi)
    return mask


def is_13_smooth(n: int) -> bool:
    for p in (2, 3, 5, 7, 11, 13):
        while n > 1 and n % p == 0:
            n //= p
    return n == 1


def width_products(length: int) -> list[int]:
    """Every product of `length` range widths in 1..16, sorted."""
    vals = {1}
    for _ in range(length):
        vals = {v * w for v in vals for w in range(1, 17)}
    return sorted(vals)


def nearest_in_log(values: list[int], nv: Fraction) -> int:
    """The value minimising |ln(value / nv)|, ties to the smaller value."""
    i = bisect.bisect_left(values, nv)
    best = None
    for v in values[max(i - 1, 0):i + 1]:
        ratio = Fraction(v) / nv
        key = (max(ratio, 1 / ratio), v)
        if best is None or key < best:
            best = key
    return best[1]


def plan_faults(plan: dict, target_hex: str, keyspace_size: int, r: float,
                tolerance: float, products: list[int] | None = None
                ) -> list[str]:
    """The paper's plan invariants, checked from the plan's own fields.

    plan holds vector_hex, cardinality and expected_candidates as the
    program wrote them.  With products (all products of l widths), the
    cardinality must also be the nearest in log to nv.
    """
    faults = []
    box = parse_box(plan["vector_hex"])
    length = len(box)
    if not in_box(box, target_hex):
        faults.append("target outside its vector")
    card = box_size(box)
    if card != plan["cardinality"]:
        faults.append(f"cardinality {plan['cardinality']} != widths {card}")
    if not is_13_smooth(card):
        faults.append(f"cardinality {card} is not 13-smooth")
    nv = Fraction(r) * Fraction(16 ** length, keyspace_size)
    if abs(math.log(card) - math.log(nv)) > tolerance + 1e-12:
        faults.append(f"cardinality {card} outside tolerance of nv")
    expected = float(Fraction(card * keyspace_size, 16 ** length))
    if plan["expected_candidates"] != expected:
        faults.append(f"expected_candidates {plan['expected_candidates']!r}"
                      f" != {expected!r}")
    if products is not None and card != nearest_in_log(products, nv):
        faults.append(f"cardinality {card} is not the product nearest nv")
    return faults


def read_plan_file(text: str) -> dict:
    """Parse the `key = value` plan file into the fields plan_faults reads."""
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep and not line.startswith("#"):
            fields[key.strip()] = value.strip()
    return {
        "target": fields["target"],
        "vector_hex": fields["vector"],
        "cardinality": int(fields["cardinality"]),
        "expected_candidates": float(fields["expected_candidates"]),
        "keyspace_size": int(fields["keyspace_size"]),
        "r": float(fields["r"]),
        "tolerance": float(fields["tolerance"]),
    }


# ---------------------------------------------------------------------------
# Candidate sets


def potfile_lines(data: bytes) -> list[bytes]:
    lines = data.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    return lines


def split_line(line: bytes, width: int) -> tuple[str, bytes]:
    return line[:width].decode("ascii"), line[width + 1:]
