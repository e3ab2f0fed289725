"""Pluggable one-way hash backends producing digests from passwords.

Each algorithm has two entry points.  ``raw_fn`` hashes one password and
serves single digests (client, verifier, tests).  ``scan_fn`` is the
engine's block kernel: ``scan(block, check, append) -> skipped`` hashes a
list of candidates, calls ``append((password, digest))`` for each digest
that ``check`` accepts, in block order, and returns how many candidates it
could not hash.
"""

from __future__ import annotations

import codecs
import hashlib
import time
import zlib
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Sequence

from ._md4 import md4, md4_batch
from .predicate import Digest


class UnknownAlgoError(KeyError):
    pass


class CandidateEncodingError(ValueError):
    """Candidate bytes cannot be encoded for this algorithm (e.g. NTLM
    requires valid UTF-8 input); callers skip and count such candidates."""


@dataclass(frozen=True)
class HashAlgoDescriptor:
    algo_id: str
    digest_nibbles: int


def _crc32_raw(password: bytes) -> bytes:
    return (zlib.crc32(password) & 0xFFFFFFFF).to_bytes(4, "big")


def _sha256_raw(password: bytes) -> bytes:
    return hashlib.sha256(password).digest()


def _ntlm_raw(password: bytes) -> bytes:
    # MD4 over the UTF-16LE form; input bytes must decode as UTF-8
    try:
        text = password.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CandidateEncodingError(f"not valid UTF-8: {password!r}") from exc
    return md4(text.encode("utf-16-le"))


Check = Callable[[bytes], bool]
Append = Callable[[tuple[bytes, bytes]], None]
ScanFn = Callable[[Sequence[bytes], Check, Append], int]


def _fused_scan(raw: Callable[[bytes], bytes]) -> ScanFn:
    """A kernel that hashes, checks and appends one candidate at a time
    (for hashes that are one C call each)."""
    def scan(block: Sequence[bytes], check: Check, append: Append) -> int:
        for pw in block:
            d = raw(pw)
            if check(d):
                append((pw, d))
        return 0
    return scan


# str.encode("utf-16-le") looks the codec up by name on every call, which
# costs several times the encoding itself
_utf16le = codecs.utf_16_le_encode


def _ntlm_scan(block: Sequence[bytes], check: Check, append: Append) -> int:
    """Skip candidates that are not UTF-8, then run MD4 column-wise over
    each group of equal UTF-16LE length; hits go out in block order."""
    groups: defaultdict[int, tuple[list[int], list[bytes]]] = defaultdict(
        lambda: ([], []))
    skipped = 0
    for i, pw in enumerate(block):
        try:
            msg = _utf16le(pw.decode("utf-8"))[0]
        except UnicodeDecodeError:
            skipped += 1
            continue
        indices, msgs = groups[len(msg)]
        indices.append(i)
        msgs.append(msg)
    hits: list[tuple[int, bytes]] = []
    for length, (indices, msgs) in groups.items():
        hits += [(i, d) for i, d in zip(indices, md4_batch(msgs, length))
                 if check(d)]
    hits.sort()  # one pass when there is a single length group
    for i, d in hits:
        append((block[i], d))
    return skipped


_REGISTRY: dict[str, tuple[HashAlgoDescriptor, Callable[[bytes], bytes],
                           ScanFn]] = {}
_MEASURED_RATES: dict[str, float] = {}


def register_algo(algo_id: str, digest_nibbles: int,
                  raw_fn: Callable[[bytes], bytes],
                  scan: ScanFn | None = None) -> None:
    """Register a backend; without a block kernel the engine runs raw_fn
    one candidate at a time."""
    _REGISTRY[algo_id] = (HashAlgoDescriptor(algo_id, digest_nibbles), raw_fn,
                          scan or _fused_scan(raw_fn))


register_algo("crc32", 8, _crc32_raw)
register_algo("ntlm", 32, _ntlm_raw, _ntlm_scan)
register_algo("sha256", 64, _sha256_raw)


def known_algos() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def descriptor(algo_id: str) -> HashAlgoDescriptor:
    try:
        return _REGISTRY[algo_id][0]
    except KeyError:
        raise UnknownAlgoError(algo_id) from None


def raw_fn(algo_id: str) -> Callable[[bytes], bytes]:
    """The bytes -> raw-digest function for one password."""
    try:
        return _REGISTRY[algo_id][1]
    except KeyError:
        raise UnknownAlgoError(algo_id) from None


def scan_fn(algo_id: str) -> ScanFn:
    """The block kernel ``scan(block, check, append) -> skipped``; the
    engine's hot path.  Hits are appended in block order, so the engine's
    output follows keyspace enumeration order."""
    try:
        return _REGISTRY[algo_id][2]
    except KeyError:
        raise UnknownAlgoError(algo_id) from None


def raw_digest(algo_id: str, password: bytes) -> bytes:
    return raw_fn(algo_id)(password)


def digest(algo_id: str, password: bytes) -> Digest:
    desc = descriptor(algo_id)
    d = Digest.from_bytes(raw_fn(algo_id)(password), algo_id)
    assert len(d) == desc.digest_nibbles
    return d


def parse_digest_hex(algo_id: str, text: str) -> Digest:
    """Parse a hex digest, enforcing the algorithm's nibble length."""
    desc = descriptor(algo_id)
    d = Digest.from_hex(text, algo_id)
    if len(d) != desc.digest_nibbles:
        raise ValueError(
            f"{algo_id} digests are {desc.digest_nibbles} hex chars, got {len(d)}"
        )
    return d


def measure_rate(algo_id: str, sample_budget: int = 100_000,
                 refresh: bool = False) -> float:
    """Wall-clock throughput of the algorithm's block kernel over
    synthetic inputs that every check rejects (hashes/second).

    Results are cached per algorithm; pass refresh=True to re-measure.
    """
    if sample_budget < 100_000:
        raise ValueError("sample_budget must be at least 10^5 hashes")
    if not refresh and algo_id in _MEASURED_RATES:
        return _MEASURED_RATES[algo_id]
    scan = scan_fn(algo_id)
    samples = [b"rate-sample-%012d" % i for i in range(10_000)]
    rounds = (sample_budget + len(samples) - 1) // len(samples)
    hits: list[tuple[bytes, bytes]] = []
    start = time.perf_counter()
    for _ in range(rounds):
        scan(samples, lambda d: False, hits.append)
    elapsed = time.perf_counter() - start
    rate = (rounds * len(samples)) / max(elapsed, 1e-9)
    _MEASURED_RATES[algo_id] = rate
    return rate
