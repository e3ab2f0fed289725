"""Pluggable one-way hash backends producing digests from passwords.

Each algorithm has two entry points.  ``raw_fn`` hashes one password and
serves single digests (client, verifier, tests).  ``scan_fn`` is the
engine's block kernel: ``scan(block, keep, append) -> skipped`` hashes a
list of candidates into an (n, digest bytes) uint8 matrix, calls the
predicate filter ``keep`` once on it (it returns the ascending indices of
the rows to keep), calls ``append((password, digest))`` for each kept
row, in block order, and returns how many candidates it could not hash.
Digest ``bytes`` objects are made for hits only.
"""

from __future__ import annotations

import codecs
import hashlib
import time
import zlib
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

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


Keep = Callable[[np.ndarray], np.ndarray]
Append = Callable[[tuple[bytes, bytes]], None]
ScanFn = Callable[[Sequence[bytes], Keep, Append], int]


def _append_hits(block: Sequence[bytes], rows: np.ndarray,
                 digests: np.ndarray, append: Append) -> None:
    """append((block[i], digest)) for each hit row i, where digests holds
    the hits' rows of the digest matrix."""
    raw = digests.view(f"V{digests.shape[1]}").ravel().tolist()
    for i, d in zip(rows.tolist(), raw):
        append((block[i], d))


def _matrix_scan(hash_block: Callable[[Sequence[bytes]], np.ndarray]
                 ) -> ScanFn:
    """A kernel for hashes that never skip a candidate: hash_block turns a
    block into its digest matrix."""
    def scan(block: Sequence[bytes], keep: Keep, append: Append) -> int:
        m = hash_block(block)
        rows = keep(m)
        _append_hits(block, rows, m[rows], append)
        return 0
    return scan


def _rows(joined: bytes, width: int) -> np.ndarray:
    return np.frombuffer(joined, dtype=np.uint8).reshape(-1, width)


def _crc32_block(block: Sequence[bytes]) -> np.ndarray:
    crcs = np.fromiter(map(zlib.crc32, block), dtype=">u4", count=len(block))
    return crcs.view(np.uint8).reshape(-1, 4)


def _sha256_block(block: Sequence[bytes]) -> np.ndarray:
    # inline rather than through _sha256_raw: a Python call per candidate
    # costs several percent of the hash
    sha256 = hashlib.sha256
    return _rows(b"".join([sha256(pw).digest() for pw in block]), 32)


# str.encode("utf-16-le") looks the codec up by name on every call, which
# costs several times the encoding itself
_utf16le = codecs.utf_16_le_encode


def _ntlm_scan(block: Sequence[bytes], keep: Keep, append: Append) -> int:
    """Skip candidates that are not UTF-8, then run MD4 column-wise and the
    filter over each group of equal UTF-16LE length; hits go out in block
    order."""
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
    if not groups:
        return skipped
    rows: list[np.ndarray] = []
    digests: list[np.ndarray] = []
    for length, (indices, msgs) in groups.items():
        m = md4_batch(msgs, length)
        kept = keep(m)
        rows.append(np.take(indices, kept))
        digests.append(m[kept])
    hit_rows = np.concatenate(rows)
    order = hit_rows.argsort()  # block indices are distinct
    _append_hits(block, hit_rows[order], np.concatenate(digests)[order],
                 append)
    return skipped


_REGISTRY: dict[str, tuple[HashAlgoDescriptor, Callable[[bytes], bytes],
                           ScanFn]] = {}
_MEASURED_RATES: dict[str, float] = {}


def register_algo(algo_id: str, digest_nibbles: int,
                  raw_fn: Callable[[bytes], bytes],
                  scan: ScanFn | None = None) -> None:
    """Register a backend; without a block kernel the engine joins the
    raw_fn digests of a block into its digest matrix."""
    if scan is None:
        width = digest_nibbles // 2
        scan = _matrix_scan(
            lambda block: _rows(b"".join([raw_fn(pw) for pw in block]), width))
    _REGISTRY[algo_id] = (HashAlgoDescriptor(algo_id, digest_nibbles), raw_fn,
                          scan)


register_algo("crc32", 8, _crc32_raw, _matrix_scan(_crc32_block))
register_algo("ntlm", 32, _ntlm_raw, _ntlm_scan)
register_algo("sha256", 64, _sha256_raw, _matrix_scan(_sha256_block))


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
    """The block kernel ``scan(block, keep, append) -> skipped``; the
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


def _keep_none(m: np.ndarray) -> np.ndarray:
    return np.empty(0, dtype=np.intp)


def measure_rate(algo_id: str, sample_budget: int = 100_000,
                 refresh: bool = False) -> float:
    """Wall-clock throughput of the algorithm's block kernel over
    synthetic inputs, with a filter that rejects every row (hashes/second).

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
        scan(samples, _keep_none, hits.append)
    elapsed = time.perf_counter() - start
    rate = (rounds * len(samples)) / max(elapsed, 1e-9)
    _MEASURED_RATES[algo_id] = rate
    return rate
