"""Pluggable one-way hash backends producing digests from passwords.

Each algorithm has two entry points.  ``raw_fn`` hashes one password and
serves single digests (client, verifier, tests).  ``block_fn`` is the
engine's block kernel: ``block_fn(algo)(block) -> (digests, hashed)``
hashes a list of candidates into an (n_hashed, digest bytes) uint8
matrix, in block order.  ``hashed`` holds the ascending block indices of
its rows, or is None when every candidate was hashed; only ntlm skips
candidates (those that are not UTF-8).  Kernels only hash: the engine
applies the predicate to the matrix.
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


# block -> (digest matrix, block indices of its rows or None)
BlockFn = Callable[[Sequence[bytes]], tuple[np.ndarray, np.ndarray | None]]


def _crc32_block(block: Sequence[bytes]) -> tuple[np.ndarray, None]:
    crcs = np.fromiter(map(zlib.crc32, block), dtype=">u4", count=len(block))
    return crcs.view(np.uint8).reshape(-1, 4), None


def _sha256_block(block: Sequence[bytes]) -> tuple[np.ndarray, None]:
    # inline rather than through _sha256_raw: a Python call per candidate
    # costs several percent of the hash
    sha256 = hashlib.sha256
    joined = b"".join([sha256(pw).digest() for pw in block])
    return np.frombuffer(joined, dtype=np.uint8).reshape(-1, 32), None


# str.encode("utf-16-le") looks the codec up by name on every call, which
# costs several times the encoding itself
_utf16le = codecs.utf_16_le_encode


def _ntlm_block(block: Sequence[bytes]
                ) -> tuple[np.ndarray, np.ndarray | None]:
    """Skip candidates that are not UTF-8, run MD4 column-wise over each
    group of equal UTF-16LE length, and scatter each group's digests to
    its rows of the block-ordered matrix."""
    groups: defaultdict[int, tuple[list[int], list[bytes]]] = defaultdict(
        lambda: ([], []))
    skipped: list[int] = []
    for i, pw in enumerate(block):
        try:
            msg = _utf16le(pw.decode("utf-8"))[0]
        except UnicodeDecodeError:
            skipped.append(i)
            continue
        rows, msgs = groups[len(msg)]
        rows.append(i - len(skipped))
        msgs.append(msg)
    m = np.empty((len(block) - len(skipped), 16), dtype=np.uint8)
    for length, (rows, msgs) in groups.items():
        m[rows] = md4_batch(msgs, length)
    return m, np.delete(np.arange(len(block)), skipped) if skipped else None


_REGISTRY: dict[str, tuple[HashAlgoDescriptor, Callable[[bytes], bytes],
                           BlockFn]] = {}
_MEASURED_RATES: dict[str, float] = {}
# the fewest hashes a rate measurement may time
MIN_RATE_BUDGET = 100_000


def register_algo(algo_id: str, digest_nibbles: int,
                  raw_fn: Callable[[bytes], bytes], kernel: BlockFn) -> None:
    """Register a backend: its one-password function and its block kernel."""
    _REGISTRY[algo_id] = (HashAlgoDescriptor(algo_id, digest_nibbles), raw_fn,
                          kernel)


register_algo("crc32", 8, _crc32_raw, _crc32_block)
register_algo("ntlm", 32, _ntlm_raw, _ntlm_block)
register_algo("sha256", 64, _sha256_raw, _sha256_block)


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


def block_fn(algo_id: str) -> BlockFn:
    """The block kernel ``block_fn(algo)(block) -> (digests, hashed)``;
    the engine's hot path."""
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


def measure_rate(algo_id: str, sample_budget: int = MIN_RATE_BUDGET,
                 refresh: bool = False) -> float:
    """Wall-clock throughput of the algorithm's block kernel over
    synthetic inputs (hashes/second).

    Results are cached per algorithm; pass refresh=True to re-measure.
    """
    if sample_budget < MIN_RATE_BUDGET:
        raise ValueError("sample_budget must be at least 10^5 hashes")
    if not refresh and algo_id in _MEASURED_RATES:
        return _MEASURED_RATES[algo_id]
    kernel = block_fn(algo_id)
    samples = [b"rate-sample-%012d" % i for i in range(10_000)]
    rounds = (sample_budget + len(samples) - 1) // len(samples)
    start = time.perf_counter()
    for _ in range(rounds):
        kernel(samples)
    elapsed = time.perf_counter() - start
    rate = (rounds * len(samples)) / max(elapsed, 1e-9)
    _MEASURED_RATES[algo_id] = rate
    return rate
