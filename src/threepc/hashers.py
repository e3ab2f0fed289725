"""Pluggable one-way hash backends producing digests from passwords.

Each algorithm is one block kernel, the package's only code for that
hash: ``block_fn(algo)(parts) -> (digests, hashed)`` hashes the
candidates of a range given as its parts, the ``(prefix, suffixes, lo,
hi)`` tuples of ``keyspace.iter_blocks``, whose candidates are ``prefix +
suffixes[i]`` for i in [lo, hi).  A password list is the single part
``as_parts(passwords)``.  ``digests`` is an (n_hashed, digest bytes)
uint8 matrix in range order.  ``hashed`` holds the ascending range
offsets of its rows, or is None when every candidate was hashed; only
ntlm skips candidates (those that are not UTF-8).  crc32 and sha256 join
each candidate; ntlm encodes each prefix and suffix once and builds the
padded MD4 messages from them with numpy.  Kernels only hash: the engine
and the verifier apply the predicate to the matrix.  ``raw_fn`` hashes
one password as a one-row call.
"""

from __future__ import annotations

import codecs
import hashlib
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._md4 import md4_words
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


# (prefix, suffixes, lo, hi): the candidates prefix + suffixes[i], lo <= i < hi
Part = tuple[bytes, Sequence[bytes], int, int]
# parts -> (digest matrix, range offsets of its rows or None)
BlockFn = Callable[[Sequence[Part]], tuple[np.ndarray, np.ndarray | None]]


def as_parts(passwords: Sequence[bytes]) -> list[Part]:
    """A password list as the single part of a kernel call."""
    return [(b"", passwords, 0, len(passwords))]


def _joined(parts: Sequence[Part]) -> list[bytes]:
    """The parts' candidates in range order."""
    out: list[bytes] = []
    for prefix, suffixes, lo, hi in parts:
        run = suffixes[lo:hi]
        out += [prefix + s for s in run] if prefix else run
    return out


def _crc32_block(parts: Sequence[Part]) -> tuple[np.ndarray, None]:
    block = _joined(parts)
    crcs = np.fromiter(map(zlib.crc32, block), dtype=">u4", count=len(block))
    return crcs.view(np.uint8).reshape(-1, 4), None


def _sha256_block(parts: Sequence[Part]) -> tuple[np.ndarray, None]:
    sha256 = hashlib.sha256
    joined = b"".join([sha256(pw).digest() for pw in _joined(parts)])
    return np.frombuffer(joined, dtype=np.uint8).reshape(-1, 32), None


# str.encode("utf-16-le") looks the codec up by name on every call, which
# costs several times the encoding itself
_utf16le = codecs.utf_16_le_encode


def _utf16(text: bytes) -> bytes | None:
    """The UTF-16LE form of UTF-8 bytes, None where they are not UTF-8."""
    try:
        return _utf16le(text.decode("utf-8"))[0]
    except UnicodeDecodeError:
        return None


def _matrix(rows: Sequence[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """The rows as a zero-padded (n, longest) uint8 matrix, and their
    lengths."""
    lengths = np.fromiter(map(len, rows), np.int64, len(rows))
    m = np.zeros((len(rows), int(lengths.max(initial=0))), np.uint8)
    # the cells left of each row's length, in row-major order, are the
    # joined bytes
    m[np.arange(m.shape[1]) < lengths[:, None]] = np.frombuffer(
        b"".join(rows), np.uint8)
    return m, lengths


def _utf16_rows(rows: Sequence[bytes]
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The UTF-16LE forms of the rows as a zero-padded uint8 matrix, their
    lengths, and whether each row is UTF-8 (an empty row where not)."""
    encoded = [_utf16(row) for row in rows]
    m, lengths = _matrix([e or b"" for e in encoded])
    return m, lengths, np.fromiter((e is not None for e in encoded), bool,
                                   len(encoded))


def _ntlm_block(parts: Sequence[Part]
                ) -> tuple[np.ndarray, np.ndarray | None]:
    """MD4 of each candidate's UTF-16LE form, built from the parts'
    structure: each prefix, and each row of a suffix run that the parts
    use, is encoded once per call.  A candidate's padded message is its
    prefix row, its suffix row at the prefix's length, 0x80, and its bit
    length in the last 8 bytes; MD4 runs once per message block count.

    A UTF-8 string starts with a character and ends on a character
    boundary, so where the prefix or the suffix is UTF-8 the candidate
    is UTF-8 iff both are, and its UTF-16LE form is theirs joined.  A
    candidate whose prefix and suffix both are not UTF-8 is decoded
    whole.  Candidates that are not UTF-8 are skipped."""
    sizes = np.array([hi - lo for _, _, lo, hi in parts], np.int64)
    # the suffix rows in use, each taken once: a part's rows join the
    # segment of an earlier part of the same run where the two overlap
    segments: list[list] = []  # [run, lo, hi], then run row 0's table row
    owner = []  # the segment of each part
    for _, run, lo, hi in parts:
        for seg in segments:
            if seg[0] is run and lo <= seg[2] and seg[1] <= hi:
                seg[1:] = min(seg[1], lo), max(seg[2], hi)
                break
        else:
            seg = [run, lo, hi]
            segments.append(seg)
        owner.append(seg)
    # one table: the segments' rows, then the prefixes
    rows: list[bytes] = []
    for seg in segments:
        run, lo, hi = seg
        seg.append(len(rows) - lo)
        rows += run[lo:hi]
    rows.append(b"")  # the suffix of the candidates decoded whole
    empty = len(rows) - 1
    rows += [prefix for prefix, _, _, _ in parts]
    # per candidate: the table rows of its prefix (pj) and its suffix (si)
    pj = np.repeat(np.arange(empty + 1, len(rows)), sizes)
    si = np.arange(len(pj)) + np.repeat(np.array(
        [seg[3] + lo for seg, (_, _, lo, _) in zip(owner, parts)], np.int64)
        - (np.cumsum(sizes) - sizes), sizes)
    enc, enc_len, utf8 = _utf16_rows(rows)
    both = np.flatnonzero(~(utf8[pj] | utf8[si]))
    if len(both):
        # neither side is UTF-8, and their join may be: decode it whole
        rows += [rows[pj[r]] + rows[si[r]] for r in both.tolist()]
        pj[both] = np.arange(len(rows) - len(both), len(rows))
        si[both] = empty
        enc, enc_len, utf8 = _utf16_rows(rows)
    hashed = np.flatnonzero(utf8[pj] & utf8[si])
    pj, si = pj[hashed], si[hashed]
    plen = enc_len[pj]
    length = plen + enc_len[si]
    # message, 0x80, zero bytes and the 8-byte bit length in 64-byte blocks
    blocks = (length + 72) >> 6
    out = np.empty((len(hashed), 16), dtype=np.uint8)
    for nb in np.flatnonzero(np.bincount(blocks)).tolist():
        at_nb = np.flatnonzero(blocks == nb)
        m = np.zeros((len(at_nb), 64 * nb), dtype=np.uint8)
        p = plen[at_nb]
        for q in np.flatnonzero(np.bincount(p)).tolist():
            at = np.flatnonzero(p == q)
            m[at, :q] = enc[pj[at_nb[at]], :q]
            w = min(enc.shape[1], 64 * nb - q)
            m[at, q:q + w] = enc[si[at_nb[at]], :w]
        m[np.arange(len(at_nb)), length[at_nb]] = 0x80
        words = m.view("<u4")
        words[:, -2] = length[at_nb] * 8
        out[at_nb] = md4_words(words)
    return out, None if len(hashed) == sizes.sum() else hashed


_REGISTRY: dict[str, tuple[HashAlgoDescriptor, BlockFn]] = {}
_MEASURED_RATES: dict[str, float] = {}
# the fewest hashes a rate measurement may time
MIN_RATE_BUDGET = 100_000


def register_algo(algo_id: str, digest_nibbles: int, kernel: BlockFn
                  ) -> None:
    """Register a backend: its descriptor and its block kernel."""
    _REGISTRY[algo_id] = (HashAlgoDescriptor(algo_id, digest_nibbles), kernel)


register_algo("crc32", 8, _crc32_block)
register_algo("ntlm", 32, _ntlm_block)
register_algo("sha256", 64, _sha256_block)


def known_algos() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def descriptor(algo_id: str) -> HashAlgoDescriptor:
    try:
        return _REGISTRY[algo_id][0]
    except KeyError:
        raise UnknownAlgoError(algo_id) from None


def block_fn(algo_id: str) -> BlockFn:
    """The block kernel ``block_fn(algo)(parts) -> (digests, hashed)``;
    the engine's hot path."""
    try:
        return _REGISTRY[algo_id][1]
    except KeyError:
        raise UnknownAlgoError(algo_id) from None


def raw_fn(algo_id: str) -> Callable[[bytes], bytes]:
    """The bytes -> raw-digest function for one password: the kernel over
    a one-row part.  Raises CandidateEncodingError where the kernel
    skips the password."""
    kernel = block_fn(algo_id)

    def raw(password: bytes) -> bytes:
        m, _ = kernel(as_parts([password]))
        if not len(m):
            raise CandidateEncodingError(
                f"{algo_id} cannot hash {password!r}")
        return m[0].tobytes()

    return raw


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
    synthetic inputs (hashes/second), from the fastest of its rounds of
    10^4 hashes, as timeit advises: a stall of a shared host slows some
    rounds, never speeds one up.

    Results are cached per algorithm; pass refresh=True to re-measure.
    """
    if sample_budget < MIN_RATE_BUDGET:
        raise ValueError("sample_budget must be at least 10^5 hashes")
    if not refresh and algo_id in _MEASURED_RATES:
        return _MEASURED_RATES[algo_id]
    kernel = block_fn(algo_id)
    samples = [b"rate-sample-%012d" % i for i in range(10_000)]
    parts = as_parts(samples)
    rounds = (sample_budget + len(samples) - 1) // len(samples)
    fastest = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        kernel(parts)
        fastest = min(fastest, time.perf_counter() - start)
    rate = len(samples) / max(fastest, 1e-9)
    _MEASURED_RATES[algo_id] = rate
    return rate
