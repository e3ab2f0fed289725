"""Candidate-set files: one `<digest-hex>:<password-bytes>` record per line.

The digest field is hex of fixed width per algorithm, so the separator
position is fixed and passwords may contain colons (and a `\r`, which
stays in the password).  Writers emit lowercase; readers accept either
case.  ``PotfileIndex`` reads a file once into the raw digest matrix
that the hash kernels return and ``Hits`` carries, so the verifier
compares and filters digests without hex.

Hits travel as one columnar batch, ``Hits``, from the engine through the
wire to ``PotfileWriter.write_hits``, which builds its lines with numpy
and no per-hit Python work.
"""

from __future__ import annotations

import binascii
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np


class PotfileParseError(ValueError):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_NEWLINE, _COLON = ord("\n"), ord(":")


@dataclass(frozen=True, eq=False)
class Hits:
    """A batch of (password, raw digest) rows, held as columns: row i is
    digests[i] and the lengths[i] bytes of passwords that follow the
    rows before it.  Batches compare by value; empty ones are equal
    whatever their width."""

    digests: np.ndarray  # (n, digest bytes) uint8
    lengths: np.ndarray  # (n,) int64
    passwords: bytes

    @classmethod
    def from_rows(cls, digests: np.ndarray, passwords: Sequence[bytes]
                  ) -> "Hits":
        """Row i is digests[i] and passwords[i]."""
        return cls(digests, np.fromiter(map(len, passwords), np.int64,
                                        len(passwords)),
                   b"".join(passwords))

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[bytes, bytes]]) -> "Hits":
        """The batch of (password, raw digest) pairs, in their order."""
        digests = [digest for _, digest in pairs]
        if len(set(map(len, digests))) > 1:
            raise ValueError("digests of different widths in one batch")
        matrix = np.frombuffer(b"".join(digests), np.uint8).reshape(
            len(pairs), len(digests[0]) if pairs else 0)
        return cls.from_rows(matrix, [password for password, _ in pairs])

    def __reduce__(self):
        # as three buffers: a forked worker pickles one batch per range,
        # and numpy's own pickling touches more of the parent's pages
        return _hits_from_buffers, (self.digests.shape,
                                    self.digests.tobytes(),
                                    self.lengths.tobytes(), self.passwords)

    def __len__(self) -> int:
        return len(self.digests)

    @property
    def width(self) -> int:
        """Digest bytes per row."""
        return self.digests.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hits):
            return NotImplemented
        return (len(self) == len(other)
                and self.passwords == other.passwords
                and np.array_equal(self.lengths, other.lengths)
                and self.digests.tobytes() == other.digests.tobytes())

    def pairs(self) -> list[tuple[bytes, bytes]]:
        """(password, raw digest) per row, in row order."""
        w, raw, pw = self.width, self.digests.tobytes(), self.passwords
        ends = np.cumsum(self.lengths).tolist()
        return [(pw[end - n:end], raw[i * w:(i + 1) * w])
                for i, (n, end) in enumerate(zip(self.lengths.tolist(), ends))]

    def split(self, size: int) -> Iterator["Hits"]:
        """Consecutive batches of at most size rows; none when empty."""
        ends = np.cumsum(self.lengths).tolist()
        for a in range(0, len(self), size):
            b = min(a + size, len(self))
            yield Hits(self.digests[a:b], self.lengths[a:b],
                       self.passwords[ends[a - 1] if a else 0:ends[b - 1]])

    def lines(self) -> bytes:
        """`<digest-hex>:<password>\\n` per row, lowercase, in row order."""
        n, w = self.digests.shape
        fixed = np.empty((n, 2 * w + 2), np.uint8)  # hex, ':' and '\n'
        fixed[:, :-2] = np.frombuffer(binascii.hexlify(
            self.digests.tobytes()), np.uint8).reshape(n, 2 * w)
        fixed[:, -2] = _COLON
        fixed[:, -1] = _NEWLINE
        out = np.empty(fixed.size + len(self.passwords), np.uint8)
        # password byte k of row i goes to k + i * (2w + 2) + 2w + 1
        at = np.repeat(np.arange(n) * (2 * w + 2) + (2 * w + 1), self.lengths)
        at += np.arange(len(at))
        out[at] = np.frombuffer(self.passwords, np.uint8)
        rest = np.ones(len(out), bool)
        rest[at] = False
        out[rest] = fixed.ravel()
        return out.tobytes()


def _hits_from_buffers(shape: tuple[int, int], digests: bytes,
                       lengths: bytes, passwords: bytes) -> Hits:
    return Hits(np.frombuffer(digests, np.uint8).reshape(shape),
                np.frombuffer(lengths, np.int64), passwords)


class PotfileWriter:
    """Append-oriented sink for hit batches."""

    def __init__(self, path: str | Path):
        self._fh = open(path, "wb")
        self.pairs_written = 0

    def write_hits(self, hits: Hits) -> None:
        """Append one record per row; a batch with a password that holds
        a newline is refused whole (ValueError), as no record can hold
        one."""
        if hits.passwords.count(b"\n"):
            raise ValueError("a password contains a newline")
        self._fh.write(hits.lines())
        self.pairs_written += len(hits)

    def write_batch(self, pairs: Sequence[tuple[bytes, bytes]]) -> None:
        """write_hits of the batch of (password, raw digest) pairs."""
        self.write_hits(Hits.from_pairs(pairs))

    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "PotfileWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# the value of each hex digit byte, either case; 16 for any other byte
_NIBBLE = np.array([int(chr(c), 16) if chr(c) in "0123456789abcdefABCDEF"
                    else 16 for c in range(256)], np.uint8)


class PotfileIndex:
    """A potfile read once: its bytes, where each line starts and ends,
    and every digest field, checked and decoded, as one (n, width / 2)
    uint8 matrix of raw digests, the form the hash kernels return.
    Passwords are sliced out only when asked for."""

    def __init__(self, data: bytes, width: int):
        if width % 2:
            raise ValueError(f"digest fields of {width} hex digits are not "
                             "whole bytes")
        buf = np.frombuffer(data, np.uint8)
        ends = np.flatnonzero(buf == _NEWLINE)
        if len(buf) and buf[-1] != _NEWLINE:  # a last line with no newline
            ends = np.append(ends, len(buf))
        starts = np.empty_like(ends)
        starts[:1] = 0
        starts[1:] = ends[:-1] + 1
        n = len(starts)
        ok = ends - starts > width
        # check only the lines before the first short one, so that every
        # index below stays inside the buffer
        short = np.flatnonzero(~ok)
        checked = int(short[0]) if len(short) else n
        head, ok_head = starts[:checked], ok[:checked]
        ok_head[:] = buf[width:].take(head) == _COLON
        digests = np.empty((n, width // 2), np.uint8)
        for j in range(width // 2):
            hi = _NIBBLE.take(buf[2 * j:].take(head))
            lo = _NIBBLE.take(buf[2 * j + 1:].take(head))
            ok_head &= (hi | lo) < 16
            digests[:checked, j] = hi << 4 | lo
        if not ok.all():
            first = int(np.argmin(ok))
            _check_line(data[starts[first]:ends[first]], width, first + 1)
            raise AssertionError(f"line {first + 1} passes the line check")
        self.data, self.width = data, width
        self.starts, self.ends, self.digests = starts, ends, digests

    @classmethod
    def read(cls, path: str | Path, width: int) -> "PotfileIndex":
        return cls(Path(path).read_bytes(), width)

    def __len__(self) -> int:
        return len(self.starts)

    def passwords(self, rows: np.ndarray) -> list[bytes]:
        """The password of each row, in the order given."""
        data, skip = self.data, self.width + 1
        return [data[start + skip:end] for start, end
                in zip(self.starts[rows].tolist(), self.ends[rows].tolist())]

    def __iter__(self) -> Iterator[tuple[int, str, bytes]]:
        w, data = self.width, self.data
        hexes = binascii.hexlify(self.digests.tobytes()).decode("ascii")
        for i, (start, end) in enumerate(zip(self.starts.tolist(),
                                             self.ends.tolist())):
            yield (i + 1, hexes[i * w:(i + 1) * w], data[start + w + 1:end])


def _check_line(line: bytes, width: int, line_no: int) -> None:
    """The per-line parse, kept for the message of the first bad line."""
    if len(line) < width + 1:
        raise PotfileParseError("record shorter than digest field", line_no)
    if line[width:width + 1] != b":":
        raise PotfileParseError("missing ':' after digest field", line_no)
    try:
        binascii.unhexlify(line[:width])
    except binascii.Error:
        raise PotfileParseError("digest field is not hex", line_no) from None


def as_index(source: str | Path | PotfileIndex, width: int) -> PotfileIndex:
    """source itself if it is an index, else the file it names, read."""
    if isinstance(source, PotfileIndex):
        if source.width != width:
            raise ValueError(f"index has {source.width}-digit digests, "
                             f"not {width}")
        return source
    return PotfileIndex.read(source, width)


def iter_potfile(path: str | Path, digest_hex_width: int
                 ) -> Iterator[tuple[int, str, bytes]]:
    """Yield (line_no, digest_hex, password) records; strict parse.  The
    whole file is checked before the first record is yielded."""
    yield from PotfileIndex.read(path, digest_hex_width)


def count_records(source: str | Path | PotfileIndex,
                  digest_hex_width: int) -> int:
    return len(as_index(source, digest_hex_width))
