"""Candidate-set files: one `<digest-hex>:<password-bytes>` record per line.

The digest field is hex of fixed width per algorithm, so the separator
position is fixed and passwords may contain colons (and a `\r`, which
stays in the password).  Writers emit lowercase; readers accept either
case and lowercase it.
"""

from __future__ import annotations

import binascii
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np


class PotfileParseError(ValueError):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class PotfileWriter:
    """Append-oriented sink for (password, raw-digest) pairs."""

    def __init__(self, path: str | Path):
        self._fh = open(path, "wb")
        self.pairs_written = 0

    def write_batch(self, pairs: list[tuple[bytes, bytes]]) -> None:
        """Append one record per (password, raw digest) pair; a batch with
        a password that holds a newline is refused whole (ValueError), as
        no record can hold one."""
        self._write_lines([binascii.hexlify(digest) + b":" + password
                           for password, digest in pairs])

    def write_hex_batch(self, records: Sequence[tuple[str, bytes]],
                        hex_width: int) -> None:
        """Append one record per (digest hex, password) pair, as a server
        sends them, with the digest in lowercase.  The batch is refused
        whole (ValueError) if a digest is not hex_width hex digits or a
        password holds a newline."""
        digests = [digest_hex for digest_hex, _ in records]
        if set(map(len, digests)) - {hex_width}:
            raise ValueError(f"a digest is not {hex_width} hex digits wide")
        binascii.unhexlify("".join(digests))  # not hex or not ASCII: ValueError
        self._write_lines([digest_hex.lower().encode() + b":" + password
                           for digest_hex, password in records])

    def _write_lines(self, lines: list[bytes]) -> None:
        if not lines:
            return
        out = b"\n".join(lines) + b"\n"
        if out.count(b"\n") != len(lines):
            raise ValueError("a password contains a newline")
        self._fh.write(out)
        self.pairs_written += len(lines)

    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "PotfileWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


_NEWLINE, _COLON = ord("\n"), ord(":")
# 256-entry byte tables, read through numpy views
_IS_HEX = bytes(c in b"0123456789abcdefABCDEF" for c in range(256))
_LOWER = bytes.maketrans(b"ABCDEF", b"abcdef")


class PotfileIndex:
    """A potfile read once: its bytes, where each line starts and ends,
    and every digest field, checked and lowercased, as one (n, width)
    uint8 matrix.  Records are built only when asked for."""

    def __init__(self, data: bytes, width: int):
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
        digests = np.empty((n, width), np.uint8)
        is_hex = np.frombuffer(_IS_HEX, bool)
        lower = np.frombuffer(_LOWER, np.uint8)
        for j in range(width):
            column = buf[j:].take(head)
            ok_head &= is_hex.take(column)
            digests[:checked, j] = lower.take(column)
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

    def record(self, i: int) -> tuple[int, str, bytes]:
        """(line_no, digest_hex, password) of the record at row i."""
        start = int(self.starts[i]) + self.width + 1
        return (i + 1, self.digests[i].tobytes().decode("ascii"),
                self.data[start:int(self.ends[i])])

    def rows_with_digest(self, digest_hex: str) -> np.ndarray:
        """Rows whose digest is digest_hex (lowercase), in file order."""
        keys = self.digests.view(f"S{self.width}").ravel()
        return np.flatnonzero(keys == digest_hex.encode("ascii"))

    def __iter__(self) -> Iterator[tuple[int, str, bytes]]:
        w, data = self.width, self.data
        hexes = self.digests.tobytes().decode("ascii")
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
