"""Candidate-set files: one `<digest-hex>:<password-bytes>` record per line.

The digest field is lowercase hex of fixed width per algorithm, so the
separator position is fixed and passwords may contain colons.
"""

from __future__ import annotations

import binascii
from pathlib import Path
from typing import BinaryIO, Iterator, Sequence


class PotfileParseError(ValueError):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class PotfileWriter:
    """Append-oriented sink for (password, raw-digest) pairs."""

    def __init__(self, target: str | Path | BinaryIO):
        if hasattr(target, "write"):
            self._fh: BinaryIO = target  # type: ignore[assignment]
            self._owns = False
        else:
            self._fh = open(target, "wb")
            self._owns = True
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
        if self._owns:
            self._fh.close()

    def __enter__(self) -> "PotfileWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def iter_potfile(path: str | Path, digest_hex_width: int
                 ) -> Iterator[tuple[int, str, bytes]]:
    """Yield (line_no, digest_hex, password) records; strict parse."""
    data = Path(path).read_bytes()
    if not data:
        return
    lines = data.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    for i, line in enumerate(lines, start=1):
        if len(line) < digest_hex_width + 1:
            raise PotfileParseError("record shorter than digest field", i)
        if line[digest_hex_width:digest_hex_width + 1] != b":":
            raise PotfileParseError("missing ':' after digest field", i)
        digest_hex = line[:digest_hex_width]
        try:
            binascii.unhexlify(digest_hex)
        except binascii.Error:
            raise PotfileParseError("digest field is not hex", i) from None
        yield i, digest_hex.decode("ascii").lower(), line[digest_hex_width + 1:]


def read_potfile(path: str | Path, digest_hex_width: int
                 ) -> list[tuple[int, str, bytes]]:
    return list(iter_potfile(path, digest_hex_width))


def count_records(path: str | Path, digest_hex_width: int) -> int:
    return sum(1 for _ in iter_potfile(path, digest_hex_width))
