"""MD4 (RFC 1320), needed for NTLM; OpenSSL 3 no longer ships it.

``md4`` hashes one message in pure Python and is the reference;
``md4_batch`` hashes many equal-length messages at once as numpy
``uint32`` column operations into a digest matrix, which is what the NTLM
block kernel runs.
"""

from __future__ import annotations

import struct
from typing import Sequence

import numpy as np

_MASK = 0xFFFFFFFF
_S1 = (3, 7, 11, 19)
_S2 = (3, 5, 9, 13)
_S3 = (3, 9, 11, 15)
_K2 = (0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15)
_K3 = (0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15)


def md4(message: bytes) -> bytes:
    a, b, c, d = 0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476
    bit_len = len(message) * 8
    message += b"\x80" + b"\x00" * (-(len(message) + 9) % 64)
    message += struct.pack("<Q", bit_len)

    for off in range(0, len(message), 64):
        x = struct.unpack_from("<16I", message, off)
        aa, bb, cc, dd = a, b, c, d

        for n in range(16):
            s = _S1[n & 3]
            if n & 3 == 0:
                t = (a + ((b & c) | (~b & d)) + x[n]) & _MASK
                a = ((t << s) | (t >> (32 - s))) & _MASK
            elif n & 3 == 1:
                t = (d + ((a & b) | (~a & c)) + x[n]) & _MASK
                d = ((t << s) | (t >> (32 - s))) & _MASK
            elif n & 3 == 2:
                t = (c + ((d & a) | (~d & b)) + x[n]) & _MASK
                c = ((t << s) | (t >> (32 - s))) & _MASK
            else:
                t = (b + ((c & d) | (~c & a)) + x[n]) & _MASK
                b = ((t << s) | (t >> (32 - s))) & _MASK

        for n in range(16):
            k, s = _K2[n], _S2[n & 3]
            if n & 3 == 0:
                t = (a + ((b & c) | (b & d) | (c & d)) + x[k] + 0x5A827999) & _MASK
                a = ((t << s) | (t >> (32 - s))) & _MASK
            elif n & 3 == 1:
                t = (d + ((a & b) | (a & c) | (b & c)) + x[k] + 0x5A827999) & _MASK
                d = ((t << s) | (t >> (32 - s))) & _MASK
            elif n & 3 == 2:
                t = (c + ((d & a) | (d & b) | (a & b)) + x[k] + 0x5A827999) & _MASK
                c = ((t << s) | (t >> (32 - s))) & _MASK
            else:
                t = (b + ((c & d) | (c & a) | (d & a)) + x[k] + 0x5A827999) & _MASK
                b = ((t << s) | (t >> (32 - s))) & _MASK

        for n in range(16):
            k, s = _K3[n], _S3[n & 3]
            if n & 3 == 0:
                t = (a + (b ^ c ^ d) + x[k] + 0x6ED9EBA1) & _MASK
                a = ((t << s) | (t >> (32 - s))) & _MASK
            elif n & 3 == 1:
                t = (d + (a ^ b ^ c) + x[k] + 0x6ED9EBA1) & _MASK
                d = ((t << s) | (t >> (32 - s))) & _MASK
            elif n & 3 == 2:
                t = (c + (d ^ a ^ b) + x[k] + 0x6ED9EBA1) & _MASK
                c = ((t << s) | (t >> (32 - s))) & _MASK
            else:
                t = (b + (c ^ d ^ a) + x[k] + 0x6ED9EBA1) & _MASK
                b = ((t << s) | (t >> (32 - s))) & _MASK

        a = (a + aa) & _MASK
        b = (b + bb) & _MASK
        c = (c + cc) & _MASK
        d = (d + dd) & _MASK

    return struct.pack("<4I", a, b, c, d)


_ROUNDS = (  # (boolean function, constant, word order, shifts) per round
    (lambda b, c, d: d ^ (b & (c ^ d)), 0, tuple(range(16)), _S1),
    (lambda b, c, d: (b & c) | (d & (b | c)), 0x5A827999, _K2, _S2),
    (lambda b, c, d: b ^ c ^ d, 0x6ED9EBA1, _K3, _S3),
)


def md4_batch(messages: Sequence[bytes], length: int) -> np.ndarray:
    """MD4 digests of messages that are all ``length`` bytes long, as an
    (n, 16) uint8 matrix with one digest per row, in input order.

    Every message gets the same padding, so the padded inputs form one
    (n, 16 * blocks) little-endian word matrix whose columns are hashed
    together; the chaining state carries across the 64-byte blocks.
    """
    n = len(messages)
    if n == 0:
        return np.empty((0, 16), dtype=np.uint8)
    if set(map(len, messages)) != {length}:
        raise ValueError(f"messages must all be {length} bytes long")
    pad = (b"\x80" + b"\x00" * (-(length + 9) % 64)
           + struct.pack("<Q", length * 8))
    buf = pad.join(messages) + pad
    rows = np.frombuffer(buf, dtype="<u4").reshape(n, -1)
    # words past the message hold only padding, the same in every row, so
    # they stay Python ints and cost a scalar add
    n_varying = (length + 3) // 4
    words = [rows[:, w].astype(np.uint32) if w < n_varying else int(rows[0, w])
             for w in range(rows.shape[1])]
    rounds = [(fn, [(w + const) & _MASK if isinstance(w, int) else w + const
                    for w in words], order, shifts)
              for fn, const, order, shifts in _ROUNDS]
    state = [np.full(n, h, dtype=np.uint32)
             for h in (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476)]
    for off in range(0, len(words), 16):
        a, b, c, d = state
        for fn, x, order, shifts in rounds:
            for step, k in enumerate(order):
                t = fn(b, c, d)
                t += a
                t += x[off + k]
                s = shifts[step & 3]
                # rotating the registers makes the next step's target a
                a, b, c, d = d, (t << s) | (t >> (32 - s)), b, c
        state = [h + v for h, v in zip(state, (a, b, c, d))]
    return np.stack(state, axis=1).astype("<u4").view(np.uint8)
