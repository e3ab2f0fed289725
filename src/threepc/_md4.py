"""MD4 (RFC 1320), needed for NTLM; OpenSSL 3 no longer ships it.

``md4_words`` hashes all the rows of a word matrix of padded messages at
once, as numpy ``uint32`` column operations, into a digest matrix.  This
is the package's only MD4: the NTLM block kernel pads its candidates
into one matrix per block count and hashes each matrix once.
"""

from __future__ import annotations

import numpy as np

_ROUNDS = (  # (boolean function, constant, word order, shifts) per round
    (lambda b, c, d: d ^ (b & (c ^ d)), 0, tuple(range(16)), (3, 7, 11, 19)),
    (lambda b, c, d: (b & c) | (d & (b | c)), 0x5A827999,
     (0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15), (3, 5, 9, 13)),
    (lambda b, c, d: b ^ c ^ d, 0x6ED9EBA1,
     (0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15), (3, 9, 11, 15)),
)


def md4_words(words: np.ndarray) -> np.ndarray:
    """MD4 digests of the padded messages in the rows of an (n, 16 *
    blocks) word matrix, as an (n, 16) uint8 matrix: one uint32 column
    operation per step, with the state carried across the blocks."""
    columns = np.ascontiguousarray(words.T, dtype=np.uint32)
    rounds = [(fn, columns + np.uint32(const), order, shifts)
              for fn, const, order, shifts in _ROUNDS]
    state = [np.full(len(words), h, dtype=np.uint32)
             for h in (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476)]
    for off in range(0, len(columns), 16):
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
