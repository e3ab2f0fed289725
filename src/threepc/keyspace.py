"""Cracking data sets: wordlists, brute-force masks, hybrid word+mask.

Descriptor text syntax (CLI and wire):

    wordlist:<name>
    mask:<tokens>
    hybrid:<name>:<tokens-with-?w>

Mask tokens: literal characters, ``??`` for a literal question mark,
classes ``?l ?u ?d ?s ?a``, the hybrid word slot ``?w``, and bracket
unions of classes such as ``[?l?u?d]`` (one position drawing from the
combined character set).  Enumeration order is odometer order with the
rightmost token cycling fastest; wordlists keep file order after
deduplication.  ``iter_blocks`` yields any index range as blocks of one
prefix over a run of suffixes; a spec materializes that suffix run once,
sized by ``_BLOCK_CAP`` as it stands at first use.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from math import prod
from pathlib import Path
from typing import Callable, Iterator, Sequence

MAX_CANDIDATE_LEN = 256

# 32 printable ASCII specials (no space, no alphanumerics); pinned so that
# |DS| is deterministic across hosts.
SPECIAL_CHARS = bytes(
    c for c in range(0x21, 0x7F)
    if chr(c) not in string.ascii_letters + string.digits
)
assert len(SPECIAL_CHARS) == 32

_CLASS_CHARS: dict[str, bytes] = {
    "l": string.ascii_lowercase.encode(),
    "u": string.ascii_uppercase.encode(),
    "d": string.digits.encode(),
    "s": SPECIAL_CHARS,
    "a": (string.ascii_lowercase + string.ascii_uppercase
          + string.digits).encode() + SPECIAL_CHARS,
}

# max candidates in one engine batch, and in a materialized suffix run
_BLOCK_CAP = 16384


class KeyspaceError(ValueError):
    pass


class UnresolvedCorpusError(KeyspaceError):
    """Wordlist cardinality requested before the corpus was attached."""


@dataclass(frozen=True)
class IngestReport:
    kept: int
    dropped_empty: int = 0
    dropped_overlong: int = 0
    dropped_duplicate: int = 0


@dataclass(frozen=True)
class KeyspaceSpec:
    mode: str  # wordlist | mask | hybrid
    descriptor: str
    # per candidate position, the fragments to pick from; None is the ?w
    # slot, which draws from the words once the spec is resolved
    tokens: tuple[tuple[bytes, ...] | None, ...] = ()
    wordlist_name: str | None = None
    words: tuple[bytes, ...] | None = field(default=None, repr=False)

    @property
    def resolved(self) -> bool:
        return self.mode == "mask" or self.words is not None

    @cached_property
    def _layout(self) -> tuple[int, int, Sequence[bytes],
                               Callable[[int], bytes]]:
        """(|DS|, block size, suffix run, prefix of block i) for
        iter_blocks.  Built on first use, under _BLOCK_CAP as it stands
        then: the longest trailing token run whose product fits the cap is
        materialized, or a single oversized trailing token is used as is.
        """
        sets = _choice_sets(self)
        sizes = [len(s) for s in sets]
        k = len(sets)
        block = 1
        while k > 0 and block * sizes[k - 1] <= _BLOCK_CAP:
            block *= sizes[k - 1]
            k -= 1
        if block == 1 and k > 0:
            k -= 1
            block = sizes[k]
            suffixes: Sequence[bytes] = sets[k]
        elif k == len(sets):
            suffixes = (b"",)
        else:
            suffixes = [b"".join(combo) for combo in product(*sets[k:])]
        pre = list(zip(reversed(sizes[:k]), reversed(sets[:k])))

        def prefix_for(idx: int) -> bytes:
            frags = []
            for size, choices in pre:
                idx, r = divmod(idx, size)
                frags.append(choices[r])
            return b"".join(reversed(frags))

        return prod(sizes), block, suffixes, prefix_for


def ingest_wordlist(raw: bytes, max_len: int = MAX_CANDIDATE_LEN
                    ) -> tuple[tuple[bytes, ...], IngestReport]:
    """Normalize line endings, drop empties and overlong lines, dedup
    preserving first occurrence.  Bytes are otherwise opaque."""
    words: list[bytes] = []
    seen: set[bytes] = set()
    empty = overlong = dup = 0
    for line in raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n"):
        if not line:
            empty += 1
            continue
        if len(line) > max_len:
            overlong += 1
            continue
        if line in seen:
            dup += 1
            continue
        seen.add(line)
        words.append(line)
    # the final split element after a trailing newline is not a real line
    if raw.endswith((b"\n", b"\r")) or not raw:
        empty -= 1
    return tuple(words), IngestReport(len(words), max(empty, 0), overlong, dup)


def load_wordlist(path: str | Path) -> tuple[tuple[bytes, ...], IngestReport]:
    return ingest_wordlist(Path(path).read_bytes())


CorpusProvider = Callable[[str], tuple[bytes, ...]]


class DirectoryCorpus:
    """Resolve corpus names against files in a directory (cached)."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._cache: dict[str, tuple[bytes, ...]] = {}

    def __call__(self, name: str) -> tuple[bytes, ...]:
        if name not in self._cache:
            path = self.root / name
            if not path.is_file():
                raise UnresolvedCorpusError(f"no corpus named {name!r}")
            self._cache[name] = load_wordlist(path)[0]
        return self._cache[name]


def _parse_mask_tokens(mask: str, allow_word: bool
                       ) -> tuple[tuple[bytes, ...] | None, ...]:
    tokens: list[tuple[bytes, ...] | None] = []
    i = 0
    while i < len(mask):
        c = mask[i]
        if c == "?":
            if i + 1 >= len(mask):
                raise KeyspaceError("dangling '?' in mask")
            tag = mask[i + 1]
            if tag == "?":
                tokens.append((b"?",))
            elif tag == "w":
                if not allow_word:
                    raise KeyspaceError("?w is only valid in hybrid mode")
                tokens.append(None)
            elif tag in _CLASS_CHARS:
                chars = _CLASS_CHARS[tag]
                tokens.append(tuple(chars[j:j + 1] for j in range(len(chars))))
            else:
                raise KeyspaceError(f"unknown mask class ?{tag}")
            i += 2
        elif c == "[":
            end = mask.find("]", i)
            if end < 0:
                raise KeyspaceError("unterminated '[' in mask")
            body = mask[i + 1:end]
            merged = bytearray()
            j = 0
            while j < len(body):
                if body[j] != "?" or j + 1 >= len(body):
                    raise KeyspaceError(f"bad union body {body!r}")
                tag = body[j + 1]
                if tag not in _CLASS_CHARS:
                    raise KeyspaceError(f"unknown mask class ?{tag} in union")
                for ch in _CLASS_CHARS[tag]:
                    if ch not in merged:
                        merged.append(ch)
                j += 2
            if not merged:
                raise KeyspaceError("empty union token")
            tokens.append(tuple(bytes([ch]) for ch in merged))
            i = end + 1
        else:
            tokens.append((c.encode("utf-8"),))
            i += 1
    if not tokens:
        raise KeyspaceError("empty mask")
    return tuple(tokens)


def parse_descriptor(text: str) -> KeyspaceSpec:
    """Parse a keyspace descriptor; wordlist corpora stay unresolved."""
    mode, _, rest = text.partition(":")
    if mode == "wordlist":
        if not rest:
            raise KeyspaceError("wordlist descriptor needs a corpus name")
        return KeyspaceSpec("wordlist", text, (None,), wordlist_name=rest)
    if mode == "mask":
        tokens = _parse_mask_tokens(rest, allow_word=False)
        return KeyspaceSpec("mask", text, tokens)
    if mode == "hybrid":
        name, sep, mask = rest.partition(":")
        if not name or not sep:
            raise KeyspaceError("hybrid descriptor is hybrid:<name>:<mask>")
        tokens = _parse_mask_tokens(mask, allow_word=True)
        if sum(t is None for t in tokens) != 1:
            raise KeyspaceError("hybrid mask must contain exactly one ?w")
        return KeyspaceSpec("hybrid", text, tokens, wordlist_name=name)
    raise KeyspaceError(f"unknown keyspace mode {mode!r}")


def resolve(spec: KeyspaceSpec, corpus: CorpusProvider | None = None,
            words: Sequence[bytes] | None = None) -> KeyspaceSpec:
    """Attach wordlist contents to a spec (no-op for masks)."""
    if spec.mode == "mask" or spec.words is not None:
        return spec
    if words is None:
        if corpus is None:
            raise UnresolvedCorpusError(
                f"corpus {spec.wordlist_name!r} is not resolved"
            )
        words = corpus(spec.wordlist_name)
    return KeyspaceSpec(spec.mode, spec.descriptor, spec.tokens,
                        spec.wordlist_name, tuple(words))


def make_keyspace(descriptor: str, corpus: CorpusProvider | None = None,
                  words: Sequence[bytes] | None = None) -> KeyspaceSpec:
    return resolve(parse_descriptor(descriptor), corpus, words)


def _choice_sets(spec: KeyspaceSpec) -> list[tuple[bytes, ...]]:
    if not spec.resolved:
        raise UnresolvedCorpusError(
            f"corpus {spec.wordlist_name!r} is not resolved"
        )
    return [spec.words if t is None else t for t in spec.tokens]


def spec_cardinality(spec: KeyspaceSpec) -> int:
    """Exact |DS|, computable before enumeration.

    Read from the spec's layout, so processes forked after this call (the
    engine's workers) inherit the layout built: none waits on
    cached_property's lock, which another thread may hold at the fork.
    """
    return spec._layout[0]


def iter_blocks(spec: KeyspaceSpec, start: int, stop: int
                ) -> Iterator[tuple[bytes, Sequence[bytes], int, int]]:
    """Yield (prefix, suffixes, lo, hi) blocks covering candidates
    [start, stop) in enumeration order; candidate = prefix + suffixes[i].

    The trailing token run is materialized once per spec so the
    per-candidate work is a single concatenation; this is the engine's
    enumeration primitive.
    """
    total, block, suffixes, prefix_for = spec._layout
    if not 0 <= start <= stop <= total:
        raise ValueError(f"range [{start}, {stop}) outside [0, {total})")
    if start == stop:
        return
    pi = start // block
    while pi * block < stop:
        lo = start - pi * block if pi * block < start else 0
        hi = min(block, stop - pi * block)
        yield prefix_for(pi), suffixes, lo, hi
        pi += 1


def enumerate_range(spec: KeyspaceSpec, start: int, stop: int
                    ) -> Iterator[bytes]:
    for prefix, suffixes, lo, hi in iter_blocks(spec, start, stop):
        if prefix:
            for i in range(lo, hi):
                yield prefix + suffixes[i]
        else:
            for i in range(lo, hi):
                yield suffixes[i]


def enumerate_candidates(spec: KeyspaceSpec) -> Iterator[bytes]:
    """Every candidate exactly once, deterministic order."""
    return enumerate_range(spec, 0, spec_cardinality(spec))
