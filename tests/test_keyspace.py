import random

import pytest

from threepc import keyspace
from threepc.keyspace import (
    KeyspaceError,
    UnresolvedCorpusError,
    enumerate_candidates,
    enumerate_range,
    ingest_wordlist,
    make_keyspace,
    parse_descriptor,
    spec_cardinality,
)

import fixtures


class TestMaskParsing:
    def test_class_sizes(self):
        for tag, size in (("l", 26), ("u", 26), ("d", 10), ("s", 32), ("a", 94)):
            spec = make_keyspace(f"mask:?{tag}")
            assert spec_cardinality(spec) == size

    def test_specials_are_printable_non_alnum_non_space(self):
        chars = keyspace.SPECIAL_CHARS
        assert len(chars) == len(set(chars)) == 32
        assert all(0x21 <= c <= 0x7E for c in chars)
        assert not any(chr(c).isalnum() for c in chars)

    def test_alnum_union_token(self):
        spec = make_keyspace("mask:" + "[?l?u?d]" * 9)
        assert spec_cardinality(spec) == 62 ** 9

    def test_pin_masks(self):
        assert spec_cardinality(make_keyspace("mask:" + "?d" * 8)) == 10 ** 8

    def test_literals_and_escape(self):
        spec = make_keyspace("mask:ab??#?d")
        got = list(enumerate_candidates(spec))
        assert got == [b"ab?#%d" % i for i in range(10)]

    def test_overlapping_unions_keep_first_occurrence_order(self):
        classes = keyspace._CLASS_CHARS
        digits_first = parse_descriptor("mask:[?d?a]").tokens[0]
        assert b"".join(digits_first) == classes["d"] + bytes(
            c for c in classes["a"] if c not in classes["d"])
        assert parse_descriptor("mask:[?l?l]").tokens == (
            parse_descriptor("mask:?l").tokens)

    def test_bad_masks_rejected(self):
        for text, message in (
                ("mask:?x", "unknown mask class ?x"),
                ("mask:?", "dangling '?' in mask"),
                ("mask:", "empty mask"),
                ("mask:[?l", "unterminated '[' in mask"),
                ("mask:[xy]", "bad union body 'xy'"),
                ("mask:[?l?]", "bad union body '?l?'"),
                ("mask:[?l?w]", "unknown mask class ?w in union"),
                ("mask:[]", "empty union token"),
                ("mask:?w", "?w is only valid in hybrid mode"),
                ("hybrid:w:?d", "hybrid mask must contain exactly one ?w"),
                ("hybrid:w:?w?w", "hybrid mask must contain exactly one ?w"),
                ("nope:1", "unknown keyspace mode 'nope'")):
            with pytest.raises(KeyspaceError) as err:
                parse_descriptor(text)
            assert str(err.value) == message, text


class TestWordlistIngestion:
    def test_dedup_normalization_and_caps(self):
        raw = b"alpha\r\nbeta\ralpha\n\n" + b"x" * 300 + b"\ngamma\n"
        words, report = ingest_wordlist(raw)
        assert words == (b"alpha", b"beta", b"gamma")
        assert report.kept == 3
        assert report.dropped_duplicate == 1
        assert report.dropped_overlong == 1
        assert report.dropped_empty == 1

    def test_ingest_idempotent(self):
        raw = b"a\nb\nc\n"
        words1, _ = ingest_wordlist(raw)
        words2, _ = ingest_wordlist(raw + raw)
        assert words1 == words2

    def test_opaque_bytes_survive(self):
        accented = "éléphant".encode("latin-1")
        words, _ = ingest_wordlist(accented + b"\n")
        assert words == (accented,)

    def test_unresolved_corpus_errors(self):
        spec = parse_descriptor("wordlist:missing")
        with pytest.raises(UnresolvedCorpusError):
            spec_cardinality(spec)

    def test_directory_corpus(self, corpus_dir):
        (corpus_dir / "demo").write_bytes(b"one\ntwo\none\n")
        spec = make_keyspace("wordlist:demo", keyspace.DirectoryCorpus(corpus_dir))
        assert spec_cardinality(spec) == 2
        with pytest.raises(UnresolvedCorpusError):
            make_keyspace("wordlist:nope", keyspace.DirectoryCorpus(corpus_dir))

    @pytest.mark.parametrize("name", [
        "../secret", "{secret}", "..", ".", "", "sub/inner", "demo/",
        "de\0mo", "x" * 300], ids=["up", "absolute", "parent", "dot", "empty",
                                  "nested", "trailing-slash", "nul",
                                  "too-long"])
    def test_directory_corpus_takes_plain_entries_only(self, corpus_dir,
                                                       name):
        secret = corpus_dir.parent / "secret"
        secret.write_bytes(b"hunter2\n")
        (corpus_dir / "demo").write_bytes(b"one\n")
        (corpus_dir / "sub").mkdir()
        (corpus_dir / "sub" / "inner").write_bytes(b"two\n")
        corpus = keyspace.DirectoryCorpus(corpus_dir)
        with pytest.raises(UnresolvedCorpusError):
            corpus(name.format(secret=secret))
        assert corpus("demo") == (b"one",)


class TestEnumeration:
    def test_two_digit_mask_order(self):
        got = list(enumerate_candidates(make_keyspace("mask:?d?d")))
        assert got == [b"%02d" % i for i in range(100)]

    def test_hybrid_order(self):
        spec = make_keyspace("hybrid:w:?w?d", words=[b"ab", b"cd"])
        got = list(enumerate_candidates(spec))
        assert got == ([b"ab%d" % i for i in range(10)]
                       + [b"cd%d" % i for i in range(10)])

    def test_word_token_in_the_middle(self):
        spec = make_keyspace("hybrid:w:?d?wX", words=[b"ab", b"c"])
        got = list(enumerate_candidates(spec))
        assert got[:4] == [b"0abX", b"0cX", b"1abX", b"1cX"]
        assert len(got) == 20

    def _random_spec(self, rng: random.Random):
        kind = rng.choice(("mask", "wordlist", "hybrid"))
        words = tuple(
            b"w%d" % i for i in range(rng.randint(1, 40))
        )
        if kind == "mask":
            tokens = "".join(rng.choice(("?d", "?l", "x", "[?d?u]"))
                             for _ in range(rng.randint(1, 4)))
            return make_keyspace("mask:" + tokens)
        if kind == "wordlist":
            return make_keyspace("wordlist:w", words=words)
        tokens = "".join(rng.choice(("?d", "y")) for _ in range(rng.randint(0, 3)))
        return make_keyspace(f"hybrid:w:?w{tokens}", words=words)

    def test_count_matches_cardinality_for_random_specs(self):
        rng = random.Random(0xA11CE)
        for _ in range(100):
            spec = self._random_spec(rng)
            candidates = list(enumerate_candidates(spec))
            assert len(candidates) == spec_cardinality(spec)
            assert len(set(candidates)) == len(candidates)  # duplicate-free

    def test_enumerate_range_slices(self):
        spec = make_keyspace("mask:?d?d?d")
        full = list(enumerate_candidates(spec))
        assert list(enumerate_range(spec, 137, 421)) == full[137:421]
        assert list(enumerate_range(spec, 0, 0)) == []
        with pytest.raises(ValueError):
            list(enumerate_range(spec, 0, 1001))
