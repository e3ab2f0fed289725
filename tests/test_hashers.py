import random
import struct
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threepc import engine, hashers, keyspace
from threepc._md4 import md4_words
from threepc.hashers import CandidateEncodingError, UnknownAlgoError
from threepc.predicate import Digest, PredicateVector, eval_predicate, zk_vector

import fixtures

# RFC 1320 appendix vectors
MD4_VECTORS = (
    (b"", "31d6cfe0d16ae931b73c59d7e0c089c0"),
    (b"a", "bde52cb31de33e46245e05fbdbd6fb24"),
    (b"abc", "a448017aaf21d8525fc10ae87aa6729d"),
    (b"message digest", "d9130a8164549fe818874806e1c7014b"),
    (b"abcdefghijklmnopqrstuvwxyz", "d79e1c308aa5bbcdeea8ed63df412da9"),
    (b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
     "043f8582f241db351ce627e153e7f0e4"),
    (b"1234567890" * 8, "e33b4ddc9c38f2199c3e7b164fcc0536"),
)


def md4(messages):
    """md4_words over messages of one length, each padded here as RFC 1320
    pads it."""
    padded = [m + b"\x80" + bytes(-(len(m) + 9) % 64)
              + struct.pack("<Q", 8 * len(m)) for m in messages]
    words = np.frombuffer(b"".join(padded), "<u4")
    return md4_words(words.reshape(len(messages), -1))


class TestMd4:
    @pytest.mark.parametrize("message,expected", MD4_VECTORS)
    def test_rfc_vectors(self, message, expected):
        out = md4([message])
        assert out.shape == (1, 16) and out[0].tobytes().hex() == expected

    @pytest.mark.parametrize("message,expected", MD4_VECTORS)
    def test_rfc_vectors_batched(self, message, expected):
        out = md4([message] * 3)
        assert out.shape == (3, 16)
        assert [row.tobytes() for row in out] == [bytes.fromhex(expected)] * 3

    def test_multi_block_messages(self):
        # the padding boundaries around one and two 64-byte blocks, against
        # the oracle's MD4
        rng = random.Random(1320)
        for n in (55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 200):
            messages = [b"x" * n] + [rng.randbytes(n) for _ in range(3)]
            out = md4(messages)
            assert [row.tobytes() for row in out] == [
                fixtures.oracle.md4(m) for m in messages]

    def test_oracle_passes_rfc_suite(self):
        # the reference the tests check MD4 and NTLM against
        assert fixtures.oracle.md4_self_test()


class TestBackends:
    @pytest.mark.parametrize("password,expected", fixtures.TOY1_CANDIDATES)
    def test_crc32_toy_table(self, password, expected):
        assert hashers.digest("crc32", password).hex == expected.lower()

    @pytest.mark.parametrize("password,prefix", fixtures.TOY2_CANDIDATES)
    def test_sha256_toy_table(self, password, prefix):
        assert hashers.digest("sha256", password).hex.startswith(prefix)

    def test_ntlm_case_study(self):
        d = hashers.digest("ntlm", fixtures.NTLM_TARGET_PASSWORD)
        assert d.hex == fixtures.NTLM_TARGET_HEX

    def test_known_answers(self):
        assert hashers.digest("crc32", b"").hex == "00000000"
        assert hashers.digest("crc32", b"abc").hex == "352441c2"
        assert hashers.digest("sha256", b"").hex == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
        assert hashers.digest("sha256", b"abc").hex == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
        assert hashers.digest("ntlm", b"").hex == (
            "31d6cfe0d16ae931b73c59d7e0c089c0")
        assert hashers.digest("ntlm", b"password").hex == (
            "8846f7eaee8fb117ad06bdd830b7586c")

    def test_ntlm_handles_multibyte_utf8(self):
        # U+00E9 encodes to one UTF-16 unit; must not be treated bytewise
        d = hashers.digest("ntlm", "é".encode("utf-8"))
        assert d.hex == fixtures.oracle.md4("é".encode("utf-16-le")).hex()

    def test_ntlm_rejects_invalid_utf8(self):
        with pytest.raises(CandidateEncodingError):
            hashers.raw_digest("ntlm", b"\xe9abc")

    @pytest.mark.parametrize("algo", ["crc32", "ntlm", "sha256"])
    def test_raw_fn_is_the_kernel_on_one_row(self, algo):
        raw, kernel = hashers.raw_fn(algo), hashers.block_fn(algo)
        for pw in (b"", b"password", "é".encode(), b"x" * 200):
            m, hashed = kernel(hashers.as_parts([pw]))
            assert hashed is None and raw(pw) == m[0].tobytes()
        if algo == "ntlm":
            m, hashed = kernel(hashers.as_parts([b"\xe9abc"]))
            assert len(m) == 0 and len(hashed) == 0
            with pytest.raises(CandidateEncodingError):
                raw(b"\xe9abc")

    def test_unknown_algo(self):
        with pytest.raises(UnknownAlgoError):
            hashers.digest("md5", b"x")

    @pytest.mark.parametrize("algo", ["crc32", "ntlm", "sha256"])
    def test_digest_lengths_random_inputs(self, algo):
        desc = hashers.descriptor(algo)
        rng = random.Random(1234)
        for _ in range(10_000):
            pw = bytes(rng.randrange(32, 127) for _ in range(rng.randrange(0, 24)))
            d = hashers.digest(algo, pw)
            assert len(d) == desc.digest_nibbles

    def test_determinism_across_threads(self):
        inputs = [b"pw-%d" % i for i in range(200)]
        expected = [hashers.raw_digest("sha256", pw) for pw in inputs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(4):
                got = list(pool.map(lambda pw: hashers.raw_digest("sha256", pw),
                                    inputs))
                assert got == expected


# candidates for the NTLM kernel: arbitrary bytes, valid UTF-8 (BMP and
# astral), lone surrogates encoded as UTF-8 (which Python rejects), and
# text long enough that its UTF-16LE form spans several MD4 blocks
_SURROGATES = st.integers(0xD800, 0xDFFF).map(
    lambda cp: bytes([0xE0 | cp >> 12, 0x80 | (cp >> 6) & 0x3F,
                      0x80 | cp & 0x3F]))
_candidate = st.one_of(
    st.binary(max_size=300),
    st.text(max_size=100).map(lambda t: t.encode("utf-8")[:300]),
    st.text(st.characters(min_codepoint=0x10000), max_size=75).map(
        lambda t: t.encode("utf-8")),
    st.tuples(st.text(max_size=20), _SURROGATES, st.text(max_size=20)).map(
        lambda p: p[0].encode("utf-8") + p[1] + p[2].encode("utf-8")),
    st.integers(0, 150).map(lambda n: "é".encode("utf-8") * n),
)


def _cut(text, at, left):
    """One side of text's UTF-8 bytes cut at byte at (mod its length)."""
    raw = text.encode("utf-8")
    at %= len(raw) + 1
    return raw[:at] if left else raw[at:]


# kernel-call fragments (prefixes and suffix rows): the candidates above;
# latin-1 text, which is not UTF-8 where accented; and a UTF-8 string cut
# at any byte, whose two sides may each not be UTF-8 while their join is
_fragment = st.one_of(
    _candidate,
    st.text(st.characters(min_codepoint=0x20, max_codepoint=0xFF),
            max_size=12).map(lambda t: t.encode("latin-1")),
    st.builds(_cut, st.text(max_size=12), st.integers(0, 60),
              st.booleans()),
)


@st.composite
def part_lists(draw, fragment):
    """Up to six parts over up to three suffix runs, as iter_blocks cuts
    them: parts share a run, and lo and hi may fall anywhere in it."""
    runs = draw(st.lists(st.lists(fragment, min_size=1, max_size=12),
                         min_size=1, max_size=3))
    parts = []
    for _ in range(draw(st.integers(0, 6))):
        run = runs[draw(st.integers(0, len(runs) - 1))]
        lo = draw(st.integers(0, len(run)))
        parts.append((draw(fragment), run, lo,
                      draw(st.integers(lo, len(run)))))
    return parts


def kernel_rows(algo, block):
    """kernel_part_rows over the password list as one part."""
    return kernel_part_rows(algo, hashers.as_parts(block))


def kernel_part_rows(algo, parts):
    """Run the block kernel over parts and check its contract: a uint8
    matrix of whole digests, and ascending range offsets of its rows, None
    only when every candidate was hashed.  Returns (range offset, digest)
    per row."""
    m, hashed = hashers.block_fn(algo)(parts)
    width = hashers.descriptor(algo).digest_nibbles // 2
    assert m.dtype == np.uint8 and m.shape == (len(m), width)
    block = fixtures.expand_parts(parts)
    if hashed is None:
        hashed = range(len(block))
    else:
        hashed = hashed.tolist()
        assert hashed == sorted(set(hashed)) and len(hashed) < len(block)
    assert len(hashed) == len(m)
    return [(i, row.tobytes()) for i, row in zip(hashed, m)]


class TestNtlmKernel:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_candidate, max_size=40))
    def test_matches_md4_oracle(self, block):
        assert kernel_rows("ntlm", block) == oracle_rows("ntlm", block)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_parts_match_md4_oracle(self, data):
        parts = data.draw(part_lists(_fragment))
        assert kernel_part_rows("ntlm", parts) == oracle_rows(
            "ntlm", fixtures.expand_parts(parts))

    def test_prefix_and_suffix_each_not_utf8(self):
        # "é" cut in two, latin-1, a lone continuation byte: either side
        # alone is not UTF-8, and some of the joins are
        run = [b"\xa9", b"\xa9x", b"x", b"\xa9\xa9", "é".encode(), b""]
        parts = [(b"caf\xc3", run, 0, 6), (b"\xe9t\xe9", run, 1, 5),
                 (b"\xf0\x9f\x94", [b"\x91", b"\x91\xc3"], 0, 2),
                 (b"ok", run, 2, 4)]
        block = fixtures.expand_parts(parts)
        rows = kernel_part_rows("ntlm", parts)
        assert rows == oracle_rows("ntlm", block)
        assert [block[i] for i, _ in rows] == [
            "café".encode(), "caféx".encode(), "\U0001f511".encode(), b"okx"]

    def test_each_row_in_use_is_encoded_once(self, monkeypatch):
        # a range across two blocks of a run larger than the range (a
        # hybrid ?w slot last, over more words than the block cap) encodes
        # the rows it uses, not the rows between them
        encoded = []

        def counting(text):
            encoded.append(text)
            return utf16(text)

        utf16 = hashers._utf16
        monkeypatch.setattr(hashers, "_utf16", counting)
        words = [b"w%d" % i for i in range(1000)]
        parts = [(b"1", words, 990, 1000), (b"2", words, 0, 5),
                 (b"3", words, 3, 8)]
        rows = kernel_part_rows("ntlm", parts)
        assert rows == oracle_rows("ntlm", fixtures.expand_parts(parts))
        assert sorted(encoded) == sorted(
            words[990:] + words[:8] + [b"", b"1", b"2", b"3"])

    def test_password_list_with_empty_passwords(self):
        block = [b"", b"a", b"", "é".encode(), b"\xff", b""]
        rows = kernel_rows("ntlm", block)
        assert rows == oracle_rows("ntlm", block)
        assert [i for i, _ in rows] == [0, 1, 2, 3, 5]


@st.composite
def vectors(draw, nibbles):
    """Free except at up to four positions, so some rows pass; one draw in
    ten of a restricted position is an empty range (hi < lo)."""
    bounds = [(0, 15)] * nibbles
    for i in draw(st.lists(st.integers(0, nibbles - 1), max_size=4)):
        a, b = draw(st.integers(0, 15)), draw(st.integers(0, 15))
        empty = a != b and draw(st.integers(0, 9)) == 0
        bounds[i] = (max(a, b), min(a, b)) if empty else (min(a, b), max(a, b))
    return PredicateVector(tuple(bounds))


def oracle_rows(algo, block):
    """(block index, oracle digest) for each candidate the oracle hashes;
    for ntlm, those that are UTF-8."""
    digests = [fixtures.oracle_digest(algo, pw) for pw in block]
    return [(i, d) for i, d in enumerate(digests) if d is not None]


def kernel_oracle(algo, v, block):
    """Hash one candidate at a time with the oracle and filter with the
    pure predicate: (hits in block order, skipped)."""
    rows = oracle_rows(algo, block)
    hits = [(block[i], d) for i, d in rows
            if eval_predicate(v, Digest.from_bytes(d))]
    return hits, len(block) - len(rows)


def scan_block(algo, v, block):
    """The engine's scan of one range holding exactly this block, its
    hit batch as (password, digest) pairs."""
    spec = keyspace.make_keyspace("wordlist:w", words=block)
    hashed, skipped, hits = engine._scan_range(engine.compile_filter(v), spec,
                                               algo, 0, len(block))
    assert hashed == len(block)
    assert hits.width == hashers.descriptor(algo).digest_nibbles // 2
    assert hits.lines() == b"".join(d.hex().encode() + b":" + pw + b"\n"
                                    for pw, d in hits.pairs())
    return hits.pairs(), skipped


class TestKernels:
    @pytest.mark.parametrize("algo", ["crc32", "sha256", "ntlm"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_hits_match_raw_fn_oracle(self, algo, data):
        nibbles = hashers.descriptor(algo).digest_nibbles
        v = data.draw(vectors(nibbles))
        block = data.draw(st.lists(
            _candidate if algo == "ntlm" else st.binary(max_size=20),
            max_size=60))
        assert kernel_rows(algo, block) == oracle_rows(algo, block)
        assert scan_block(algo, v, block) == kernel_oracle(algo, v, block)

    @pytest.mark.parametrize("algo", ["crc32", "sha256", "ntlm"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_parts_match_oracle(self, algo, data):
        parts = data.draw(part_lists(
            _fragment if algo == "ntlm" else st.binary(max_size=20)))
        assert kernel_part_rows(algo, parts) == oracle_rows(
            algo, fixtures.expand_parts(parts))

    def test_ntlm_block_with_length_groups_and_invalid_utf8(self):
        # interleaved UTF-16LE lengths and rows that are not UTF-8, so rows
        # from several length groups scatter back into block order
        words = [b"a", b"\xff", "é".encode(), b"ab", b"\xc3", b"abc",
                 "\U0001f511".encode(), b"\xed\xa0\x80", b"abcd", b"x"]
        block = [words[i % len(words)] + b"%d" % (i % 7) for i in range(200)]
        valid, _ = kernel_oracle("ntlm", zk_vector(32), block)
        assert len({len(pw.decode("utf-8").encode("utf-16-le"))
                    for pw, _ in valid}) >= 4
        rows = kernel_rows("ntlm", block)
        assert rows == oracle_rows("ntlm", block) and len(rows) == 140
        for v in (zk_vector(32),
                  PredicateVector(((0, 7), (0, 15)) + ((0, 15),) * 30),
                  PredicateVector(((0, 3), (4, 15)) + ((0, 15),) * 30)):
            hits, skipped = scan_block("ntlm", v, block)
            assert (hits, skipped) == kernel_oracle("ntlm", v, block)
            assert skipped == 60
            assert hits


class TestMeasureRate:
    def test_rates_positive_and_budget_enforced(self):
        with pytest.raises(ValueError):
            hashers.measure_rate("crc32", 99_999)
        rate = hashers.measure_rate("crc32", 100_000, refresh=True)
        assert rate > 0

    def test_rate_stable_under_doubled_budget(self):
        r1 = hashers.measure_rate("crc32", 100_000, refresh=True)
        r2 = hashers.measure_rate("crc32", 200_000, refresh=True)
        assert r1 / 2 < r2 < r1 * 2

    def test_crc32_faster_than_sha256(self):
        crc = hashers.measure_rate("crc32", 100_000, refresh=True)
        sha = hashers.measure_rate("sha256", 100_000, refresh=True)
        assert crc > sha
