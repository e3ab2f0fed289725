import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threepc.predicate import (
    Digest,
    LengthMismatchError,
    PredicateVector,
    cardinality,
    eval_predicate,
    from_hit_mask,
    is_13_smooth,
    parse_vector,
    serialize_vector,
    singleton_vector,
    zk_vector,
)

import fixtures


def brute_force_count(v: PredicateVector) -> int:
    """Independent oracle: enumerate the whole digest space and count."""
    return sum(
        1 for nibbles in product(range(16), repeat=len(v))
        if eval_predicate(v, Digest(nibbles))
    )


def enumerate_decoys(v: PredicateVector) -> list[Digest]:
    """The decoy set as the product of the ranges (empty if one is)."""
    return [Digest(n) for n in
            product(*(range(lo, hi + 1) for lo, hi in v.bounds))]


def read_mask(v: PredicateVector) -> tuple[str, str]:
    """(masked-digest hex, mask hex) read off a byte-granular vector's
    bounds: a byte with both nibbles pinned sets its mask bit and shows
    its value, a fully free byte shows 00; any other byte fails."""
    masked, bits = "", ""
    for hi, lo in zip(v.bounds[::2], v.bounds[1::2]):
        if hi == lo == (0, 15):
            masked, bits = masked + "00", bits + "0"
        else:
            assert hi[0] == hi[1] and lo[0] == lo[1], (hi, lo)
            masked, bits = masked + f"{hi[0]:x}{lo[0]:x}", bits + "1"
    return masked, format(int(bits, 2), f"0{(len(bits) + 3) // 4}x")


def random_vector(rng: random.Random, length: int) -> PredicateVector:
    bounds = []
    for _ in range(length):
        a, b = rng.randint(0, 15), rng.randint(0, 15)
        if rng.random() < 0.9:
            a, b = min(a, b), max(a, b)
        bounds.append((a, b))
    return PredicateVector(tuple(bounds))


vectors = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15)), min_size=1, max_size=64
).map(lambda bs: PredicateVector(tuple(bs)))


class TestEvalPredicate:
    def test_two_nibble_example(self):
        v = PredicateVector(((2, 5), (0xC, 0xD)))
        assert eval_predicate(v, Digest((3, 0xC)))

    def test_singleton_set(self):
        t = Digest.from_hex("c6bfaba2")
        v = singleton_vector(t)
        assert eval_predicate(v, t)
        other = Digest.from_hex("c6bfaba3")
        assert not eval_predicate(v, other)

    def test_toy1_target_in_toy1_vector(self):
        v = PredicateVector(fixtures.TOY1_VECTOR_BOUNDS)
        assert eval_predicate(v, Digest.from_hex(fixtures.TOY1_TARGET_HEX))

    def test_all_table1_rows_satisfy_vector(self):
        v = PredicateVector(fixtures.TOY1_VECTOR_BOUNDS)
        for _, digest_hex in fixtures.TOY1_CANDIDATES:
            assert eval_predicate(v, Digest.from_hex(digest_hex))

    def test_length_mismatch_raises(self):
        with pytest.raises(LengthMismatchError):
            eval_predicate(zk_vector(4), Digest.from_hex("ab"))


class TestCardinality:
    def test_toy1_vector_is_5880(self):
        assert cardinality(PredicateVector(fixtures.TOY1_VECTOR_BOUNDS)) == 5880

    def test_two_nibble_matches_brute_force(self):
        v = PredicateVector(((2, 5), (0xC, 0xD)))
        assert brute_force_count(v) == 8
        assert cardinality(v) == 8

    def test_full_range(self):
        for l in (1, 4, 8):
            assert cardinality(zk_vector(l)) == 16 ** l

    def test_degenerate_range_is_zero(self):
        v = PredicateVector(((3, 2), (0, 15)))
        assert cardinality(v) == 0
        assert enumerate_decoys(v) == []

    def test_oracle_equivalence_small_lengths(self):
        rng = random.Random(0xC0DE)
        for _ in range(60):
            v = random_vector(rng, rng.randint(1, 4))
            assert cardinality(v) == brute_force_count(v)

    @given(vectors)
    def test_thirteen_smooth(self, v):
        card = cardinality(v)
        assert card == 0 or is_13_smooth(card)

    def test_enumerate_decoys_matches_cardinality(self):
        rng = random.Random(7)
        for _ in range(20):
            v = random_vector(rng, 3)
            decoys = enumerate_decoys(v)
            assert len(decoys) == cardinality(v)
            # exactly the members of the whole 16^3 digest space
            assert set(decoys) == {
                Digest(n) for n in product(range(16), repeat=3)
                if eval_predicate(v, Digest(n))}


class TestZkVector:
    def test_cardinalities(self):
        assert cardinality(zk_vector(8)) == 16 ** 8
        assert cardinality(zk_vector(64)) == 16 ** 64

    @given(st.lists(st.integers(0, 15), min_size=8, max_size=8))
    def test_accepts_every_digest(self, nibbles):
        assert eval_predicate(zk_vector(8), Digest(tuple(nibbles)))

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            zk_vector(0)


class TestSerialization:
    def test_toy2_vector_round_trips(self):
        v = parse_vector(fixtures.TOY2_VECTOR_HEX)
        assert v.bounds[:4] == ((7, 0xC), (2, 7), (3, 8), (5, 0xC))
        assert serialize_vector(v) == fixtures.TOY2_VECTOR_HEX

    def test_singleton_doubles_nibbles(self):
        t = Digest.from_hex(fixtures.NTLM_TARGET_HEX)
        text = serialize_vector(singleton_vector(t))
        expected = "".join(c + c for c in fixtures.NTLM_TARGET_HEX)
        assert text == expected

    def test_zk_vector_of_two(self):
        assert serialize_vector(zk_vector(2)) == "0f0f"

    def test_case_insensitive_parse(self):
        assert parse_vector("0F2c") == parse_vector("0f2C")

    def test_round_trip_10k_random_vectors(self):
        rng = random.Random(0xBEEF)
        for _ in range(10_000):
            v = random_vector(rng, rng.randint(1, 64))
            assert parse_vector(serialize_vector(v)) == v

    @given(vectors)
    def test_round_trip_property(self, v):
        assert parse_vector(serialize_vector(v)) == v

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            parse_vector("0f0")

    def test_non_hex_rejected(self):
        with pytest.raises(ValueError):
            parse_vector("zz")


class TestHitMask:
    def test_case_study_vector(self):
        target = Digest.from_hex(fixtures.NTLM_TARGET_HEX)
        v = from_hit_mask(target, fixtures.NTLM_HIT_MASK)
        assert serialize_vector(v) == fixtures.NTLM_VECTOR_HEX
        assert cardinality(v) == 16 ** 26
        assert eval_predicate(v, target)

    def test_case_study_mask_round_trip(self):
        target = Digest.from_hex(fixtures.NTLM_TARGET_HEX)
        v = from_hit_mask(target, fixtures.NTLM_HIT_MASK)
        masked, mask = read_mask(v)
        assert masked == fixtures.NTLM_MASKED_HEX
        assert mask == fixtures.NTLM_HIT_MASK

    def test_all_ones_mask_is_singleton(self):
        target = Digest.from_hex(fixtures.NTLM_TARGET_HEX)
        v = from_hit_mask(target, "ffff")
        assert v == singleton_vector(target)
        assert cardinality(v) == 1

    def test_all_zero_mask_is_zk(self):
        target = Digest.from_hex(fixtures.NTLM_TARGET_HEX)
        v = from_hit_mask(target, "0000")
        assert v == zk_vector(32)

    def test_toy1_vector_not_expressible(self):
        # a range that is neither pinned nor full, so no mask gives it
        v = PredicateVector(fixtures.TOY1_VECTOR_BOUNDS)
        assert any(lo != hi and (lo, hi) != (0, 15) for lo, hi in v.bounds)
        target = Digest.from_hex(fixtures.TOY1_TARGET_HEX)
        assert v not in {from_hit_mask(target, f"{m:x}") for m in range(16)}

    def test_singleton_gives_full_mask(self):
        t = Digest.from_hex("c6bfaba2")
        assert from_hit_mask(t, "f") == singleton_vector(t)
        assert read_mask(singleton_vector(t)) == ("c6bfaba2", "f")

    def test_mask_length_must_match(self):
        target = Digest.from_hex(fixtures.NTLM_TARGET_HEX)
        with pytest.raises(LengthMismatchError):
            from_hit_mask(target, "c0010")

    @given(st.lists(st.booleans(), min_size=1, max_size=32),
           st.randoms(use_true_random=False))
    def test_round_trip_on_byte_granular_vectors(self, picks, rng):
        nibbles = tuple(rng.randint(0, 15) for _ in range(2 * len(picks)))
        target = Digest(nibbles)
        mask = int("".join("1" if p else "0" for p in picks), 2)
        mask_hex = format(mask, f"0{(len(picks) + 3) // 4}x")
        v = from_hit_mask(target, mask_hex)
        masked, mask_out = read_mask(v)
        assert mask_out == mask_hex
        assert from_hit_mask(Digest.from_hex(masked), mask_out) == v
        assert eval_predicate(v, target)
        assert cardinality(v) == 256 ** picks.count(False)


class TestDigest:
    def test_hex_round_trip(self):
        d = Digest.from_hex("8ac54208a85c340ae9b8b0cdb236f14c")
        assert d.hex == "8ac54208a85c340ae9b8b0cdb236f14c"
        assert len(d) == 32

    def test_from_bytes_nibble_order(self):
        assert Digest.from_bytes(b"\xc6\xbf").hex == "c6bf"

    def test_invalid_nibbles_rejected(self):
        with pytest.raises(ValueError):
            Digest((16,))
        with pytest.raises(ValueError):
            Digest(())

    def test_invalid_hex_rejected(self):
        with pytest.raises(ValueError):
            Digest.from_hex("0g")
