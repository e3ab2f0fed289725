import binascii
import functools
import hashlib
import math
import random
import tempfile
import tracemalloc
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threepc import hashers
from threepc.potfile import PotfileParseError, PotfileWriter
from threepc.predicate import (
    Digest,
    LengthMismatchError,
    PredicateVector,
    eval_predicate,
    parse_vector,
    zk_vector,
)
from threepc.verifier import (
    DEFAULT_SPOT_SAMPLE,
    DEFAULT_Z_THRESHOLD,
    SpotCheckResult,
    TargetLookup,
    VerificationVerdict,
    chk_cs,
    proof_of_work,
    spot_check,
    verify,
)

import fixtures


def write_toy2_potfile(path):
    pairs = [(pw, hashers.raw_digest("sha256", pw))
             for pw, _ in fixtures.TOY2_CANDIDATES]
    with PotfileWriter(path) as writer:
        writer.write_batch(pairs)
    return pairs


class TestChkCs:
    def test_finds_toy2_target(self, tmp_path):
        pot = tmp_path / "toy2.pot"
        write_toy2_potfile(pot)
        target = hashers.digest("sha256", fixtures.TOY2_TARGET_PASSWORD)
        lookup = chk_cs(pot, target, "sha256")
        assert lookup.cracked
        assert lookup.cleartext == b"43256891"
        assert not lookup.forged_lines

    def test_empty_potfile_is_not_cracked(self, tmp_path):
        pot = tmp_path / "empty.pot"
        pot.write_bytes(b"")
        target = hashers.digest("sha256", b"whatever")
        assert not chk_cs(pot, target, "sha256").cracked

    def test_forged_line_rejected_and_flagged(self, tmp_path):
        pot = tmp_path / "forged.pot"
        target = hashers.digest("crc32", b"realpw")
        with PotfileWriter(pot) as writer:
            writer.write_batch([(b"wrongpw", bytes.fromhex(target.hex))])
        lookup = chk_cs(pot, target, "crc32")
        assert not lookup.cracked
        assert lookup.forged_lines == (1,)

    def test_password_the_kernel_skips_is_forged(self, tmp_path):
        # ntlm cannot hash bytes that are not UTF-8; such a line under the
        # target is forged, and a later honest one still cracks it
        pot = tmp_path / "skip.pot"
        target = hashers.digest("ntlm", b"secret")
        raw = bytes.fromhex(target.hex)
        with PotfileWriter(pot) as writer:
            writer.write_batch([(b"\xe9abc", raw), (b"secret", raw)])
        lookup = chk_cs(pot, target, "ntlm")
        assert lookup == TargetLookup(True, (b"secret",), (1,))
        spot = spot_check(pot, zk_vector(32), "ntlm", 10, rng=0)
        assert spot == SpotCheckResult(False, 2, (1,))

    def test_target_of_another_length_is_refused(self, tmp_path):
        pot = tmp_path / "crc32.pot"
        with PotfileWriter(pot) as writer:
            writer.write_batch([(b"pw", hashers.raw_digest("crc32", b"pw"))])
        with pytest.raises(LengthMismatchError):
            chk_cs(pot, hashers.digest("sha256", b"pw"), "crc32")

    def test_collisions_are_all_reported(self, tmp_path):
        # CRC-32 collides readily: find two preimages by birthday search
        rng = random.Random(31337)
        seen = {}
        pair = None
        while pair is None:
            pw = b"c%d" % rng.randrange(10 ** 9)
            h = hashers.raw_digest("crc32", pw)
            if h in seen and seen[h] != pw:
                pair = (seen[h], pw, h)
            seen[h] = pw
        first, second, raw = pair
        pot = tmp_path / "coll.pot"
        with PotfileWriter(pot) as writer:
            writer.write_batch([(first, raw), (second, raw)])
        lookup = chk_cs(pot, Digest.from_bytes(raw, "crc32"), "crc32")
        assert lookup.cracked
        assert lookup.cleartexts == (first, second)
        assert lookup.cleartext == first


class TestProofOfWork:
    def test_case_study_counts_pass(self):
        result = proof_of_work(fixtures.NTLM_OBSERVED_HITS,
                               fixtures.NTLM_EXPECTED_HITS, 5)
        assert result.passed
        assert result.z_score == pytest.approx(-1.37, abs=0.01)

    def test_zero_hits_against_toy1_expectation(self):
        # z = -19.63 / sqrt(19.63) = -4.4306: inside 5 sigma, outside 4
        z = -math.sqrt(19.63)
        assert proof_of_work(0, 19.63, 5).passed
        result = proof_of_work(0, 19.63, 4)
        assert not result.passed
        assert result.z_score == pytest.approx(z, abs=1e-9)

    def test_exact_match_is_zero(self):
        result = proof_of_work(42, 42.0, 0.001)
        assert result.passed
        assert result.z_score == 0.0

    def test_monotone_in_deviation(self):
        zs = [abs(proof_of_work(h, 100.0, 5).z_score)
              for h in (100, 110, 140, 200, 400)]
        assert zs == sorted(zs)

    def test_requires_positive_expectation(self):
        # and a finite one, and a positive threshold: each NaN among them
        # would fail every count
        for expected_r, z_threshold in [(0.0, 3.0), (math.nan, 3.0),
                                        (math.inf, 3.0), (1.0, math.nan),
                                        (1.0, -1.0), (1.0, 0.0)]:
            with pytest.raises(ValueError):
                proof_of_work(1, expected_r, z_threshold)


class TestSpotCheck:
    def test_honest_toy2_passes(self, tmp_path):
        pot = tmp_path / "toy2.pot"
        write_toy2_potfile(pot)
        v = parse_vector(fixtures.TOY2_VECTOR_HEX)
        result = spot_check(pot, v, "sha256", sample_size=9, rng=1)
        assert result.passed
        assert result.sampled == 9

    def test_corruption_detected(self, tmp_path):
        rng = random.Random(7)
        pairs = []
        for i in range(1000):
            pw = b"w%04d" % i
            raw = hashers.raw_digest("crc32", pw)
            pairs.append((pw, raw))
        # corrupt 1%: keep digests, swap in wrong passwords
        for i in rng.sample(range(1000), 10):
            pairs[i] = (b"fake%04d" % i, pairs[i][1])
        pot = tmp_path / "corrupt.pot"
        with PotfileWriter(pot) as writer:
            writer.write_batch(pairs)
        result = spot_check(pot, zk_vector(8), "crc32", sample_size=500, rng=3)
        assert not result.passed
        assert result.bad_lines

    def test_detects_predicate_violations(self, tmp_path):
        # honest hash, but digest outside the decoy set
        pw = b"outsider"
        raw = hashers.raw_digest("crc32", pw)
        pot = tmp_path / "outside.pot"
        with PotfileWriter(pot) as writer:
            writer.write_batch([(pw, raw)])
        narrow = PredicateVector(tuple(
            ((n + 1) % 16, (n + 1) % 16)
            for n in Digest.from_bytes(raw).nibbles))
        assert not spot_check(pot, narrow, "crc32", 10, rng=0).passed

    def test_vector_of_another_length_is_refused(self, tmp_path):
        pot = tmp_path / "empty.pot"
        pot.write_bytes(b"")
        with pytest.raises(LengthMismatchError):
            spot_check(pot, zk_vector(5), "crc32")

    def test_sample_size_must_be_positive(self, tmp_path):
        pot = tmp_path / "x.pot"
        pot.write_bytes(b"")
        with pytest.raises(ValueError):
            spot_check(pot, zk_vector(8), "crc32", sample_size=0)


class TestVerify:
    def test_full_verdict_on_honest_toy2(self, tmp_path):
        pot = tmp_path / "toy2.pot"
        write_toy2_potfile(pot)
        target = hashers.digest("sha256", fixtures.TOY2_TARGET_PASSWORD)
        v = parse_vector(fixtures.TOY2_VECTOR_HEX)
        verdict = verify(pot, target, v, "sha256", expected_r=10.24, rng=0)
        assert verdict.cracked
        assert verdict.cleartext == b"43256891"
        assert verdict.hit_count == 9
        assert verdict.pow_pass and verdict.spotcheck_pass
        assert verdict.honest
        assert verdict.z_score == pytest.approx(
            (9 - 10.24) / math.sqrt(10.24), abs=1e-9)

    @pytest.mark.parametrize("target_nibbles,vector_nibbles",
                             [(8, 5), (64, 8)])
    def test_lengths_are_checked_before_the_file_is_read(
            self, tmp_path, target_nibbles, vector_nibbles):
        target = Digest.from_hex("a" * target_nibbles, "crc32")
        v = zk_vector(vector_nibbles)
        (tmp_path / "empty.pot").write_bytes(b"")
        for pot in (tmp_path / "missing.pot", tmp_path / "empty.pot"):
            with pytest.raises(LengthMismatchError):
                verify(pot, target, v, "crc32", expected_r=1.0)

    def test_bad_flags_fail_before_the_file_is_read(self, tmp_path):
        target = hashers.digest("crc32", b"pw")
        for kwargs, match in [({"spot_sample": 0}, "sample_size"),
                              ({"z_threshold": math.nan}, "z_threshold"),
                              ({"z_threshold": -1.0}, "z_threshold"),
                              ({"expected_r": math.nan}, "expected_r"),
                              ({"expected_r": math.inf}, "expected_r")]:
            with pytest.raises(ValueError, match=match):
                verify(tmp_path / "missing.pot", target, zk_vector(8),
                       "crc32", **{"expected_r": 1.0, **kwargs})


# ---------------------------------------------------------------------------
# The three-pass verifier as it was before the single read: one strict
# per-line parse for each of the record count, the target lookup and the
# spot check.  It is the reference that the single read must reproduce.


def reference_records(path, width):
    data = Path(path).read_bytes()
    if not data:
        return []
    lines = data.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    records = []
    for i, line in enumerate(lines, start=1):
        if len(line) < width + 1:
            raise PotfileParseError("record shorter than digest field", i)
        if line[width:width + 1] != b":":
            raise PotfileParseError("missing ':' after digest field", i)
        digest_hex = line[:width]
        try:
            binascii.unhexlify(digest_hex)
        except binascii.Error:
            raise PotfileParseError("digest field is not hex", i) from None
        records.append((i, digest_hex.decode("ascii").lower(),
                        line[width + 1:]))
    return records


def oracle_hex(algo_id, password):
    """The oracle's digest of password as hex, None where it has none."""
    raw = fixtures.oracle_digest(algo_id, password)
    return None if raw is None else raw.hex()


def reference_chk_cs(path, target, algo_id):
    width = hashers.descriptor(algo_id).digest_nibbles
    cleartexts, forged = [], []
    for line_no, digest_hex, password in reference_records(path, width):
        if digest_hex != target.hex:
            continue
        if oracle_hex(algo_id, password) == target.hex:
            cleartexts.append(password)
        else:
            forged.append(line_no)
    return TargetLookup(bool(cleartexts), tuple(cleartexts), tuple(forged))


def reference_spot_check(path, v, algo_id, sample_size, rng):
    if sample_size < 1:
        raise ValueError("sample_size must be >= 1")
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    width = hashers.descriptor(algo_id).digest_nibbles
    records = reference_records(path, width)
    if not records:
        return SpotCheckResult(True, 0)
    k = min(sample_size, len(records))
    bad = []
    for line_no, digest_hex, password in rng.sample(records, k):
        fresh = oracle_hex(algo_id, password)
        if fresh != digest_hex or not eval_predicate(v, Digest.from_hex(fresh)):
            bad.append(line_no)
    bad.sort()
    return SpotCheckResult(not bad, k, tuple(bad))


def reference_verify(path, target, v, algo_id, expected_r,
                     z_threshold=DEFAULT_Z_THRESHOLD,
                     spot_sample=DEFAULT_SPOT_SAMPLE, rng=None):
    width = hashers.descriptor(algo_id).digest_nibbles
    hit_count = len(reference_records(path, width))
    lookup = reference_chk_cs(path, target, algo_id)
    pow_result = proof_of_work(hit_count, expected_r, z_threshold)
    spot = reference_spot_check(path, v, algo_id, spot_sample, rng)
    return VerificationVerdict(
        cracked=lookup.cracked, cleartext=lookup.cleartext,
        hit_count=hit_count, expected_r=expected_r,
        z_score=pow_result.z_score, pow_pass=pow_result.passed,
        spotcheck_pass=spot.passed, sampled=spot.sampled,
        forged_lines=lookup.forged_lines)


# ---------------------------------------------------------------------------
# Seeded crc32 potfiles of 5x10^3 lines and their pinned verdicts.

GOLDEN_LINES = 5000
# a quarter of all crc32 digests: nibble 0 in [2, 9], nibble 1 in [4, 11]
GOLDEN_VECTOR = PredicateVector(((2, 9), (4, 11)) + ((0, 15),) * 6)


def crc_hex(password):
    return "%08x" % zlib.crc32(password)


@functools.cache
def crc_collision():
    """Two passwords with one CRC-32, found by a seeded birthday search."""
    rng = random.Random(31337)
    seen = {}
    while True:
        pw = b"c%d" % rng.randrange(10 ** 9)
        h = zlib.crc32(pw)
        if h in seen and seen[h] != pw:
            return seen[h], pw
        seen[h] = pw


def golden_lines(rng, n, inside=True):
    """n (digest hex, password) pairs whose digests are (or, with
    inside=False, are not) in GOLDEN_VECTOR's decoy set."""
    lines = []
    while len(lines) < n:
        pw = b"g%d" % rng.randrange(10 ** 12)
        digest_hex = crc_hex(pw)
        if eval_predicate(GOLDEN_VECTOR, Digest.from_hex(digest_hex)) == inside:
            lines.append((digest_hex, pw))
    return lines


def write_lines(path, lines):
    path.write_bytes(b"".join(d.encode() + b":" + pw + b"\n" for d, pw in lines))


def golden_potfile(path, seed):
    """Honest lines, a few in uppercase hex; seed 1 plants the target,
    seed 2 leaves it out, seed 3 plants it and swaps the passwords of 1%
    of the lines."""
    rng = random.Random(seed)
    lines = golden_lines(rng, GOLDEN_LINES)
    target_hex = crc_hex(b"absent-target")
    if seed in (1, 3):
        target_hex = lines[rng.randrange(GOLDEN_LINES)][0]
    if seed == 3:
        for i in rng.sample(range(GOLDEN_LINES), GOLDEN_LINES // 100):
            lines[i] = (lines[i][0], b"swapped%d" % i)
    for i in rng.sample(range(GOLDEN_LINES), 25):
        lines[i] = (lines[i][0].upper(), lines[i][1])
    write_lines(path, lines)
    return Digest.from_hex(target_hex, "crc32")


def collision_potfile(path):
    """Honest lines, then a planted target, a forged target line and a
    second preimage of the target (a CRC-32 collision) at seeded places."""
    rng = random.Random(4)
    lines = golden_lines(rng, GOLDEN_LINES)
    first, second = crc_collision()
    target_hex = crc_hex(first)
    for pos, pw in zip(sorted(rng.sample(range(GOLDEN_LINES), 3)),
                       (first, b"forged-password", second)):
        lines[pos] = (target_hex, pw)
    write_lines(path, lines)
    return Digest.from_hex(target_hex, "crc32")


def verdict_row(verdict):
    return (verdict.cracked, verdict.cleartext, verdict.hit_count,
            verdict.expected_r, verdict.z_score.hex(), verdict.pow_pass,
            verdict.spotcheck_pass, verdict.sampled, verdict.forged_lines)


# seed -> (expected_r, spot sample, pinned verdict row)
GOLDEN_VERDICTS = {
    1: (5000.0, 1000, (True, b"g395067229658", 5000, 5000.0, "0x0.0p+0",
                       True, True, 1000, ())),
    2: (4000.0, 1000, (False, None, 5000, 4000.0, "0x1.f9f6e4990f227p+3",
                       False, True, 1000, ())),
    3: (5100.0, 200, (True, b"g982465967439", 5000, 5100.0,
                      "-0x1.6678c16e23f38p+0", True, False, 200, ())),
}
GOLDEN_COLLISION_VERDICT = (True, b"c239207535", 5000, 5000.0, "0x0.0p+0",
                            True, True, 1000, (3017,))
# the 12 lines the spot check draws from the all-outside file with rng 21,
# sorted, and a digest of the sorted default-size sample
GOLDEN_SAMPLE_12 = (27, 1352, 1504, 1770, 1934, 2305, 3425, 3889, 3925,
                    4138, 4199, 4322)
GOLDEN_SAMPLE_1000_SHA256 = (
    "70046990890b4edea11b17c9f8de85851caaf00630a9f586b39844b0e4c8d709")


class TestGoldenVerify:
    @pytest.mark.parametrize("seed", sorted(GOLDEN_VERDICTS))
    def test_verdicts_are_pinned(self, tmp_path, seed):
        pot = tmp_path / f"golden{seed}.pot"
        target = golden_potfile(pot, seed)
        expected_r, sample, row = GOLDEN_VERDICTS[seed]
        verdict = verify(pot, target, GOLDEN_VECTOR, "crc32", expected_r,
                         spot_sample=sample, rng=seed ^ 0x5F0F)
        assert verdict_row(verdict) == row

    def test_collision_verdict_is_pinned(self, tmp_path):
        pot = tmp_path / "collision.pot"
        target = collision_potfile(pot)
        verdict = verify(pot, target, GOLDEN_VECTOR, "crc32", 5000.0, rng=4)
        assert verdict_row(verdict) == GOLDEN_COLLISION_VERDICT
        assert verdict.cleartext == crc_collision()[0]

    def test_spot_sample_is_pinned(self, tmp_path):
        # every line fails the predicate, so bad_lines is the whole sample
        pot = tmp_path / "outside.pot"
        write_lines(pot, golden_lines(random.Random(21), GOLDEN_LINES, False))
        small = spot_check(pot, GOLDEN_VECTOR, "crc32", 12, rng=21)
        assert small == SpotCheckResult(False, 12, GOLDEN_SAMPLE_12)
        full = spot_check(pot, GOLDEN_VECTOR, "crc32", rng=21)
        assert full.sampled == len(set(full.bad_lines)) == DEFAULT_SPOT_SAMPLE
        assert hashlib.sha256(repr(full.bad_lines).encode()).hexdigest() == \
            GOLDEN_SAMPLE_1000_SHA256
        verdict = verify(pot, Digest.from_hex(crc_hex(b"x"), "crc32"),
                         GOLDEN_VECTOR, "crc32", 5000.0, rng=21)
        assert not verdict.spotcheck_pass
        assert verdict.sampled == DEFAULT_SPOT_SAMPLE


# ---------------------------------------------------------------------------
# The single read against the three-pass reference on generated potfiles.

SHA256_TARGET_PW = b"sha-target"
PASSWORDS = st.lists(st.sampled_from([b"a", b"Z", b"0", b":", b"\r", b" ",
                                      b"\xff", b"\xc3\xa9"]),
                     max_size=6).map(b"".join)
GOOD_KINDS = st.sampled_from(
    ["honest"] * 4 + ["wrong", "target", "forged", "collide", "upper"])
BAD_KINDS = st.sampled_from(["short", "nosep", "nothex", "nonascii", "blank"])


def generated_line(algo, kind, password, target_hex, width):
    # a password the oracle cannot hash (ntlm, not UTF-8) gets a made-up
    # digest, so its lines exercise the kernel's skip path
    honest = ((oracle_hex(algo, password) or "0" * width)
              if kind != "target" else None)
    if kind == "honest":
        return honest.encode() + b":" + password
    if kind == "upper":
        return honest.upper().encode() + b":" + password
    if kind == "wrong":
        return honest.encode() + b":" + password + b"!"
    if kind == "target":
        pw = crc_collision()[0] if algo == "crc32" else SHA256_TARGET_PW
        return target_hex.encode() + b":" + pw
    if kind == "forged":
        return target_hex.encode() + b":" + password + b"-forged"
    if kind == "collide":
        pw = crc_collision()[1] if algo == "crc32" else SHA256_TARGET_PW
        return target_hex.upper().encode() + b":" + pw
    if kind == "short":
        return honest.encode()[:len(password) % (width + 1)]
    if kind == "nosep":
        return honest.encode() + b";" + password
    if kind == "nothex":
        return honest.encode()[:-1] + b"g:" + password
    if kind == "nonascii":
        return b"\xc3" + honest.encode()[1:] + b":" + password
    return b""


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PotfileParseError as exc:
        return ("error", exc.line_no, str(exc))


@settings(max_examples=150, deadline=None)
@given(algo=st.sampled_from(["crc32", "sha256", "ntlm"]),
       lines=st.lists(st.tuples(GOOD_KINDS, PASSWORDS), max_size=40),
       bad_lines=st.lists(st.tuples(st.integers(0, 40), BAD_KINDS, PASSWORDS),
                          max_size=2),
       trailing_newline=st.booleans(),
       lo=st.integers(0, 15), spread=st.integers(0, 15),
       spot_sample=st.integers(1, 12), seed=st.integers(0, 2 ** 32),
       expected_r=st.floats(0.5, 60.0))
def test_single_read_matches_reference(algo, lines, bad_lines,
                                       trailing_newline, lo, spread,
                                       spot_sample, seed, expected_r):
    width = hashers.descriptor(algo).digest_nibbles
    for pos, kind, pw in bad_lines:
        lines.insert(pos, (kind, pw))
    target_pw = crc_collision()[0] if algo == "crc32" else SHA256_TARGET_PW
    target = hashers.digest(algo, target_pw)
    data = b"\n".join(generated_line(algo, kind, pw, target.hex, width)
                      for kind, pw in lines)
    if lines and trailing_newline:
        data += b"\n"
    v = PredicateVector(((lo, min(15, lo + spread)),) + ((0, 15),) * (width - 1))
    with tempfile.TemporaryDirectory() as tmp:
        pot = Path(tmp) / "generated.pot"
        pot.write_bytes(data)
        args = (pot, target, v, algo, expected_r)
        kwargs = {"spot_sample": spot_sample, "rng": seed}
        assert outcome(verify, *args, **kwargs) == \
            outcome(reference_verify, *args, **kwargs)


def test_verify_peak_memory_is_a_few_times_the_file(tmp_path):
    pot = tmp_path / "large.pot"
    passwords = [b"m%07d" % i for i in range(200_000)]
    with PotfileWriter(pot) as writer:
        writer.write_batch([(pw, hashers.raw_digest("crc32", pw))
                            for pw in passwords])
    size = pot.stat().st_size
    target = hashers.digest("crc32", passwords[123_456])
    tracemalloc.start()
    try:
        verdict = verify(pot, target, zk_vector(8), "crc32", 2e5, rng=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.cracked and verdict.honest
    # one copy of the file, its line offsets and its digest matrix
    assert peak <= 4 * size
