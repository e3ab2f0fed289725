"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The whole suite is
self-contained and CPU-bound; the slowest items are the full 10^8-hash
brute-force reproduction (criterion 1) and the two 10^7-hash throughput
probes (criterion 5).
"""

import math
import os
import random
import sys
import time

import pytest

from threepc import engine, hashers, keyspace, planner, verifier
from threepc.cli import EXIT_FOUL_PLAY, EXIT_OK, client_main
from threepc.engine import ListSink, crack, crack_parallel
from threepc.planner import Plan, build_plan, gen_v, plan_nv, smooth_search
from threepc.potfile import PotfileWriter, iter_potfile
from threepc.predicate import (
    Digest,
    PredicateVector,
    cardinality,
    eval_predicate,
    from_hit_mask,
    is_13_smooth,
    parse_vector,
    serialize_vector,
)
from threepc.protocol import CrackServer, run_job
from threepc.verifier import proof_of_work

import fixtures

N_WORKERS = os.cpu_count() or 2


def report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS — {detail}", file=sys.stderr)


def synthetic_corpus(seed: int, size: int) -> tuple[bytes, ...]:
    rng = random.Random(seed)
    return tuple(rng.randbytes(12).hex().encode() for _ in range(size))


def test_criterion_1_toy2_exact_reproduction(tmp_path):
    """Full 10^8 SHA-256 brute force reproduces the expected 9 rows."""
    target = hashers.digest("sha256", fixtures.TOY2_TARGET_PASSWORD)
    plan = Plan(
        target_hex=target.hex, algo_id="sha256",
        keyspace_descriptor="mask:" + "?d" * 8, keyspace_size=10 ** 8,
        r=10.0, nv_target=float(plan_nv(10 ** 8, 10, 64).nv_target),
        tolerance=0.05, seed=0, vector_hex=fixtures.TOY2_VECTOR_HEX,
        cardinality=cardinality(parse_vector(fixtures.TOY2_VECTOR_HEX)),
        expected_candidates=planner.expected_candidates(
            parse_vector(fixtures.TOY2_VECTOR_HEX), 10 ** 8),
        deniability=planner.deniability(
            parse_vector(fixtures.TOY2_VECTOR_HEX)),
    )
    plan_path = tmp_path / "toy2.plan"
    plan_path.write_text(plan.to_text())
    pot_path = tmp_path / "toy2.pot"

    start = time.perf_counter()
    code = client_main([
        "run", "--plan", str(plan_path), "--out", str(pot_path),
        "--offline", "--workers", str(N_WORKERS),
    ])
    elapsed = time.perf_counter() - start
    assert code == EXIT_OK

    rows = list(iter_potfile(pot_path, 64))
    got = sorted((password, digest[:32]) for _, digest, password in rows)
    expected = sorted((pw, prefix) for pw, prefix in fixtures.TOY2_CANDIDATES)
    assert got == expected  # exact multiset, all 9 rows

    assert client_main(["verify", "--plan", str(plan_path),
                        "--potfile", str(pot_path)]) == EXIT_OK
    report(1, f"9/9 expected rows reproduced from 10^8 SHA-256 "
              f"({elapsed:.0f}s, {N_WORKERS} workers); verify exits 0")


def test_criterion_2_toy1_fixture_suite():
    v = PredicateVector(fixtures.TOY1_VECTOR_BOUNDS)
    for password, digest_hex in fixtures.TOY1_CANDIDATES:
        digest = hashers.digest("crc32", password)
        assert digest.hex == digest_hex.lower()
        assert eval_predicate(v, digest)
    assert cardinality(v) == 5880

    params = plan_nv(fixtures.TOY1_KEYSPACE_SIZE, fixtures.TOY1_R, 8)
    assert abs(float(params.nv_target) - 5988.36) <= 0.01
    expected = planner.expected_candidates(v, fixtures.TOY1_KEYSPACE_SIZE)
    assert abs(expected - 19.63) <= 0.01
    report(2, f"20/20 dictionary rows re-hash and satisfy the vector; "
              f"|decoys|=5880, nv={float(params.nv_target):.2f}, "
              f"r={expected:.2f}")


def test_criterion_3_ntlm_case_study_formulas():
    digest = hashers.digest("ntlm", fixtures.NTLM_TARGET_PASSWORD)
    assert digest.hex == fixtures.NTLM_TARGET_HEX

    v = from_hit_mask(digest, fixtures.NTLM_HIT_MASK)
    assert cardinality(v) == 16 ** 26
    assert serialize_vector(v) == fixtures.NTLM_VECTOR_HEX

    expected = planner.expected_candidates(v, fixtures.NTLM_KEYSPACE_SIZE)
    assert abs(expected - fixtures.NTLM_EXPECTED_HITS) <= 1

    pow_result = proof_of_work(fixtures.NTLM_OBSERVED_HITS,
                               fixtures.NTLM_EXPECTED_HITS, 5)
    assert pow_result.passed
    assert abs(pow_result.z_score - (-1.37)) <= 0.01
    report(3, f"NTLM digest exact; |decoys|=16^26; expected hits "
              f"{expected:,.0f}; z={pow_result.z_score:.3f} passes at 5")


def _random_instance(rng: random.Random):
    kind = rng.randrange(3)
    if kind == 0:
        tokens = "".join(rng.choice(("?d", "?l", "?u")) for _ in
                         range(rng.randint(2, 3)))
        spec = keyspace.make_keyspace("mask:" + tokens)
    elif kind == 1:
        words = synthetic_corpus(rng.randrange(2 ** 30),
                                 rng.randint(1, 30_000))
        spec = keyspace.make_keyspace("wordlist:w", words=words)
    else:
        words = synthetic_corpus(rng.randrange(2 ** 30),
                                 rng.randint(1, 2_000))
        spec = keyspace.make_keyspace("hybrid:w:?w?d", words=words)

    if rng.random() < 0.5:
        bounds = []
        for _ in range(8):
            a, b = rng.randint(0, 15), rng.randint(0, 15)
            bounds.append((min(a, b), max(a, b)))
        v = PredicateVector(tuple(bounds))
    else:
        # vector seeded around a keyspace member: guarantees intersections
        member = next(keyspace.enumerate_range(spec, 0, 1))
        target = hashers.digest("crc32", member)
        widths = planner.SlotPacking(
            tuple(rng.randint(1, 16) for _ in range(8)))
        v = gen_v(target, widths, rng)
    return v, spec


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(0xCAFE)
    total_candidates = 0
    for _ in range(200):
        v, spec = _random_instance(rng)
        size = keyspace.spec_cardinality(spec)
        assert size <= 10 ** 5
        total_candidates += size
        sink = ListSink()
        rep = crack(v, spec, "crc32", sink)
        oracle = []
        for pw in keyspace.enumerate_candidates(spec):
            raw = hashers.raw_digest("crc32", pw)
            if eval_predicate(v, Digest.from_bytes(raw)):
                oracle.append((pw, raw))
        assert sorted(sink.pairs) == sorted(oracle)
        assert rep.hashed_count == size

    # exhaustive cardinality oracle for short vectors
    from itertools import product
    for _ in range(60):
        length = rng.randint(1, 4)
        bounds = []
        for _ in range(length):
            a, b = rng.randint(0, 15), rng.randint(0, 15)
            if rng.random() < 0.9:
                a, b = min(a, b), max(a, b)
            bounds.append((a, b))
        v = PredicateVector(tuple(bounds))
        count = sum(1 for nib in product(range(16), repeat=length)
                    if eval_predicate(v, Digest(nib)))
        assert cardinality(v) == count
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"criterion 4 overran its 1-minute budget: {elapsed:.0f}s"
    report(4, f"200/200 engine runs equal the brute-force oracle "
              f"({total_candidates:,} candidates); 60/60 exhaustive "
              f"cardinality checks; {elapsed:.0f}s")


def test_criterion_5_constant_time_lookup():
    spec = keyspace.make_keyspace("mask:" + "?d" * 7)  # fixed 10^7 candidates
    rng = random.Random(55)
    target = Digest(tuple(rng.randint(0, 15) for _ in range(64)), "sha256")
    small = from_hit_mask(target, "7fffffff")        # one free byte: 16^2
    large = from_hit_mask(target, "ffffe000")        # 13 free bytes: 16^26
    assert cardinality(small) == 16 ** 2
    assert cardinality(large) == 16 ** 26

    def throughput(v) -> float:
        sink = ListSink()
        rep = crack(v, spec, "sha256", sink)
        assert rep.hashed_count == 10 ** 7
        return rep.rate

    # interleave and keep the best of two runs each to damp scheduler noise
    rates = {"small": 0.0, "large": 0.0}
    for _ in range(2):
        rates["small"] = max(rates["small"], throughput(small))
        rates["large"] = max(rates["large"], throughput(large))
    spread = abs(rates["small"] - rates["large"]) / max(rates.values())
    assert spread < 0.10, rates
    report(5, f"10^7-candidate throughput: |decoys|=16^2 at "
              f"{rates['small']:,.0f} H/s vs 16^26 at "
              f"{rates['large']:,.0f} H/s ({spread:.1%} spread)")


def test_criterion_6_statistical_r_targeting():
    lo, hi = 50 - 5 * math.sqrt(50), 50 + 5 * math.sqrt(50)
    hits = []
    for seed in range(20):
        words = synthetic_corpus(seed, 10 ** 6)
        spec = keyspace.make_keyspace("wordlist:synthetic", words=words)
        rng = random.Random(seed ^ 0xABCD)
        target = Digest(tuple(rng.randint(0, 15) for _ in range(8)), "crc32")
        plan = build_plan(target, "crc32", "wordlist:synthetic", len(words),
                          50, seed=seed)
        sink = ListSink()
        crack_parallel(parse_vector(plan.vector_hex), spec, "crc32", sink,
                       n_workers=N_WORKERS)
        hits.append(len(sink.pairs))
    within = sum(1 for h in hits if lo <= h <= hi)
    assert within >= 19, hits
    report(6, f"{within}/20 corpora landed in [{lo:.1f}, {hi:.1f}] targeting "
              f"r=50 (counts: {sorted(hits)})")


def test_criterion_7_gen_v_invariants():
    rng = random.Random(0x6E57)
    widen_errors = 0
    for _ in range(10_000):
        nv = 10 ** rng.uniform(3, 70)
        target = Digest(tuple(rng.randint(0, 15) for _ in range(64)),
                        "sha256")
        try:
            found = smooth_search(nv, 64)
        except planner.WidenToleranceError:
            widen_errors += 1
            continue
        v = gen_v(target, found.packing, rng)
        assert eval_predicate(v, target)
        card = cardinality(v)
        assert card == found.factorization.value
        assert is_13_smooth(card)
        assert abs(card / nv - 1) <= 0.05
    assert widen_errors < 100  # < 1% of draws
    report(7, f"10^4 vector generations kept the target, stayed 13-smooth, "
              f"and landed within 5% of nv ({widen_errors} widen errors)")


def test_criterion_8_wire_privacy(tmp_path):
    rng = random.Random(0x8888)
    with CrackServer("127.0.0.1", 0, corpus_dir=None, workers=1) as server:
        server.serve_in_background()
        for trial in range(50):
            pw = b"s%07d" % rng.randrange(10 ** 7)
            target = hashers.digest("crc32", pw)
            target_hex = target.hex
            r = rng.choice((2.0, 5.0, 17.0))
            descriptor = rng.choice(
                ("mask:?d?d?d", "mask:?l?d", "mask:?d?d?d?d"))
            size = keyspace.spec_cardinality(
                keyspace.make_keyspace(descriptor))
            tx = bytearray()
            run_job(build_plan(target, "crc32", descriptor, size, r,
                               seed=trial),
                    server.address, tmp_path / f"s{trial}.pot", tx_log=tx)
            wire = bytes(tx)
            assert target_hex.encode() not in wire
            assert target_hex.upper().encode() not in wire
    report(8, "50/50 recorded client-to-server streams never contain the "
              "target digest hex")


def test_criterion_9_foul_play_detection(tmp_path):
    words = synthetic_corpus(0x900D, 10 ** 6)
    corpus_path = tmp_path / "corpus.txt"
    corpus_path.write_bytes(b"\n".join(words))
    target_pw = words[123_456]
    target = hashers.digest("crc32", target_pw)

    plan = build_plan(target, "crc32", "wordlist:synthetic", len(words),
                      900, seed=0x900D)
    plan_path = tmp_path / "foul.plan"
    plan_path.write_text(plan.to_text())
    pot_path = tmp_path / "honest.pot"
    assert client_main([
        "run", "--plan", str(plan_path), "--out", str(pot_path), "--offline",
        "--corpus-file", str(corpus_path), "--workers", str(N_WORKERS),
    ]) == EXIT_OK
    assert client_main([
        "verify", "--plan", str(plan_path), "--potfile", str(pot_path),
        "--spot-sample", "1000",
    ]) == EXIT_OK  # honest baseline: cracked, no foul play

    honest = pot_path.read_bytes().splitlines(keepends=True)
    detected = 0
    for trial in range(50):
        rng = random.Random(trial)
        doctored = tmp_path / f"doctored{trial}.pot"
        if trial % 2 == 0:
            keep = rng.sample(range(len(honest)),
                              int(len(honest) * 0.7))
            doctored.write_bytes(b"".join(honest[i] for i in sorted(keep)))
        else:
            lines = list(honest)
            n_forged = max(1, len(lines) // 100)
            for _ in range(n_forged):
                victim = lines[rng.randrange(len(lines))]
                digest_hex = victim[:8]
                lines.append(digest_hex + b":forged%06d\n"
                             % rng.randrange(10 ** 6))
            doctored.write_bytes(b"".join(lines))
        code = client_main([
            "verify", "--plan", str(plan_path), "--potfile", str(doctored),
            "--spot-sample", "1000", "--seed", str(trial),
        ])
        detected += code == EXIT_FOUL_PLAY
    assert detected == 50
    report(9, "50/50 doctored candidate sets (30% truncation / 1% "
              "fabrication) flagged as foul play, exit code 4")
