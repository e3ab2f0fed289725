import itertools
import math
import random
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threepc import planner
from threepc.planner import (
    DuplicatePlanError,
    Plan,
    PlanStore,
    SlotPacking,
    SmoothFactorization,
    WidenToleranceError,
    build_plan,
    deniability,
    expected_candidates,
    gen_v,
    guess_probability,
    multi_dataset_projection,
    pack_into_slots,
    plan_nv,
    smooth_search,
)
from threepc.predicate import (
    Digest,
    PredicateVector,
    cardinality,
    eval_predicate,
    is_13_smooth,
    parse_vector,
    zk_vector,
)

import fixtures


def oracle_smooth_search(target: float, length: int, tolerance: float):
    """Brute-force oracle: enumerate every 13-smooth number in the
    tolerance band, keep the packable ones, take the log-nearest
    (ties toward the smaller value)."""
    lo = target * math.exp(-tolerance)
    hi = target * math.exp(tolerance)
    primes = (2, 3, 5, 7, 11, 13)
    best = None

    def rec(idx, value, exps):
        nonlocal best
        if idx == len(primes):
            if lo <= value <= hi and pack_into_slots(exps, length) is not None:
                err = abs(math.log(value / target))
                if best is None or (err, value) < best[0]:
                    best = ((err, value), value)
            return
        p = primes[idx]
        e, v = 0, value
        while v <= hi:
            rec(idx + 1, v, exps + (e,))
            e += 1
            v *= p

    rec(0, 1, ())
    return None if best is None else best[1]


def reference_pack_into_slots(exponents, n_slots):
    """First-fit-decreasing one prime factor at a time: the reference for
    pack_into_slots, which places each prime slot by slot."""
    slots = [1] * n_slots
    for p, e in zip((13, 11, 7, 5, 3, 2), reversed(tuple(exponents))):
        for _ in range(e):
            for i in range(n_slots):
                if slots[i] * p <= 16:
                    slots[i] *= p
                    break
            else:
                return None
    return tuple(slots)


def reference_smooth_groups(digest_length):
    """The planner's tables built by nested loops, one Python float and int
    per entry: the reference for planner._SmoothGroups.  Returns
    (left_logs, left_packed, right_logs, right_packed), right sorted."""
    ln2, ln3, ln5, ln7, ln11, ln13 = (math.log(p)
                                      for p in (2, 3, 5, 7, 11, 13))
    cap = digest_length * math.log(16) + 1e-9
    left_logs, left_packed = [], []
    a = 0
    while a * ln2 <= cap:
        b = 0
        base = a * ln2
        while base + b * ln3 <= cap:
            left_logs.append(base + b * ln3)
            left_packed.append(a | (b << 16))
            b += 1
        a += 1
    right_logs, right_packed = [], []
    c = 0
    while c * ln5 <= cap:
        lc = c * ln5
        d = 0
        while lc + d * ln7 <= cap:
            ld = lc + d * ln7
            e = 0
            while ld + e * ln11 <= cap:
                le = ld + e * ln11
                f = 0
                while le + f * ln13 <= cap:
                    right_logs.append(le + f * ln13)
                    right_packed.append(c | (d << 8) | (e << 16) | (f << 24))
                    f += 1
                e += 1
            d += 1
        c += 1
    logs = np.asarray(right_logs)
    order = np.argsort(logs, kind="stable")
    return (np.asarray(left_logs), np.asarray(left_packed), logs[order],
            np.asarray(right_packed)[order])


# smooth_search outputs pinned for 69 seeded targets at l = 8, 32 and 64:
# log-uniform over the range, nv = r * 16^64 / |DS| as plan-sha256 draws
# it (l = 64 only), near the 16^l ceiling (the zone catalog), just below
# the catalog with ln(16^l / nv) in [2, 3.5] (l = 32 and 64, the band with
# the most window rounds), and a tolerance too tight for any value
# (WidenToleranceError; the row pins its nearest).  Row: (l, target
# float.hex, tolerance, exponents, log_error float.hex, widened, slot
# widths as hex nibbles of f - 1).
GOLDEN_SEARCHES = [
    (8, "0x1.db15bb7880631p+16", 0.05, (4, 2, 1, 0, 0, 2),
     "0x1.f63dce7220000p-12", False,
     "cceb3000"),
    (8, "0x1.6e93b552f7195p+15", 0.05, (0, 1, 6, 0, 0, 0),
     "-0x1.05e5827c40000p-10", False,
     "e4444400"),
    (8, "0x1.54515c03c9f66p+11", 0.05, (1, 1, 1, 1, 0, 1),
     "0x1.6689c73718000p-9", False,
     "cde00000"),
    (8, "0x1.12e5ee6888404p+10", 0.05, (2, 0, 2, 0, 1, 0),
     "0x1.845a85ce60000p-12", False,
     "a9900000"),
    (8, "0x1.a9860fae5a9c7p+4", 0.05, (0, 3, 0, 0, 0, 0),
     "0x1.eef5e675e1000p-7", False,
     "82000000"),
    (8, "0x1.568f4af113b59p+11", 0.05, (3, 0, 0, 3, 0, 0),
     "0x1.50b1e7eb68000p-10", False,
     "ddd00000"),
    (8, "0x1.7e6b2354ef556p+28", 0.05, (3, 3, 1, 0, 0, 5),
     "0x1.06dd2ff000000p-18", False,
     "ccccce87"),
    (8, "0x1.39327fd1d6968p+5", 0.05, (0, 1, 0, 0, 0, 1),
     "-0x1.f602b7a900000p-9", False,
     "c2000000"),
    (8, "0x1.3c625c1d2db46p+29", 0.05, (6, 1, 0, 0, 2, 4),
     "0x1.27492a1500000p-15", False,
     "ccccaabf"),
    (8, "0x1.4397b9cd32d20p+4", 0.05, (2, 0, 1, 0, 0, 0),
     "-0x1.6dd728f3b1000p-7", False,
     "91000000"),
    (8, "0x1.9889fbfdba75cp+26", 0.05, (1, 1, 4, 0, 0, 4),
     "0x1.2da19ac180000p-14", False,
     "cccce944"),
    (8, "0x1.8bc1de41c473bp+15", 0.05, (9, 2, 0, 0, 1, 0),
     "0x1.416d3913b0000p-11", False,
     "a8ff1000"),
    (8, "0x1.60a392c2c2824p+31", 0.05, (28, 0, 0, 0, 1, 0),
     "-0x1.db6b0e7f80000p-10", False,
     "afffffff"),
    (8, "0x1.c218593f8616ep+31", 0.05, (24, 2, 2, 0, 0, 0),
     "-0x1.bb34d45200000p-13", False,
     "eeffffff"),
    (8, "0x1.6c5182314ec72p+31", 0.05, (25, 0, 0, 1, 0, 1),
     "-0x1.ca65ae1750000p-11", False,
     "cdffffff"),
    (8, "0x1.3f530dc8074b8p+18", 1e-07, (4, 0, 0, 0, 2, 2),
     "0x1.39d30264f8000p-11", True,
     "ccaaf000"),
    (8, "0x1.2c64893f5e24fp+24", 1e-07, (2, 2, 7, 1, 0, 0),
     "0x1.9a3a324100000p-15", True,
     "dee94444"),
    (8, "0x1.0fa73391fdf39p+21", 1e-07, (6, 5, 0, 0, 1, 1),
     "-0x1.54e2bb78a0000p-11", True,
     "ca88bf00"),
    (32, "0x1.8e14ae2adaec5p+53", 0.05, (5, 3, 4, 0, 10, 0),
     "-0x1.f5cd1e8000000p-21", False,
     "aaaaaaaaaaeee9f00000000000000000"),
    (32, "0x1.0c05b1a22ee83p+89", 0.05, (35, 2, 14, 4, 1, 1),
     "0x1.45f4260000000p-22", False,
     "caddddee999999999999ffff70000000"),
    (32, "0x1.0bdbe847c8971p+69", 0.05, (8, 16, 7, 2, 4, 0),
     "0x1.13abda6000000p-19", False,
     "aaaaddeeeeeee8888bf0000000000000"),
    (32, "0x1.c5bd551d523adp+51", 0.05, (1, 10, 9, 0, 3, 1),
     "-0x1.808be81800000p-18", False,
     "caaaeeeeeeeee5000000000000000000"),
    (32, "0x1.d5722c34281b5p+74", 0.05, (19, 7, 7, 4, 5, 0),
     "-0x1.3da8c6b000000p-19", False,
     "aaaaaddddeeeeeeefff7000000000000"),
    (32, "0x1.1f64d9c154fd8p+49", 0.05, (13, 2, 3, 4, 0, 4),
     "0x1.6fe2498000000p-20", False,
     "ccccddddee9ff0000000000000000000"),
    (32, "0x1.adf3118428ec1p+74", 0.05, (0, 2, 2, 0, 14, 5),
     "-0x1.55499f8000000p-21", False,
     "cccccaaaaaaaaaaaaaaee00000000000"),
    (32, "0x1.2b498777c9df6p+82", 0.05, (16, 5, 13, 5, 3, 1),
     "0x1.e4a9800000000p-26", False,
     "caaadddddeeeee999999997000000000"),
    (32, "0x1.2ef0716b32b54p+99", 0.05, (9, 6, 8, 13, 1, 6),
     "-0x1.5a9704c000000p-21", False,
     "ccccccaddddddddd6666eeeeee440000"),
    (32, "0x1.4118b1f73fceap+62", 0.05, (16, 11, 1, 7, 2, 0),
     "0x1.dc4d390000000p-23", False,
     "aaddddddde88888ff100000000000000"),
    (32, "0x1.65b39475715afp+25", 0.05, (3, 1, 9, 0, 0, 0),
     "-0x1.afa40e0240000p-13", False,
     "e9994444400000000000000000000000"),
    (32, "0x1.e4f06a2fe1cd5p+81", 0.05, (18, 2, 5, 11, 1, 4),
     "0x1.9ea77b0000000p-23", False,
     "ccccadddddddddddee999f0000000000"),
    (32, "0x1.74720ec92ab9dp+127", 0.05, (108, 5, 5, 0, 0, 0),
     "-0x1.243646129a000p-8", False,
     "eeeeefffffffffffffffffffffffffff"),
    (32, "0x1.c9fb9d822045ap+127", 0.05, (120, 2, 2, 0, 0, 0),
     "-0x1.20197ecfee000p-6", False,
     "eeffffffffffffffffffffffffffffff"),
    (32, "0x1.c554a927ca52fp+127", 0.05, (120, 2, 2, 0, 0, 0),
     "-0x1.e3486c9076000p-8", False,
     "eeffffffffffffffffffffffffffffff"),
    (32, "0x1.b50d40421c368p+64", 1e-07, (18, 9, 14, 0, 0, 0),
     "-0x1.a3759ae000000p-19", True,
     "eeeeeeeee99999fff100000000000000"),
    (32, "0x1.04848112eb481p+109", 1e-07, (54, 7, 11, 4, 1, 1),
     "0x1.aab2588000000p-22", True,
     "caddddeeeeeee9999fffffffffff3000"),
    (32, "0x1.69e9eb8b187b5p+56", 1e-07, (34, 4, 1, 0, 4, 0),
     "0x1.c9df57a000000p-20", True,
     "aaaae8bffffffff00000000000000000"),
    (64, "0x1.544bdb68893f6p+220", 0.05, (40, 52, 15, 8, 0, 11),
     "0x1.0d01400000000p-27", False,
     "cccccccccccddddddddeeeeeeeeeeeeeee888888888888888888bfffffff3000"),
    (64, "0x1.6f5d049eddca7p+20", 0.05, (11, 1, 1, 2, 0, 0),
     "0x1.85f77183e0000p-12", False,
     "ddeff10000000000000000000000000000000000000000000000000000000000"),
    (64, "0x1.509d72b0b2f2fp+14", 0.05, (3, 0, 1, 2, 1, 0),
     "0x1.94c0b6e8a0000p-11", False,
     "add9000000000000000000000000000000000000000000000000000000000000"),
    (64, "0x1.b91eea2c250fep+237", 0.05, (36, 20, 12, 30, 5, 11),
     "-0x1.faa4800000000p-26", False,
     "cccccccccccaaaaaddddddddddddddddddddddddddddddeeeeeeeeeeee8888f3"),
    (64, "0x1.55aed250f78b4p+235", 0.05, (131, 3, 16, 0, 17, 1),
     "0x1.79f0d00000000p-26", False,
     "caaaaaaaaaaaaaaaaaeee9999999999999fffffffffffffffffffffffffffff3"),
    (64, "0x1.1376443ab5a1dp+148", 0.05, (52, 12, 26, 2, 0, 3),
     "0x1.f3bd580000000p-25", False,
     "cccddeeeeeeeeeeee99999999999999fffffffff000000000000000000000000"),
    (64, "0x1.2dac6e6fb31f5p+48", 0.05, (9, 6, 10, 1, 0, 1),
     "0x1.1dd993f800000p-18", False,
     "cdeeeeee9999f000000000000000000000000000000000000000000000000000"),
    (64, "0x1.c94b8de2848c2p+236", 0.05, (19, 36, 18, 19, 4, 14),
     "0x1.27d5e00000000p-26", False,
     "ccccccccccccccaaaadddddddddddddddddddeeeeeeeeeeeeeeeeee888888888"),
    (64, "0x1.1fe763d1ae0a0p+181", 0.05, (8, 9, 5, 1, 30, 11),
     "0x1.16f3000000000p-28", False,
     "cccccccccccaaaaaaaaaaaaaaaaaaaaaaaaaaaaaadeeeee88f70000000000000"),
    (64, "0x1.10a93abcba9fcp+183", 0.05, (2, 15, 14, 6, 28, 3),
     "0x1.eeb0e00000000p-27", False,
     "cccaaaaaaaaaaaaaaaaaaaaaaaaaaaadd6666eeeeeeeeeeeeee2000000000000"),
    (64, "0x1.05d0ccb26f2a6p+175", 0.05, (18, 25, 9, 13, 12, 5),
     "-0x1.4ec5000000000p-28", False,
     "cccccaaaaaaaaaaaadddddddddddddeeeeeeeee88888888f1000000000000000"),
    (64, "0x1.2aac9512293b3p+209", 0.05, (60, 30, 8, 10, 2, 13),
     "0x1.5f8ac00000000p-28", False,
     "cccccccccccccaaddddddddddeeeeeeee88888888888ffffffffffff30000000"),
    (64, "0x1.2ae592b024a83p+220", 0.05, (0, 11, 4, 6, 4, 44),
     "-0x1.409a000000000p-30", False,
     "ccccccccccccccccccccccccccccccccccccccccccccaaaa666666eeee888200"),
    (64, "0x1.ed009b0b491ecp+240", 0.05, (151, 6, 12, 5, 9, 2),
     "-0x1.a653000000000p-30", False,
     "ccaaaaaaaaadddddeeeeee999999fffffffffffffffffffffffffffffffffff0"),
    (64, "0x1.7abdb71d0967ap+239", 0.05, (97, 32, 17, 0, 13, 2),
     "0x1.78fcb00000000p-26", False,
     "ccaaaaaaaaaaaaaeeeeeeeeeeeeeeeee8888888bfffffffffffffffffffffff7"),
    (64, "0x1.eadd317679c2fp+234", 0.05, (34, 24, 28, 12, 10, 8),
     "0x1.1347800000000p-27", False,
     "ccccccccaaaaaaaaaaddddddddddddeeeeeeeeeeeeeeeeeeeeeeee9999ffff30"),
    (64, "0x1.e7567e2b6a5b1p+231", 0.05, (21, 20, 20, 3, 6, 28),
     "-0x1.1023800000000p-28", False,
     "ccccccccccccccccccccccccccccaaaaaadddeeeeeeeeeeeeeeeeeeeeffff300"),
    (64, "0x1.30fd62e226a4ep+241", 0.05, (79, 36, 20, 16, 4, 0),
     "0x1.4b69200000000p-27", False,
     "aaaaddddddddddddddddeeeeeeeeeeeeeeeeeeee88888888fffffffffffffff7"),
    (64, "0x1.8cc648c5b3126p+255", 0.05, (240, 4, 4, 0, 0, 0),
     "-0x1.a320a7ba30000p-9", False,
     "eeeeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"),
    (64, "0x1.ab0f331161dc5p+255", 0.05, (244, 3, 3, 0, 0, 0),
     "-0x1.903a5d1722000p-7", False,
     "eeefffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"),
    (64, "0x1.8fa554a9d975ap+255", 0.05, (240, 4, 4, 0, 0, 0),
     "-0x1.550e1386d3000p-7", False,
     "eeeeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"),
    (64, "0x1.a7835717e44e1p+241", 1e-07, (185, 4, 5, 0, 8, 3),
     "-0x1.3650980000000p-26", False,
     "cccaaaaaaaaeeee9ffffffffffffffffffffffffffffffffffffffffffffff00"),
    (64, "0x1.c5d3cfa9ad097p+4", 1e-07, (2, 0, 0, 1, 0, 0),
     "-0x1.a77bc3bd73000p-7", True,
     "d100000000000000000000000000000000000000000000000000000000000000"),
    (64, "0x1.21f8cca55d629p+158", 1e-07, (7, 58, 4, 9, 5, 2),
     "0x1.18f41c0000000p-24", False,
     "ccaaaaaddddddd66eeee88888888888888888888888888800000000000000000"),
    (32, "0x1.1cfd6bcddfb1dp+123", 0.05, (74, 3, 2, 8, 5, 0),
     "-0x1.2dccbe0c00000p-16", False,
     "aaaaaddddddddeebffffffffffffffff"),
    (32, "0x1.8c0bf3f6c515bp+123", 1e-07, (92, 5, 9, 1, 0, 0),
     "-0x1.2b53a1bc00000p-18", True,
     "deeeee9999fffffffffffffffffffff7"),
    (32, "0x1.5f20a528f8e9dp+123", 0.05, (62, 1, 1, 6, 0, 11),
     "0x1.0c1b455800000p-18", False,
     "cccccccccccddddddeffffffffffffff"),
    (32, "0x1.1d6d821d448acp+123", 1e-07, (80, 4, 1, 2, 3, 5),
     "-0x1.6c40e48000000p-22", True,
     "cccccaaadde8bfffffffffffffffffff"),
    (64, "0x1.77698f1ef25bbp+252", 0.05, (229, 9, 4, 0, 0, 0),
     "0x1.efa9ee5c00000p-16", False,
     "eeee88bffffffffffffffffffffffffffffffffffffffffffffffffffffffff7"),
    (64, "0x1.ab3b1a337b228p+251", 1e-07, (200, 4, 4, 1, 0, 9),
     "0x1.f4466e0000000p-20", True,
     "cccccccccdeeeefffffffffffffffffffffffffffffffffffffffffffffffff7"),
    (64, "0x1.1d4968451f46bp+251", 0.05, (209, 1, 2, 4, 5, 2),
     "0x1.451961b000000p-18", False,
     "ccaaaaadddde9fffffffffffffffffffffffffffffffffffffffffffffffffff"),
    (64, "0x1.2bae468319dcap+251", 1e-07, (184, 3, 3, 0, 0, 15),
     "-0x1.5f72d19800000p-17", True,
     "ccccccccccccccceeeffffffffffffffffffffffffffffffffffffffffffffff"),
    (64, "0x1.d56c0e1f20a76p+251", 0.05, (133, 28, 29, 0, 1, 1),
     "-0x1.0e8bac2000000p-18", False,
     "caeeeeeeeeeeeeeeeeeeeeeeeeeeee9fffffffffffffffffffffffffffffffff"),
]


def assert_golden_searches():
    """smooth_search reproduces every GOLDEN_SEARCHES row; a search that
    widens is compared through the nearest result it carries."""
    for length, target_hex, tol, exps, err_hex, widened, slots in (
            GOLDEN_SEARCHES):
        try:
            found = smooth_search(float.fromhex(target_hex), length, tol)
            got_widened = False
        except WidenToleranceError as err:
            found, got_widened = err.nearest, True
        got_slots = "".join("%x" % (f - 1) for f in found.packing.slot_sizes)
        assert (found.factorization.exponents, found.log_error.hex(),
                got_widened, got_slots) == (exps, err_hex, widened, slots), (
            length, target_hex)


class TestPlanNv:
    def test_toy1(self):
        params = plan_nv(fixtures.TOY1_KEYSPACE_SIZE, fixtures.TOY1_R, 8)
        assert float(params.nv_target) == pytest.approx(5988.36, abs=0.01)
        assert params.nv_target == Fraction(20 * 16 ** 8, 14_344_391)

    def test_toy2(self):
        params = plan_nv(10 ** 8, fixtures.TOY2_R, 64)
        assert float(params.nv_target) == pytest.approx(1.158e70, rel=1e-3)

    def test_unit_case(self):
        for l in (2, 8):
            assert plan_nv(16 ** l, 1, l).nv_target == 1

    def test_zero_keyspace_rejected(self):
        with pytest.raises(ValueError):
            plan_nv(0, 10, 8)
        for r in (0, math.inf, math.nan):
            with pytest.raises(ValueError):
                plan_nv(10, r, 8)


class TestSmoothSearch:
    def test_toy1_target(self):
        found = smooth_search(5988.36, 8)
        # 6000 = 2^4 * 3 * 5^3 is the log-nearest packable 13-smooth value
        assert found.factorization.value == 6000
        assert abs(found.log_error) < 0.05
        # 5880 is another valid choice: smooth, packable, within 1.9%
        assert is_13_smooth(5880)
        assert pack_into_slots((3, 1, 1, 2, 0, 0), 8) is not None
        assert abs(math.log(5880 / 5988.36)) < 0.019
        assert abs(found.log_error) <= abs(math.log(5880 / 5988.36))

    def test_exact_power_of_sixteen(self):
        found = smooth_search(16 ** 26, 32)
        assert found.factorization.value == 2 ** 104
        assert found.log_error == 0
        widths = sorted(found.packing.slot_sizes, reverse=True)
        assert widths == [16] * 26 + [1] * 6

    def test_unpackable_smooth_target_is_replaced(self):
        # 5^9 has nine factors of 5 but only eight slots: not packable
        assert pack_into_slots((0, 0, 9, 0, 0, 0), 8) is None
        found = smooth_search(5 ** 9, 8)
        assert found.factorization.value != 5 ** 9
        assert abs(found.log_error) < 0.05

    def test_widen_tolerance_error_carries_nearest(self):
        with pytest.raises(WidenToleranceError) as err:
            smooth_search(5988.36, 8, tolerance=1e-7)
        assert err.value.nearest.factorization.value == 6000
        assert "widen" in str(err.value)

    def test_matches_brute_force_oracle(self):
        rng = random.Random(0x5EED)
        inputs = [(rng.uniform(10, 1e6), 8) for _ in range(40)]
        # log-uniform over [1, 16^l): small targets widen, and high ones
        # start the window among unpackable pairs; in the band at 80-92%
        # of ln 16^8 the window often doubles several times
        inputs += [(math.exp(rng.uniform(0, length * math.log(16))), length)
                   for length in (4, 8) for _ in range(20)]
        cap = 8 * math.log(16)
        inputs += [(math.exp(rng.uniform(0.8 * cap, 0.92 * cap)), 8)
                   for _ in range(40)]
        for target, length in inputs:
            expected = oracle_smooth_search(target, length, 0.05)
            try:
                found = smooth_search(target, length, tolerance=0.05)
            except WidenToleranceError as err:
                # the nearest it carries is the oracle's at its own error
                assert expected is None, (length, target)
                nearest = err.nearest.factorization.value
                assert nearest == oracle_smooth_search(
                    target, length, abs(err.nearest.log_error) + 1e-9)
                continue
            assert found.factorization.value == expected, (length, target)

    def test_matches_oracle_near_the_ceiling(self):
        # exercises the closed-form catalog of near-16^l packable values
        rng = random.Random(0xCE11)
        for length in (1, 2, 3):
            cap = 16 ** length
            for _ in range(25):
                target = rng.uniform(0.75 * cap, float(cap))
                tol = 0.3  # wide band: sparse candidates near the top
                try:
                    found = smooth_search(target, length, tolerance=tol)
                    got = found.factorization.value
                except WidenToleranceError as err:
                    got = None
                    nearest = err.nearest.factorization.value
                expected = oracle_smooth_search(target, length, tol)
                if got is None:
                    assert expected is None, (length, target, nearest, expected)
                else:
                    assert got == expected, (length, target)

    def test_tie_breaks_toward_smaller_value(self):
        # 2 and 8 are log-equidistant from 4 among powers of two; with
        # only those two in range the smaller must win
        found = smooth_search(4.0, 1, tolerance=0.8)
        assert found.factorization.value == 4  # exact hit, sanity
        # geometric midpoint of 2 and 3 is an exact tie
        mid = math.sqrt(6)
        found = smooth_search(mid, 8, tolerance=0.5)
        assert found.factorization.value in (2, 3)
        # exact-rational midpoint forces the tie rule: sqrt(6) is not a
        # float, so construct a true tie with explicit values instead
        from fractions import Fraction as F
        found = smooth_search(F(6), 1, tolerance=0.8)
        assert found.factorization.value == 6

    def test_result_invariants(self):
        # stay above ~10^2 (integer gaps exceed the tolerance below that)
        # and below the 16^16 ceiling of a 16-nibble digest space
        rng = random.Random(3)
        for _ in range(40):
            target = math.exp(rng.uniform(5, 43))
            found = smooth_search(target, 16)
            fact, packing = found.factorization, found.packing
            assert is_13_smooth(fact.value)
            assert packing.value == fact.value
            assert len(packing.slot_sizes) == 16
            assert all(1 <= f <= 16 for f in packing.slot_sizes)

    def test_results_are_pinned(self):
        assert_golden_searches()

    def test_deterministic(self):
        a = smooth_search(123456.789, 16)
        b = smooth_search(123456.789, 16)
        assert a == b

    def test_bad_inputs(self):
        for nv, tolerance in [(0.5, 0.05), (100, 0), (100, math.nan),
                              (math.inf, 0.05), (math.nan, 0.05)]:
            with pytest.raises(ValueError):
                smooth_search(nv, 8, tolerance)

    @pytest.mark.parametrize("length", [-1, 128])
    def test_digest_length_out_of_range(self, length, monkeypatch):
        # the right table packs F at bit 24 of an int32, F <= l; refused
        # before any table is built
        def no_tables(_):
            raise AssertionError("built a table")
        monkeypatch.setattr(planner, "_groups_for", no_tables)
        with pytest.raises(ValueError, match="digest_length"):
            smooth_search(100, length)


class TestSmoothTables:
    @pytest.mark.parametrize("length", list(range(1, 17)) + [32, 64])
    def test_tables_match_loop_reference_bit_for_bit(self, length):
        # the planner keeps only the entries that pack into l slots on
        # their own (the test below shows no other entry is ever packed)
        groups = planner._SmoothGroups(length)
        left_logs, left_packed, right_logs, right_packed = (
            reference_smooth_groups(length))
        zero = np.zeros_like(left_packed)
        left = planner._slots_used(np.stack(
            (left_packed & 0xFFFF, left_packed >> 16) + (zero,) * 4,
            axis=1)) <= length
        zero = np.zeros_like(right_packed)
        right = planner._slots_used(np.stack(
            (zero, zero, right_packed & 0xFF, (right_packed >> 8) & 0xFF,
             (right_packed >> 16) & 0xFF, right_packed >> 24),
            axis=1)) <= length
        assert np.array_equal(groups.left_logs.view(np.int64),
                              left_logs[left].view(np.int64))
        assert np.array_equal(groups.left_packed, left_packed[left])
        assert np.array_equal(groups.right_logs.view(np.int64),
                              right_logs[right].view(np.int64))
        assert np.array_equal(groups.right_packed, right_packed[right])
        assert len(groups.left_logs) == (2 * length + 1) ** 2
        assert len(groups.right_logs) == math.comb(length + 4, 4)

    @staticmethod
    def check_halves_lemma(exps: np.ndarray, length: int) -> None:
        """A pair packs only if each half packs alone, and each half packs
        iff its integer budget holds: A + 2B <= 4l, C + D + E + F <= l."""
        left, right = exps.copy(), exps.copy()
        left[:, 2:] = 0
        right[:, :2] = 0
        used = planner._slots_used(exps)
        left_used = planner._slots_used(left)
        right_used = planner._slots_used(right)
        assert (used >= np.maximum(left_used, right_used)).all()
        a, b, c, d, e, f = exps.T
        assert ((left_used <= length) == (a + 2 * b <= 4 * length)).all()
        assert ((right_used <= length) == (c + d + e + f <= length)).all()

    @pytest.mark.parametrize("length", [1, 2, 3, 4])
    def test_halves_lemma_exhaustive(self, length):
        # every tuple up to one past the budgets, so that both sides of
        # each bound occur
        bounds = (4 * length + 2, 2 * length + 2) + (length + 2,) * 4
        exps = np.asarray(list(itertools.product(
            *(range(b + 1) for b in bounds))))
        self.check_halves_lemma(exps, length)

    @pytest.mark.parametrize("length", [8, 32, 64])
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_halves_lemma_drawn(self, length, data):
        caps = (4 * length, 2 * length) + (length,) * 4
        exps = data.draw(st.lists(
            st.tuples(*(st.integers(0, c + 2) for c in caps)),
            min_size=1, max_size=50))
        self.check_halves_lemma(np.asarray(exps), length)

    def test_l64_build_creates_no_per_entry_objects(self):
        # the loop build peaks near 308 MiB under tracemalloc (2.36 M
        # floats and ints in lists); the numpy build of the packable
        # entries (814,385 on the right) near 20 MiB
        tracemalloc.start()
        try:
            planner._SmoothGroups(64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2 ** 20

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 8, 32, 64])
    def test_pack_into_slots_matches_first_fit_reference(self, length):
        rng = random.Random(length)
        outcomes = set()
        drawn = []
        for _ in range(400):
            # per-prime counts around what l slots can hold, so that both
            # packable and unpackable tuples occur
            caps = (4 * length, 2 * length, length, length, length, length)
            exps = tuple(rng.randint(0, c + 2) if rng.random() < 0.5
                         else rng.randint(0, max(1, c // 4)) for c in caps)
            got = pack_into_slots(exps, length)
            assert got == reference_pack_into_slots(exps, length), exps
            outcomes.add(got is None)
            drawn.append(exps)
        assert outcomes == {True, False}
        # the closed-form slot count decides packability as first fit
        # does: on the drawn tuples, and at l <= 4 on every tuple within
        # the per-prime bounds p^e <= 16^l
        if length <= 4:
            bounds = [max(e for e in range(4 * length + 1)
                          if p ** e <= 16 ** length)
                      for p in (2, 3, 5, 7, 11, 13)]
            drawn += itertools.product(*(range(b + 1) for b in bounds))
        fits = planner._slots_used(np.asarray(drawn)) <= length
        assert fits.tolist() == [pack_into_slots(e, length) is not None
                                 for e in drawn]

    def test_warm_search_packs_only_the_answer(self, monkeypatch):
        # 3.1 below ln 16^64, where nearly every pair near the target is
        # unpackable; packability is counted over each round's pairs at
        # once, so only the chosen value goes through pack_into_slots
        nv = math.exp(64 * math.log(16) - 3.1)
        smooth_search(nv, 64)  # builds the tables
        pack, calls = planner.pack_into_slots, []
        monkeypatch.setattr(planner, "pack_into_slots",
                            lambda *args: calls.append(args) or pack(*args))
        smooth_search(nv, 64)
        assert len(calls) == 1


class TestSmoothTypes:
    def test_factorization_validates(self):
        with pytest.raises(ValueError):
            SmoothFactorization((1, 0, 0, 0, 0, 0), 3)
        fact = SmoothFactorization.from_exponents((3, 1, 1, 2, 0, 0))
        assert fact.value == 5880

    def test_slot_packing_validates(self):
        with pytest.raises(ValueError):
            SlotPacking((17,))
        assert SlotPacking((4, 5, 2, 3, 7, 1, 1, 7)).value == 5880


class TestGenV:
    def test_known_slot_sizes_reproduce_vector_shape(self):
        target = Digest.from_hex(fixtures.TOY1_TARGET_HEX)
        packing = SlotPacking(fixtures.TOY1_SLOT_SIZES)
        v = gen_v(target, packing, random.Random(11))
        assert eval_predicate(v, target)
        assert cardinality(v) == 5880
        assert sorted(v.widths) == sorted(fixtures.TOY1_SLOT_SIZES)
        # the reference vector is one valid placement of those slot sizes
        reference = PredicateVector(fixtures.TOY1_VECTOR_BOUNDS)
        assert sorted(reference.widths) == sorted(fixtures.TOY1_SLOT_SIZES)
        assert eval_predicate(reference, target)

    def test_all_ones_packing_gives_singleton(self):
        target = Digest.from_hex("c6bfaba2")
        v = gen_v(target, SlotPacking((1,) * 8), random.Random(0))
        assert v.bounds == tuple((n, n) for n in target.nibbles)

    def test_all_sixteens_packing_gives_zk(self):
        target = Digest.from_hex("c6bfaba2")
        v = gen_v(target, SlotPacking((16,) * 8), random.Random(0))
        assert v == zk_vector(8)

    def test_membership_for_random_targets(self):
        rng = random.Random(0xF00D)
        for _ in range(10_000):
            target = Digest(tuple(rng.randint(0, 15) for _ in range(8)))
            widths = tuple(rng.randint(1, 16) for _ in range(8))
            v = gen_v(target, SlotPacking(widths), rng)
            assert eval_predicate(v, target)
            assert cardinality(v) == SlotPacking(widths).value

    def test_fixed_seed_is_deterministic(self):
        target = Digest.from_hex(fixtures.TOY1_TARGET_HEX)
        packing = SlotPacking(fixtures.TOY1_SLOT_SIZES)
        assert gen_v(target, packing, 77) == gen_v(target, packing, 77)
        assert gen_v(target, packing, 77) != gen_v(target, packing, 78)

    def test_window_placement_uniformity(self):
        # width 4 around nibble 7 admits offsets 4..7, each ~25%
        counts = {4: 0, 5: 0, 6: 0, 7: 0}
        rng = random.Random(2024)
        runs = 100_000
        for _ in range(runs):
            v = gen_v(Digest((7,)), SlotPacking((4,)), rng)
            counts[v.bounds[0][0]] += 1
        for lo, n in counts.items():
            assert n / runs == pytest.approx(0.25, abs=0.02), lo

    def test_slot_count_must_match(self):
        with pytest.raises(ValueError):
            gen_v(Digest((1, 2)), SlotPacking((4,)), 0)


class TestProbabilityCalculators:
    def test_expected_candidates_toy1(self):
        v = PredicateVector(fixtures.TOY1_VECTOR_BOUNDS)
        got = expected_candidates(v, fixtures.TOY1_KEYSPACE_SIZE)
        assert got == pytest.approx(19.63, abs=0.01)

    def test_expected_candidates_french_run(self):
        v = PredicateVector(fixtures.TOY1_VECTOR_BOUNDS)
        got = expected_candidates(v, fixtures.FRENCH_KEYSPACE_SIZE)
        # 5880 * 605834 * 10 * 32 / 16^8 = 265.41, reported as ~265
        assert got == pytest.approx(265.41, abs=0.01)

    def test_expected_candidates_case_study(self):
        v = parse_vector(fixtures.NTLM_VECTOR_HEX)
        got = expected_candidates(v, fixtures.NTLM_KEYSPACE_SIZE)
        assert abs(got - fixtures.NTLM_EXPECTED_HITS) <= 1

    def test_expected_candidates_zk_is_keyspace(self):
        for n in (1, 1000, 10 ** 12):
            assert expected_candidates(zk_vector(8), n) == n

    def test_deniability(self):
        v = PredicateVector(fixtures.TOY1_VECTOR_BOUNDS)
        # direct quotient oracle: 5880 / 16^8
        assert deniability(v) == pytest.approx(5880 / 16 ** 8, rel=1e-12)
        assert deniability(v) == pytest.approx(1.369e-6, rel=1e-3)
        assert deniability(zk_vector(16)) == 1.0
        target = Digest.from_hex(fixtures.TOY1_TARGET_HEX)
        v1 = gen_v(target, SlotPacking((1,) * 8), 0)
        assert deniability(v1) == pytest.approx(16.0 ** -8)

    def test_guess_probability(self):
        assert guess_probability(10, 4) == pytest.approx(1 / 6)
        assert guess_probability(10 ** 6, 0) == pytest.approx(1e-6)
        ds, cs = 5000, 37
        assert guess_probability(ds, ds - cs) == pytest.approx(1 / cs)
        with pytest.raises(ValueError):
            guess_probability(10, 10)
        with pytest.raises(ValueError):
            guess_probability(10, -1)

    def test_projection_toy1_sequence(self):
        v = PredicateVector(fixtures.TOY1_VECTOR_BOUNDS)
        proj = multi_dataset_projection(
            v, (fixtures.TOY1_KEYSPACE_SIZE, fixtures.FRENCH_KEYSPACE_SIZE))
        assert proj.per_set[0] == pytest.approx(19.63, abs=0.01)
        assert proj.per_set[1] == pytest.approx(265.41, abs=0.01)
        assert proj.cumulative == pytest.approx(sum(proj.per_set), rel=1e-9)

    def test_projection_saturates_at_cardinality(self):
        v = PredicateVector(fixtures.TOY1_VECTOR_BOUNDS)
        sizes = (16 ** 8 - 12345, 12345)
        proj = multi_dataset_projection(v, sizes)
        assert proj.cumulative == float(cardinality(v))

    def test_projection_single_size_matches_expected_candidates(self):
        v = PredicateVector(fixtures.TOY1_VECTOR_BOUNDS)
        proj = multi_dataset_projection(v, (999_331,))
        assert proj.per_set == (expected_candidates(v, 999_331),)

    def test_projection_additivity(self):
        v = PredicateVector(fixtures.TOY1_VECTOR_BOUNDS)
        first, second = (11, 47, 1000), (16 ** 4, 3)
        joined = multi_dataset_projection(v, first + second)
        assert joined.per_set == (multi_dataset_projection(v, first).per_set
                                  + multi_dataset_projection(v, second).per_set)


class TestPlanStore:
    def test_build_and_round_trip(self, tmp_path):
        target = Digest.from_hex(fixtures.TOY1_TARGET_HEX, "crc32")
        plan = build_plan(target, "crc32", "mask:?d?d?d?d?d?d", 10 ** 6, 20,
                          seed=5)
        parsed = Plan.from_text(plan.to_text())
        assert parsed == plan
        assert is_13_smooth(plan.cardinality)
        v = parse_vector(plan.vector_hex)
        assert eval_predicate(v, target)
        assert cardinality(v) == plan.cardinality

    def test_plan_text_is_pinned(self):
        target = Digest.from_hex(fixtures.TOY1_TARGET_HEX, "crc32")
        plan = build_plan(target, "crc32", "hybrid:words:?w?d", 10 ** 6, 20,
                          seed=5)
        text = (
            "# threepc plan\n"
            "target = c6bfaba2\n"
            "algo = crc32\n"
            "keyspace = hybrid:words:?w?d\n"
            "keyspace_size = 1000000\n"
            "r = 20.0\n"
            "nv_target = 85899.34592\n"
            "tolerance = 0.05\n"
            "seed = 5\n"
            "vector = cc0e5b3faa6caa2a\n"
            "cardinality = 85995\n"
            "expected_candidates = 20.02227120101452\n"
            "deniability = 2.002227120101452e-05\n"
        )
        assert plan.to_text() == text
        assert Plan.from_text(text) == plan

    def test_same_seed_same_plan(self):
        target = Digest.from_hex(fixtures.TOY1_TARGET_HEX, "crc32")
        a = build_plan(target, "crc32", "mask:?d?d?d", 1000, 5, seed=99)
        b = build_plan(target, "crc32", "mask:?d?d?d", 1000, 5, seed=99)
        assert a == b

    def test_store_refuses_second_vector_for_target(self, tmp_path):
        store = PlanStore(tmp_path / "plans")
        target = Digest.from_hex(fixtures.TOY1_TARGET_HEX, "crc32")
        plan = build_plan(target, "crc32", "mask:?d?d?d", 1000, 5, seed=1)
        store.save(plan)
        retry = build_plan(target, "crc32", "mask:?d?d", 100, 5, seed=2)
        with pytest.raises(DuplicatePlanError):
            store.save(retry)

    def test_concurrent_saves_for_one_target_store_one_vector(self, tmp_path):
        store = PlanStore(tmp_path / "plans")
        target = Digest.from_hex(fixtures.TOY1_TARGET_HEX, "crc32")
        plans = [build_plan(target, "crc32", "mask:?d?d?d", 1000, 5, seed=s)
                 for s in range(8)]
        start = threading.Barrier(len(plans))
        outcomes = [None] * len(plans)

        def save(i):
            start.wait()
            try:
                store.save(plans[i])
                outcomes[i] = "saved"
            except DuplicatePlanError:
                outcomes[i] = "refused"

        threads = [threading.Thread(target=save, args=(i,), daemon=True)
                   for i in range(len(plans))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
            assert not t.is_alive()
        assert sorted(outcomes) == ["refused"] * 7 + ["saved"]
        winner = plans[outcomes.index("saved")]
        assert len({p.vector_hex for p in plans}) > 1
        assert store.path_for(target.hex).read_text() == winner.to_text()
        assert [p.name for p in store.root.iterdir()] == [
            store.path_for(target.hex).name]

    def test_malformed_plan_rejected(self):
        with pytest.raises(ValueError):
            Plan.from_text("target c6bfaba2\n")
        with pytest.raises(ValueError):
            Plan.from_text("target = c6bfaba2\n")
