"""Shared known-answer fixtures for the toy runs and the case study, and
the reference hashes the tests check threepc against."""

import importlib.util
from pathlib import Path

# perfbench/oracle.py computes its hashes apart from threepc: hashlib,
# zlib and an MD4 written from RFC 1320.  It is loaded read-only, as the
# benchmark loads it.
_ORACLE = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"
_spec = importlib.util.spec_from_file_location("perfbench_oracle", _ORACLE)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)
_ORACLE_HEX = {"crc32": oracle.crc32_hex, "sha256": oracle.sha256_hex,
               "ntlm": oracle.ntlm_hex}


def oracle_digest(algo, password):
    """The raw digest of password under algo from the oracle's hashes, or
    None where ntlm cannot hash it (bytes that are not UTF-8)."""
    digest_hex = _ORACLE_HEX[algo](password)
    return None if digest_hex is None else bytes.fromhex(digest_hex)


# Toy example 1: CRC-32 dictionary attack over 14,344,391 unique passwords.
TOY1_TARGET_HEX = "c6bfaba2"
TOY1_TARGET_PASSWORD = b"0BChrist"
TOY1_VECTOR_BOUNDS = (
    (0xC, 0xF), (2, 6), (0xA, 0xB), (0xD, 0xF),
    (9, 0xF), (0xB, 0xB), (0xA, 0xA), (0, 6),
)
TOY1_CARDINALITY = 5880
TOY1_KEYSPACE_SIZE = 14_344_391
TOY1_R = 20
TOY1_SLOT_SIZES = (4, 5, 2, 3, 7, 1, 1, 7)

# All 20 (password, CRC-32) candidate pairs the toy-1 decoy set admits.
TOY1_CANDIDATES = (
    (b"tangan", "C5AEFBA5"),
    (b"hornbyneho", "C3AEFBA0"),
    (b"28707adnen", "C4AE9BA4"),
    (b"lisa1842", "C4BECBA2"),
    (b"0BChrist", "C6BFABA2"),
    (b"sapphire24", "C6BFDBA2"),
    (b"Kissarmy1!", "D2ADFBA6"),
    (b"whateva89", "D2BE9BA3"),
    (b"keno333_", "D3BDABA3"),
    (b"bighottie", "D4AEABA2"),
    (b"0849831211", "D4BFDBA6"),
    (b"lumpibuniz", "E3ADEBA4"),
    (b"sweep21", "E3BEEBA6"),
    (b"577672", "E3BEFBA5"),
    (b"050462654", "E5BDBBA1"),
    (b"horses33", "F2BEBBA0"),
    (b"zuzuloka", "F3AECBA1"),
    (b"ms.jackson2008", "F3BEDBA5"),
    (b"a2gfamilymaster", "F5BDDBA5"),
    (b"alana123456789", "F6ADABA2"),
)

# Toy example 2: SHA-256 brute force over all 8-digit PINs.
TOY2_VECTOR_HEX = (
    "7c27385c3f3f3f3f3f0c3f3f3f3f3f0c3f0c3f3f0c3f3f3f3f3f0c0c3f0c0c3f"
    "3f3f3f0c3f0c0c0c0c3f0c0c3f3f0c0c0c3f0c3f0c0c3f0c0c3f0c0c3f0c0c3f"
)
TOY2_TARGET_PASSWORD = b"43256891"
TOY2_R = 10

# (password, first 32 hex chars of the SHA-256 digest)
TOY2_CANDIDATES = (
    (b"15851680", "85869d73ebe4c562cbde168898669053"),
    (b"18662804", "a58bbf75d9cad8fc764cb3f364823a3b"),
    (b"28251765", "b26c78a4916d348565d986d4a6926034"),
    (b"36823110", "b27ccbfa99fc96dc38a445accd40d148"),
    (b"37012370", "945ab8ad984bfcb38b4f36cc36b73cae"),
    (b"43256891", "b23be566408ad8d2f1ac0d84330c3127"),
    (b"56995169", "7366edc5bc43387536ba6f47ad2ac834"),
    (b"60409880", "b689a9c7a5d539c8abfc197ae87a705e"),
    (b"98509815", "b3859a5f5ccfef995bd723c35598d137"),
)

# NTLM case study: 9-char alphanumeric service-account password.
NTLM_TARGET_HEX = "8ac54208a85c340ae9b8b0cdb236f14c"
NTLM_TARGET_PASSWORD = b"bKFQ4Q8C0"
NTLM_HIT_MASK = "c001"
NTLM_MASKED_HEX = "8ac5000000000000000000000000004c"
NTLM_VECTOR_HEX = "88aacc55" + "0f" * 26 + "44cc"
NTLM_KEYSPACE_SIZE = 62 ** 9
NTLM_OBSERVED_HITS = 806_834_341
NTLM_EXPECTED_HITS = 806_873_234

# Hybrid follow-up run: 605,834-word list with a digit and a special appended.
FRENCH_KEYSPACE_SIZE = 605_834 * 10 * 32
