import binascii

import pytest
from hypothesis import given
from hypothesis import strategies as st

from threepc import hashers, planner
from threepc.cli import EXIT_PARSE, client_main
from threepc.potfile import (
    Hits,
    PotfileParseError,
    PotfileWriter,
    count_records,
    iter_potfile,
)


def test_write_and_read_round_trip(tmp_path):
    path = tmp_path / "out.pot"
    pairs = [
        (b"password", bytes.fromhex("c6bfaba2")),
        (b"with:colons:inside", bytes.fromhex("00ff00ff")),
        (b"", bytes.fromhex("deadbeef")),
    ]
    with PotfileWriter(path) as writer:
        writer.write_batch(pairs)
    records = list(iter_potfile(path, 8))
    assert [(d, p) for _, d, p in records] == [
        ("c6bfaba2", b"password"),
        ("00ff00ff", b"with:colons:inside"),
        ("deadbeef", b""),
    ]
    assert count_records(path, 8) == 3


def test_fixed_width_split_keeps_colons(tmp_path):
    path = tmp_path / "out.pot"
    path.write_bytes(b"00112233:a:b:c\n")
    [(_, digest, password)] = list(iter_potfile(path, 8))
    assert digest == "00112233"
    assert password == b"a:b:c"


def test_empty_file(tmp_path):
    path = tmp_path / "empty.pot"
    path.write_bytes(b"")
    assert list(iter_potfile(path, 8)) == []


def test_malformed_lines_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.pot"
    path.write_bytes(b"00112233:ok\nshort\n")
    with pytest.raises(PotfileParseError) as err:
        list(iter_potfile(path, 8))
    assert err.value.line_no == 2

    path.write_bytes(b"0011223x:nothex\n")
    with pytest.raises(PotfileParseError) as err:
        list(iter_potfile(path, 8))
    assert err.value.line_no == 1

    path.write_bytes(b"00112233_nosep\n")
    with pytest.raises(PotfileParseError) as err:
        list(iter_potfile(path, 8))
    assert err.value.line_no == 1


def test_batch_with_newline_in_password_is_refused_whole(tmp_path):
    path = tmp_path / "out.pot"
    with PotfileWriter(path) as writer:
        writer.write_batch([(b"first", bytes.fromhex("c6bfaba2"))])
        with pytest.raises(ValueError):
            writer.write_batch([(b"ok", bytes.fromhex("00ff00ff")),
                                (b"two\nlines", bytes.fromhex("deadbeef"))])
        assert writer.pairs_written == 1
    assert path.read_bytes() == b"c6bfaba2:first\n"


def test_newline_refusal_on_columnar_batch(tmp_path):
    # the newline sits in the last row, after rows that would be written
    path = tmp_path / "out.pot"
    ok = Hits.from_pairs([(b"ok", bytes.fromhex("00ff00ff"))])
    with PotfileWriter(path) as writer:
        writer.write_hits(ok)
        with pytest.raises(ValueError):
            writer.write_hits(Hits.from_pairs([
                (b"fine", bytes.fromhex("c6bfaba2")),
                (b"two\nlines", bytes.fromhex("deadbeef"))]))
        writer.write_hits(Hits.from_pairs([]))
        assert writer.pairs_written == 1
    assert path.read_bytes() == b"00ff00ff:ok\n"


def test_pairs_of_mixed_widths_are_refused():
    with pytest.raises(ValueError):
        Hits.from_pairs([(b"a", b"\x00" * 4), (b"b", b"\x00" * 5)])


# passwords drawn mostly from bytes a line builder could mishandle
_password = st.binary(max_size=12) | st.lists(
    st.sampled_from([b":", b"\r", b"\xff", b"", b"a"]),
    max_size=6).map(b"".join)


@pytest.mark.parametrize("width", [4, 16, 32])
@given(data=st.data())
def test_lines_match_per_pair_hexlify(width, data):
    pairs = data.draw(st.lists(st.tuples(_password, st.binary(
        min_size=width, max_size=width)), max_size=40))
    hits = Hits.from_pairs(pairs)
    assert hits.lines() == b"".join(binascii.hexlify(digest) + b":"
                                    + password + b"\n"
                                    for password, digest in pairs)
    assert hits.pairs() == pairs
    assert len(hits) == len(pairs)
    assert hits == Hits.from_pairs(list(pairs))
    # cut anywhere, the parts hold the same rows
    size = data.draw(st.integers(1, 41))
    parts = list(hits.split(size))
    assert [len(part) for part in parts] == [
        min(size, len(pairs) - a) for a in range(0, len(pairs), size)]
    assert b"".join(part.lines() for part in parts) == hits.lines()


GOOD = b"c6bfaba2:password\n"
SHORT, NOSEP, NOTHEX = ("record shorter than digest field",
                        "missing ':' after digest field",
                        "digest field is not hex")
# name -> (file bytes, records or (line_no, message) of the first bad line)
PARSE_CASES = {
    "bad-first": (b"c6bf\n" + GOOD * 2, (1, SHORT)),
    "bad-middle": (GOOD + b"c6bfabax:pw\n" + GOOD, (2, NOTHEX)),
    "bad-last": (GOOD * 2 + b"c6bfaba2_pw\n", (3, NOSEP)),
    "bad-last-no-newline": (GOOD * 2 + b"c6b", (3, SHORT)),
    "blank-mid-file": (GOOD + b"\n" + GOOD, (2, SHORT)),
    "only-a-newline": (b"\n", (1, SHORT)),
    "exactly-width": (GOOD + b"c6bfaba2\n", (2, SHORT)),
    "non-ascii-digest": (GOOD + b"c6bfab\xc3\xa9:pw\n", (2, NOTHEX)),
    # the first bad line wins over a worse one further down, and within a
    # line the length check comes before the separator and the hex checks
    "first-of-several": (GOOD + b"c6bfabaz_pw\n" + b"c6\n", (2, NOSEP)),
    "width-plus-separator": (b"c6bfaba2:\n", [(1, "c6bfaba2", b"")]),
    "no-trailing-newline": (GOOD + b"00ff00ff:last",
                            [(1, "c6bfaba2", b"password"),
                             (2, "00ff00ff", b"last")]),
    "uppercase-digest": (b"C6BFABA2:pw\n00Ff00fF:x\n",
                         [(1, "c6bfaba2", b"pw"), (2, "00ff00ff", b"x")]),
    "crlf": (b"c6bfaba2:pw\r\n00ff00ff:a:b\r\n",
             [(1, "c6bfaba2", b"pw\r"), (2, "00ff00ff", b"a:b\r")]),
}


@pytest.fixture
def crc32_plan(tmp_path):
    target = hashers.digest("crc32", b"password")
    plan = planner.build_plan(target, "crc32", "wordlist:corpus", 10_000, 20,
                              seed=1)
    path = tmp_path / "c6bfaba2.plan"
    path.write_text(plan.to_text())
    return path


@pytest.mark.parametrize("name", sorted(PARSE_CASES))
def test_parse_cases(tmp_path, capsys, crc32_plan, name):
    data, expected = PARSE_CASES[name]
    path = tmp_path / "case.pot"
    path.write_bytes(data)
    code = client_main(["verify", "--plan", str(crc32_plan),
                        "--potfile", str(path)])
    stderr = capsys.readouterr().err
    if isinstance(expected, list):
        assert list(iter_potfile(path, 8)) == expected
        assert count_records(path, 8) == len(expected)
        assert code != EXIT_PARSE
        return
    line_no, message = expected
    for parse in (lambda p, w: list(iter_potfile(p, w)),
                  count_records):
        with pytest.raises(PotfileParseError) as err:
            parse(path, 8)
        assert err.value.line_no == line_no
        assert str(err.value) == f"line {line_no}: {message}"
    assert code == EXIT_PARSE
    assert stderr == f"error: line {line_no}: {message}\n"
