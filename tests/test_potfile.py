import pytest

from threepc import hashers, planner
from threepc.cli import EXIT_PARSE, client_main
from threepc.potfile import (
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


def test_hex_batch_is_lowercased_and_refused_whole_when_malformed(tmp_path):
    path = tmp_path / "out.pot"
    with PotfileWriter(path) as writer:
        writer.write_hex_batch([("C6BFABA2", b"pw"), ("00ff00ff", b"a:b")], 8)
        for bad in (("c6bfabzz", b"pw"), ("c6bfab", b"pw"),
                    ("c6bfaba2aa", b"pw"), ("c6bfaba١", b"pw"),
                    ("c6bfaba2", b"two\nlines")):
            with pytest.raises(ValueError):
                writer.write_hex_batch([("deadbeef", b"ok"), bad], 8)
        writer.write_hex_batch([], 8)
        assert writer.pairs_written == 2
    assert path.read_bytes() == b"c6bfaba2:pw\n00ff00ff:a:b\n"


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
