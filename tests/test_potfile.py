import pytest

from threepc.potfile import PotfileParseError, PotfileWriter, count_records, read_potfile


def test_write_and_read_round_trip(tmp_path):
    path = tmp_path / "out.pot"
    pairs = [
        (b"password", bytes.fromhex("c6bfaba2")),
        (b"with:colons:inside", bytes.fromhex("00ff00ff")),
        (b"", bytes.fromhex("deadbeef")),
    ]
    with PotfileWriter(path) as writer:
        writer.write_batch(pairs)
    records = read_potfile(path, 8)
    assert [(d, p) for _, d, p in records] == [
        ("c6bfaba2", b"password"),
        ("00ff00ff", b"with:colons:inside"),
        ("deadbeef", b""),
    ]
    assert count_records(path, 8) == 3


def test_fixed_width_split_keeps_colons(tmp_path):
    path = tmp_path / "out.pot"
    path.write_bytes(b"00112233:a:b:c\n")
    [(_, digest, password)] = read_potfile(path, 8)
    assert digest == "00112233"
    assert password == b"a:b:c"


def test_empty_file(tmp_path):
    path = tmp_path / "empty.pot"
    path.write_bytes(b"")
    assert read_potfile(path, 8) == []


def test_malformed_lines_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.pot"
    path.write_bytes(b"00112233:ok\nshort\n")
    with pytest.raises(PotfileParseError) as err:
        read_potfile(path, 8)
    assert err.value.line_no == 2

    path.write_bytes(b"0011223x:nothex\n")
    with pytest.raises(PotfileParseError) as err:
        read_potfile(path, 8)
    assert err.value.line_no == 1

    path.write_bytes(b"00112233_nosep\n")
    with pytest.raises(PotfileParseError) as err:
        read_potfile(path, 8)
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
