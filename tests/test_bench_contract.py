"""The traced benchmark reads the program through module attributes:
`perfbench/program.py` wraps `verifier.verify`, `verifier.chk_cs`,
`verifier.spot_check` and `potfile.count_records`, and its
`verify_layers` times the last three as direct children of the first;
its `crack_layers` and `constant_time_layers` call `hashers.raw_fn` and
`engine.compile_checker`; its `candidate_path_layers` writes
`(password, digest)` tuples through `PotfileWriter.write_batch`, reads
them back with `potfile.iter_potfile` and round-trips them as
`protocol.CandidateChunk` frames through `encode_message` and
`decode_payload`; its `parallel_eff` runs `engine.crack_parallel` into an
`engine.ListSink` at one and two workers.  These tests run that file,
unedited, on tiny inputs, so a rename or a changed signature fails here
rather than in a traced run."""

import importlib.util
import numbers
from pathlib import Path

import pytest

from threepc import hashers, keyspace, verifier
from threepc.potfile import PotfileWriter
from threepc.predicate import PredicateVector, serialize_vector, zk_vector

PROGRAM = Path(__file__).resolve().parent.parent / "perfbench" / "program.py"


def load_program():
    spec = importlib.util.spec_from_file_location("perfbench_program", PROGRAM)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_layers_are_numbers(tmp_path):
    program = load_program()
    pot = tmp_path / "out.pot"
    passwords = [b"w%04d" % i for i in range(200)]
    with PotfileWriter(pot) as writer:
        writer.write_batch([(pw, hashers.raw_digest("crc32", pw))
                            for pw in passwords])
    target = hashers.digest("crc32", passwords[7])
    tracer = program.Tracer()
    program.install_points(tracer)
    tracer.install()
    try:
        verdict = verifier.verify(pot, target, zk_vector(8), "crc32", 200.0,
                                  rng=1)
    finally:
        tracer.remove()
    assert verdict.cracked and verdict.honest
    layers = program.verify_layers(tracer)
    assert set(layers) == {"verifier.count_s", "verifier.lookup_s",
                           "verifier.spot_s", "verifier.file_reads"}
    for key, value in layers.items():
        assert isinstance(value, numbers.Real), key


@pytest.mark.parametrize("algo", ["crc32", "ntlm"])
def test_crack_layers_are_numbers(algo):
    program = load_program()
    spec = keyspace.make_keyspace("mask:?d?d")
    nibbles = hashers.descriptor(algo).digest_nibbles
    vector = PredicateVector(((0, 7),) + ((0, 15),) * (nibbles - 1))
    layers = program.crack_layers({"algo": algo, "hash_sample": 50}, spec,
                                  serialize_vector(vector))
    assert set(layers) == {"keyspace.enum_rate", "hashers.rate",
                           "engine.check_ns"}
    for key, value in layers.items():
        assert isinstance(value, numbers.Real) and value > 0, key


def test_constant_time_layers_are_numbers():
    layers = load_program().constant_time_layers(seed=1)
    assert set(layers) == {"engine.check_ns_d2", "engine.check_ns_d26"}
    for key, value in layers.items():
        assert isinstance(value, numbers.Real) and value > 0, key


def test_candidate_path_layers_are_numbers(tmp_path):
    pot = tmp_path / "out.pot"
    passwords = [b"w%04d" % i for i in range(300)]
    with PotfileWriter(pot) as writer:
        writer.write_batch([(pw, hashers.raw_digest("crc32", pw))
                            for pw in passwords])
    layers = load_program().candidate_path_layers(pot)
    assert set(layers) == {"potfile.write_rate", "potfile.parse_rate",
                           "protocol.encode_rate", "protocol.decode_rate"}
    for key, value in layers.items():
        assert isinstance(value, numbers.Real) and value > 0, key
    # the pairs it parsed, written back, are the same file
    assert pot.with_suffix(".rewrite").read_bytes() == pot.read_bytes()


@pytest.mark.parametrize("algo", ["crc32", "ntlm"])
def test_parallel_eff_is_a_number(algo):
    nibbles = hashers.descriptor(algo).digest_nibbles
    cfg = {"algo": algo, "parallel_slice": {"keyspace": "mask:?d?d?d"}}
    layers = load_program().parallel_eff(cfg,
                                         serialize_vector(zk_vector(nibbles)))
    assert set(layers) == {"engine.parallel_eff"}
    value = layers["engine.parallel_eff"]
    assert isinstance(value, numbers.Real) and value > 0
