"""The traced benchmark reads the verifier through module attributes:
`perfbench/program.py` wraps `verifier.verify`, `verifier.chk_cs`,
`verifier.spot_check` and `potfile.count_records`, and its
`verify_layers` times the last three as direct children of the first.
This test runs that tracer, unedited, around one `verify`."""

import importlib.util
import numbers
from pathlib import Path

from threepc import hashers, verifier
from threepc.potfile import PotfileWriter
from threepc.predicate import zk_vector

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
