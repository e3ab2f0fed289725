"""Privacy-preserving password cracking toolkit.

The client hides a target hash inside a compactly-described decoy set (a
predicate vector), the server cracks the whole decoy set against an
agreed keyspace without learning which digest is real, and the client
verifies the returned candidate set statistically and cryptographically.
"""

from .engine import CrackReport, crack, crack_parallel
from .hashers import digest, measure_rate, raw_digest
from .keyspace import KeyspaceSpec, make_keyspace, parse_descriptor, spec_cardinality
from .planner import (
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
    plan_nv,
    smooth_search,
)
from .predicate import (
    Digest,
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
from .verifier import VerificationVerdict, chk_cs, proof_of_work, spot_check, verify

__version__ = "0.1.0"
