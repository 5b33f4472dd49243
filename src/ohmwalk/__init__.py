"""Random walks on finite weighted graphs viewed as electric networks.

Exact walk quantities (effective resistance, hitting, commute, and return
times, the stationary distribution) come from grounded Laplacian solves;
their closed conductance-ratio forms are exposed separately so the two
routes can be checked against each other. A seeded Monte Carlo layer
estimates the same quantities by simulation, and the replay layer
re-executes the pendant-vertex derivation of the return-time identity on
arbitrary inputs.
"""
from .errors import (
    AmbiguousLabel,
    CapExceeded,
    Disconnected,
    HasSelfLoopMass,
    NonPositiveConductance,
    NotIrreducible,
    NotReversible,
    OhmwalkError,
    ParseError,
    SameVertex,
    SelfLoop,
    SingularSystem,
    SystemTooLarge,
    UnknownVertex,
)
from .exact import (
    HittingProfile,
    RoundTrip,
    commute_time,
    effective_resistance,
    hitting_time,
    return_time,
    return_time_formula,
    round_trip,
    stationary_distribution,
)
from .network import (
    AugmentedNetwork,
    Distribution,
    Network,
    VertexId,
    attach_pendant,
    build_network,
    chain_to_network,
    transition_distribution,
    transition_matrix,
)
from .replay import (
    ProofStep,
    ProofTrace,
    replay,
)
from .simulate import (
    DEFAULT_STEP_CAP,
    Estimate,
    ExcursionEstimate,
    WalkTrace,
    estimate_excursions,
    estimate_hitting_time,
    estimate_return_time,
    step,
    trace_walk,
    trial_generator,
)
from .util import rel_err

__version__ = "0.1.0"

__all__ = [
    "AmbiguousLabel",
    "AugmentedNetwork",
    "CapExceeded",
    "DEFAULT_STEP_CAP",
    "Disconnected",
    "Distribution",
    "Estimate",
    "ExcursionEstimate",
    "HasSelfLoopMass",
    "HittingProfile",
    "Network",
    "NonPositiveConductance",
    "NotIrreducible",
    "NotReversible",
    "OhmwalkError",
    "ParseError",
    "ProofStep",
    "ProofTrace",
    "RoundTrip",
    "SameVertex",
    "SelfLoop",
    "SingularSystem",
    "SystemTooLarge",
    "UnknownVertex",
    "VertexId",
    "WalkTrace",
    "attach_pendant",
    "build_network",
    "chain_to_network",
    "commute_time",
    "effective_resistance",
    "estimate_excursions",
    "estimate_hitting_time",
    "estimate_return_time",
    "hitting_time",
    "rel_err",
    "replay",
    "return_time",
    "return_time_formula",
    "round_trip",
    "stationary_distribution",
    "step",
    "trace_walk",
    "transition_distribution",
    "transition_matrix",
    "trial_generator",
]
