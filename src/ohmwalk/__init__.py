"""Random walks on finite weighted graphs viewed as electric networks.

Exact walk quantities (effective resistance, hitting, commute, and return
times, the stationary distribution) come from grounded Laplacian solves;
their closed conductance-ratio forms are exposed separately so the two
routes can be checked against each other. A seeded Monte Carlo layer
estimates the same quantities by simulation, and the replay layer
re-executes the pendant-vertex derivation of the return-time identity on
arbitrary inputs.
"""
import importlib
import sys
import types

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
from .network import (
    Distribution,
    Network,
    VertexId,
    build_network,
    chain_to_network,
    transition_distribution,
    transition_matrix,
)
from .util import DEFAULT_STEP_CAP, rel_err

__version__ = "0.1.0"

__all__ = [
    "AmbiguousLabel",
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

# The exact, replay and simulate layers load on first use of one of their
# names (PEP 562), so that a command loads only the layers it runs.
_LAZY = {
    **dict.fromkeys(("HittingProfile", "RoundTrip", "commute_time", "effective_resistance",
                     "hitting_time", "return_time", "return_time_formula", "round_trip",
                     "stationary_distribution"), "exact"),
    **dict.fromkeys(("ProofStep", "ProofTrace", "replay"), "replay"),
    **dict.fromkeys(("Estimate", "ExcursionEstimate", "WalkTrace", "estimate_excursions",
                     "estimate_hitting_time", "estimate_return_time", "step", "trace_walk",
                     "trial_generator"), "simulate"),
}


def __getattr__(name: str):
    layer = _LAZY.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{layer}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})


class _Package(types.ModuleType):
    """Loading the module ohmwalk.replay binds it to the package's name
    ``replay``, which is the function: keep the function there."""

    def __setattr__(self, name: str, value) -> None:
        if name == "replay" and isinstance(value, types.ModuleType):
            value = value.replay
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
