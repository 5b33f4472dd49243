"""Step-by-step numeric verification of the pendant-vertex argument.

The return-time identity E_z[T+_z] = C / C_z has a short derivation that
runs through a pendant construction (Doyle & Snell, *Random Walks and
Electric Networks*, 1984): hang a fresh vertex off z by an edge of
conductance c, then chain together the forced first step from the
pendant, the pendant edge's resistance 1/c, the commute identity on the
new edge, and the excursion decomposition of the trip from z to the
pendant. ``replay`` re-executes that chain on an arbitrary network and
any pendant conductance, checking every intermediate identity against an
independent grounded-Laplacian computation and reporting a structured
trace.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

from . import exact, simulate
from .network import Network, VertexId, attach_pendant
from .util import rel_err

STEP_NAMES = (
    "pendant-first-step",
    "pendant-resistance",
    "commute-identity",
    "total-time",
    "decomposition",
    "conclusion",
)

DEFAULT_TOLERANCE = 1e-9


@dataclass(frozen=True, eq=False)
class ProofStep:
    """One verified identity: closed-form expectation vs independent solve.

    Both absolute and relative error are recorded because some steps
    compare against the constant 1, where relative error alone says
    little. When simulation was requested the step also carries a Monte
    Carlo estimate and whether the expected value sits inside its
    four-standard-error band.
    """

    name: str
    expected: float
    computed: float
    abs_err: float
    rel_err: float
    passed: bool
    estimate: simulate.Estimate | None = None
    estimate_passed: bool | None = None

    def to_json_dict(self) -> dict:
        doc = {
            "name": self.name,
            "expected": self.expected,
            "computed": self.computed,
            "abs_err": self.abs_err,
            "rel_err": self.rel_err,
            "pass": self.passed,
        }
        if self.estimate is not None:
            doc["estimate"] = asdict(self.estimate)
            doc["estimate_pass"] = self.estimate_passed
        return doc


@dataclass(frozen=True, eq=False)
class ProofTrace:
    """Ordered step records for one (network, anchor) replay."""

    n: int
    m: int
    total_conductance: float
    anchor: VertexId
    pendant_conductance: float
    steps: tuple[ProofStep, ...]
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "network": {
                "n": self.n,
                "m": self.m,
                "total_conductance": self.total_conductance,
            },
            "anchor": self.anchor,
            "pendant_conductance": self.pendant_conductance,
            "steps": [s.to_json_dict() for s in self.steps],
            "pass": self.passed,
        }


def _step(name: str, expected: float, computed: float, tolerance: float,
          estimate: simulate.Estimate | None = None) -> ProofStep:
    """Compare computed with expected; an estimate passes inside four
    standard errors of expected."""
    r = rel_err(expected, computed)
    return ProofStep(
        name=name,
        expected=expected,
        computed=computed,
        abs_err=abs(expected - computed),
        rel_err=r,
        passed=r <= tolerance,
        estimate=estimate,
        estimate_passed=(None if estimate is None
                         else abs(estimate.mean - expected) <= 4.0 * estimate.std_error),
    )


def replay(
    net: Network,
    z: VertexId,
    c: float = 1.0,
    tolerance: float = DEFAULT_TOLERANCE,
    simulate_with: tuple[int, int] | None = None,
    step_cap: int = simulate.DEFAULT_STEP_CAP,
) -> ProofTrace:
    """Re-run the pendant argument at z and check all six identities.

    Steps, in order, with G~ the network plus a pendant of conductance c
    at z (c must be finite and > 0):
      1 pendant-first-step  E_pendant[time to z] = 1
      2 pendant-resistance  R(z, pendant) = 1 / c
      3 commute-identity    both hitting times across the new edge sum to
                            total_conductance(G~) * R(z, pendant)
      4 total-time          E_z[time to pendant] = C / c + 1
      5 decomposition       E_z[time to pendant] = (C_z / c) * E_z[return] + 1,
                            with the return time from first-step analysis
                            on the original network (not the closed form,
                            which would make the final step circular)
      6 conclusion          E_z[return] = C / C_z

    At c = 1 every divide by c is exact, so the trace is that of the
    unit pendant bit for bit.

    ``simulate_with`` = (trials, seed) additionally attaches Monte Carlo
    estimates to steps 4-6: the z -> pendant hitting time is simulated
    with the given seed, the return time with seed + 1. The trial count
    and ``step_cap`` are checked before anything is solved.
    """
    net.require(z)
    if simulate_with is not None:
        simulate._check_trial_args(simulate_with[0], step_cap)
    aug = attach_pendant(net, z, c)
    gt = aug.combined
    pendant = aug.pendant
    c = aug.pendant_conductance

    # R(z, pendant) is grounded at the pendant, so it rests on a solve of
    # the whole network; grounded at z it would be the bare 1 / c.
    trip = exact.round_trip(gt, z, pendant)
    pendant_first, z_to_pendant, resistance = trip.y_to_x, trip.x_to_y, trip.resistance
    return_first_step = exact.return_time(net, z)

    hit_est = ret_est = None
    if simulate_with is not None:
        trials, seed = simulate_with
        hit_est = simulate.estimate_hitting_time(gt, z, pendant, trials, seed, step_cap)
        ret_est = simulate.estimate_return_time(net, z, trials, seed + 1, step_cap)

    C = net.total_conductance
    Cz = net.vertex_conductance[z]
    expected_total = C / c + 1.0
    expected_decomp = Cz / c * return_first_step + 1.0
    formula = exact.return_time_formula(net, z)

    steps = (
        _step("pendant-first-step", 1.0, pendant_first, tolerance),
        _step("pendant-resistance", 1.0 / c, resistance, tolerance),
        _step(
            "commute-identity",
            gt.total_conductance * resistance,
            pendant_first + z_to_pendant,
            tolerance,
        ),
        _step("total-time", expected_total, z_to_pendant, tolerance, hit_est),
        _step("decomposition", expected_decomp, z_to_pendant, tolerance, hit_est),
        _step("conclusion", formula, return_first_step, tolerance, ret_est),
    )
    overall = all(s.passed for s in steps) and all(
        s.estimate_passed for s in steps if s.estimate_passed is not None
    )
    return ProofTrace(
        n=net.n,
        m=net.m,
        total_conductance=C,
        anchor=z,
        pendant_conductance=c,
        steps=steps,
        passed=overall,
    )
