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
trace. Its exact side solves on the original network only, two systems
per anchor, each within the anchor's leaf: the part of the elimination
order near the anchor, with the rest of the network Kron-reduced onto it by
two sweeps that all anchors share (see exact._leaf_solves, replay and
_replay_batch).
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from . import exact, simulate
from .errors import NonPositiveConductance
from .network import Network, VertexId, _check_conductance, _sum, attach_pendant
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
      1 pendant-first-step  E_pendant[time to z] = 1, true by construction
                            (its only edge goes to z), kept for the argument
      2 pendant-resistance  R(z, pendant) = 1 / c
      3 commute-identity    both hitting times across the new edge sum to
                            total_conductance(G~) * R(z, pendant)
      4 total-time          E_z[time to pendant] = C / c + 1
      5 decomposition       E_z[time to pendant] = (C_z / c) * E_z[return] + 1,
                            with the return time from first-step analysis
                            on the original network (not the closed form,
                            which would make the final step circular)
      6 conclusion          E_z[return] = C / C_z

    G~ is never built for the exact side; two systems of net, run as one
    batch, do: net with a leak c to ground at z is G~ grounded at the
    pendant and gives steps 2-5, and net grounded at z gives the return
    time. The leak is c itself, never C_z + c, so a pendant far smaller
    than C_z still counts. Both are solved in z's leaf, after the forward
    and backward sweeps have eliminated every place before and after it
    (see exact._leaf_solves); the sweeps run only as far as that leaf.
    ``cli`` verify runs every anchor through ``_replay_batch`` with the
    same leaf partition and the same sweeps, so a trace has the same bits
    there.

    ``simulate_with`` = (trials, seed) additionally attaches Monte Carlo
    estimates to steps 4-6: the z -> pendant hitting time is simulated on
    G~ with the given seed, the return time with seed + 1. One trial has
    no standard error, hence an empty band, so at least 2 are needed.
    A finite tolerance > 0, c, the trial count and ``step_cap`` are
    checked before anything is solved.
    """
    return _replay_batch(net, [z], c, tolerance, simulate_with, step_cap)[0]


def _replay_batch(net: Network, anchors, c: float = 1.0, tolerance: float = DEFAULT_TOLERANCE,
                  simulate_with: tuple[int, int] | None = None,
                  step_cap: int = simulate.DEFAULT_STEP_CAP) -> list[ProofTrace]:
    """``replay`` at each anchor in turn. Every argument is checked first.

    The sweeps run once, as far as the anchors' leaves need, and the leaf
    systems in batches of up to ``exact._batch_limit``. A leaf's system
    depends only on net and the partition, each sweep's copies only on how
    far it has run, and the kernel's updates are elementwise over the batch
    with sums along each system's own rows, so a trace's bits do not depend
    on the other anchors or on the batch it ran in."""
    for z in anchors:
        net.require(z)
    c = _check_conductance(c)
    if not 0.0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and > 0, got {tolerance!r}")
    if simulate_with is not None:
        simulate._check_trial_args(simulate_with[0], step_cap)
        if simulate_with[0] < 2:
            raise ValueError(f"a simulated replay needs trials >= 2, got {simulate_with[0]}")

    # C~_z and C~ are summed over the terms build_network would sum for G~.
    vertex_conductance = net.arrays[3].tolist()
    rows = [net.index[z] for z in anchors]
    leaky = [_sum([*(w for _, w in net.neighbors[z]), c]) for z in anchors]
    totals = []
    for z, iz, cz in zip(anchors, rows, leaky):
        total = _sum([*vertex_conductance[:iz], cz, *vertex_conductance[iz + 1:], c])
        if not math.isfinite(total):
            raise NonPositiveConductance(f"total conductance with a pendant of {c!r} "
                                         f"at {z!r} is not finite")
        totals.append(total)

    solved = exact._solve_anchors(net, rows, leaky, c)
    return [_trace(net, z, c, total, *values, tolerance, simulate_with, step_cap)
            for z, total, values in zip(anchors, totals, solved)]


def _trace(net: Network, z: VertexId, c: float, total: float, z_to_pendant: float,
           resistance: float, return_first_step: float, tolerance: float, simulate_with,
           step_cap: int) -> ProofTrace:
    """One anchor's steps from its two solves (see exact._solve_anchors). The
    resistance comes from G~ grounded at the pendant, which rests on the
    whole network (reduced onto z's leaf); grounded at z it would be the
    bare 1 / c."""
    pendant_first = 1.0  # by construction: the pendant's only edge goes to z

    hit_est = ret_est = None
    if simulate_with is not None:
        trials, seed = simulate_with
        aug = attach_pendant(net, z, c)
        hit_est = simulate.estimate_hitting_time(aug.combined, z, aug.pendant, trials, seed,
                                                 step_cap)
        ret_est = simulate.estimate_return_time(net, z, trials, seed + 1, step_cap)

    C = net.total_conductance
    Cz = net.vertex_conductance[z]
    steps = (
        _step("pendant-first-step", 1.0, pendant_first, tolerance),
        _step("pendant-resistance", 1.0 / c, resistance, tolerance),
        _step("commute-identity", total * resistance, pendant_first + z_to_pendant,
              tolerance),
        _step("total-time", C / c + 1.0, z_to_pendant, tolerance, hit_est),
        _step("decomposition", Cz / c * return_first_step + 1.0, z_to_pendant, tolerance,
              hit_est),
        _step("conclusion", exact.return_time_formula(net, z), return_first_step, tolerance,
              ret_est),
    )
    return ProofTrace(
        n=net.n, m=net.m, total_conductance=C, anchor=z, pendant_conductance=c, steps=steps,
        passed=all(s.passed and s.estimate_passed is not False for s in steps),
    )
