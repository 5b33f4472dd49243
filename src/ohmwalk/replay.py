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
trace. It builds no network for G~ (the network plus the pendant). Its
exact side solves on the original network only, two systems per anchor,
each within the anchor's leaf: the part of the elimination order near the
anchor, with the rest of the network Kron-reduced onto it by two sweeps
that all anchors share (see exact._leaf_solves, replay and
_replay_batch). Its simulated side walks G~ through a walk table spliced
from the original's (simulate._pendant_table).

verify's JSON document is laid out here once, as text (``_verify_json``,
``_trace_json`` and ``_step_json``), which ``cli`` verify writes as it
stands: json.dumps with an indent, pure Python, is two to four times slower
on a sweep's document. ``ProofStep.to_json_dict`` and
``ProofTrace.to_json_dict`` parse that same text.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

from . import exact
from .network import Network, VertexId, _check_conductance, _pendant_totals
from .util import DEFAULT_STEP_CAP, DEFAULT_TOLERANCE, rel_err

if TYPE_CHECKING:  # simulate loads only when a replay simulates
    from .simulate import Estimate

STEP_NAMES = (
    "pendant-first-step",
    "pendant-resistance",
    "commute-identity",
    "total-time",
    "decomposition",
    "conclusion",
)


@dataclass(frozen=True, eq=False)
class ProofStep:
    """One verified identity: closed-form expectation vs independent solve.

    Both absolute and relative error are recorded because some steps
    compare against the constant 1, where relative error alone says
    little. When simulation was requested the step also carries a Monte
    Carlo estimate and whether the expected value sits inside its
    four-standard-error band.

    Its JSON layout is written once, as text, by ``_step_json``: keys name,
    expected, computed, abs_err, rel_err and pass, then estimate (the
    Estimate's fields) and estimate_pass when there is an estimate.
    ``to_json_dict`` is the parse of that text.
    """

    name: str
    expected: float
    computed: float
    abs_err: float
    rel_err: float
    passed: bool
    estimate: Estimate | None = None
    estimate_passed: bool | None = None

    def to_json_dict(self) -> dict:
        return json.loads(_step_json(self))


@dataclass(frozen=True, eq=False)
class ProofTrace:
    """Ordered step records for one (network, anchor) replay.

    Its JSON layout is written once, as text, by ``_trace_json``: keys
    network (n, m, total_conductance), anchor, pendant_conductance, steps
    and pass. ``to_json_dict`` is the parse of that text, so a tuple anchor
    comes back as a list.
    """

    n: int
    m: int
    total_conductance: float
    anchor: VertexId
    pendant_conductance: float
    steps: tuple[ProofStep, ...]
    passed: bool

    def to_json_dict(self) -> dict:
        return json.loads(_trace_json(self))


def _step(name: str, expected: float, computed: float, tolerance: float,
          estimate: Estimate | None = None) -> ProofStep:
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
    step_cap: int = DEFAULT_STEP_CAP,
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

    G~ is never built. On the exact side two systems of net, run as one
    batch, stand in for it: net with a leak c to ground at z is G~
    grounded at the pendant and gives steps 2-5, and net grounded at z
    gives the return time. The leak is c itself, never C_z + c, so a
    pendant far smaller than C_z still counts. Both are solved in z's leaf,
    after the forward and backward sweeps have eliminated every place
    before and after it (see exact._leaf_solves); the sweeps run only as
    far as that leaf.
    ``cli`` verify runs every anchor through ``_replay_batch`` with the
    same leaf partition and the same sweeps, so a trace has the same bits
    there.

    ``simulate_with`` = (trials, seed) additionally attaches Monte Carlo
    estimates to steps 4-6: the z -> pendant hitting time is simulated on
    G~'s spliced walk table with the given seed, the return time with
    seed + 1. One trial has no standard error, hence an empty band, so at
    least 2 are needed.
    A finite tolerance > 0, c, the trial count and ``step_cap`` are
    checked before anything is solved.
    """
    return _replay_batch(net, [z], c, tolerance, simulate_with, step_cap)[0]


def _replay_batch(net: Network, anchors, c: float = 1.0, tolerance: float = DEFAULT_TOLERANCE,
                  simulate_with: tuple[int, int] | None = None,
                  step_cap: int = DEFAULT_STEP_CAP) -> list[ProofTrace]:
    """``replay`` at each anchor in turn. Every argument is checked first.

    The sweeps run once, as far as the anchors' leaves need, and the leaf
    systems in batches of up to ``exact._batch_limit``. A leaf's system
    depends only on net and the partition, each sweep's rows at a leaf
    boundary only on the boundaries before it, and the kernel's updates are
    elementwise or one matmul per member, so a trace's bits do not depend on
    the other anchors or on the batch it ran in."""
    for z in anchors:
        net.require(z)
    c = _check_conductance(c)
    if not 0.0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and > 0, got {tolerance!r}")
    if simulate_with is not None:
        from . import simulate

        simulate._check_trial_args(simulate_with[0], step_cap)
        if simulate_with[0] < 2:
            raise ValueError(f"a simulated replay needs trials >= 2, got {simulate_with[0]}")

    leaky, totals = zip(*_pendant_totals(net, anchors, c))
    rows = [net.index[z] for z in anchors]
    solved = exact._solve_anchors(net, rows, list(leaky), c)
    return [_trace(net, z, iz, c, total, *values, tolerance, simulate_with, step_cap)
            for z, iz, total, values in zip(anchors, rows, totals, solved)]


def _trace(net: Network, z: VertexId, iz: int, c: float, total: float, z_to_pendant: float,
           resistance: float, return_first_step: float, tolerance: float, simulate_with,
           step_cap: int) -> ProofTrace:
    """One anchor's steps, z at row iz, from its two solves (see exact._solve_anchors). The
    resistance comes from G~ grounded at the pendant, which rests on the
    whole network (reduced onto z's leaf); grounded at z it would be the
    bare 1 / c."""
    pendant_first = 1.0  # by construction: the pendant's only edge goes to z

    hit_est = ret_est = None
    if simulate_with is not None:
        from . import simulate

        trials, seed = simulate_with
        hit_est = simulate._hitting_estimate(simulate._pendant_table(net, iz, c), iz, net.n,
                                             trials, seed, step_cap, net.vertices[iz])
        ret_est = simulate.estimate_return_time(net, z, trials, seed + 1, step_cap)

    C = net.total_conductance
    Cz = float(net.row_conductance[iz])
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


# verify's JSON text. Each part below is what json.dumps(doc, indent=2)
# writes for it at its fixed depth in verify's document, so that
# _verify_json joins them to json.dumps(doc, indent=2) + "\n" byte for byte;
# the pure-Python encoder an indent needs would cost more than the replay on
# a sweep.

def _float(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


def _nested(value, pad: str) -> str:
    """Any value as json.dumps(value, indent=2) writes it, its lines after the
    first indented by ``pad``."""
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


def _network_json(x, pad: str) -> str:
    """The network block of x's n, m and total_conductance, its lines after
    the first indented by ``pad``."""
    return (f'{{\n'
            f'{pad}  "n": {int.__repr__(x.n)},\n'
            f'{pad}  "m": {int.__repr__(x.m)},\n'
            f'{pad}  "total_conductance": {_float(x.total_conductance)}\n'
            f'{pad}}}')


def _step_json(s: ProofStep) -> str:
    estimate = ("" if s.estimate is None  # only verify --simulate, on three steps
                else f',\n          "estimate": {_nested(asdict(s.estimate), "          ")},\n'
                     f'          "estimate_pass": {_bool(s.estimate_passed)}')
    return (f'        {{\n'
            f'          "name": {encode_basestring_ascii(s.name)},\n'
            f'          "expected": {_float(s.expected)},\n'
            f'          "computed": {_float(s.computed)},\n'
            f'          "abs_err": {_float(s.abs_err)},\n'
            f'          "rel_err": {_float(s.rel_err)},\n'
            f'          "pass": {_bool(s.passed)}{estimate}\n'
            f'        }}')


def _trace_json(t: ProofTrace) -> str:
    anchor = (encode_basestring_ascii(t.anchor) if type(t.anchor) is str
              else _nested(t.anchor, "      "))
    steps = ",\n".join(map(_step_json, t.steps))
    return (f'    {{\n'
            f'      "network": {_network_json(t, "      ")},\n'
            f'      "anchor": {anchor},\n'
            f'      "pendant_conductance": {_float(t.pendant_conductance)},\n'
            f'      "steps": [\n{steps}\n      ],\n'
            f'      "pass": {_bool(t.passed)}\n'
            f'    }}')


def _verify_json(net, tolerance: float, traces, verdict: bool):
    """Yield the parts of verify's document (cli's _run_verify) for ``net``'s
    n, m and total_conductance and the ProofTraces, of which there is at
    least one, each with at least one step: its header, each trace's text
    and its footer."""
    yield (f'{{\n'
           f'  "network": {_network_json(net, "  ")},\n'
           f'  "tolerance": {_float(tolerance)},\n'
           f'  "traces": [')
    for i, t in enumerate(traces):
        yield ("\n" if i == 0 else ",\n") + _trace_json(t)
    yield f'\n  ],\n  "pass": {_bool(verdict)}\n}}\n'
