"""Step-by-step numeric verification of the pendant-vertex argument.

The return-time identity E_z[T+_z] = C / C_z has a short derivation that
runs through a pendant construction: hang a fresh unit-conductance vertex
off z, then chain together the forced first step from the pendant, the
pendant edge's resistance, the commute identity on the new edge, and the
excursion decomposition of the trip from z to the pendant. ``replay``
re-executes that chain on an arbitrary network, checking every
intermediate identity against an independent grounded-Laplacian
computation and reporting a structured trace.
"""
from __future__ import annotations

from dataclasses import dataclass

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
            doc["estimate"] = {
                "mean": self.estimate.mean,
                "std_error": self.estimate.std_error,
                "trials": self.estimate.trials,
                "seed": self.estimate.seed,
                "steps_total": self.estimate.steps_total,
                "steps_max": self.estimate.steps_max,
            }
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
          estimate=None, estimate_passed=None) -> ProofStep:
    r = rel_err(expected, computed)
    return ProofStep(
        name=name,
        expected=expected,
        computed=computed,
        abs_err=abs(expected - computed),
        rel_err=r,
        passed=r <= tolerance,
        estimate=estimate,
        estimate_passed=estimate_passed,
    )


def _band_ok(estimate: simulate.Estimate, expected: float) -> bool:
    return abs(estimate.mean - expected) <= 4.0 * estimate.std_error


def replay(
    net: Network,
    z: VertexId,
    tolerance: float = DEFAULT_TOLERANCE,
    simulate_with: tuple[int, int] | None = None,
    step_cap: int = simulate.DEFAULT_STEP_CAP,
) -> ProofTrace:
    """Re-run the pendant argument at z and check all six identities.

    Steps, in order, with G~ the network plus a unit pendant at z:
      1 pendant-first-step  E_pendant[time to z] = 1
      2 pendant-resistance  R(z, pendant) = 1
      3 commute-identity    both hitting times across the new edge sum to
                            total_conductance(G~) * R(z, pendant)
      4 total-time          E_z[time to pendant] = C + 1
      5 decomposition       E_z[time to pendant] = C_z * E_z[return] + 1,
                            with the return time from first-step analysis
                            on the original network (not the closed form,
                            which would make the final step circular)
      6 conclusion          E_z[return] = C / C_z

    ``simulate_with`` = (trials, seed) additionally attaches Monte Carlo
    estimates to steps 4-6: the z -> pendant hitting time is simulated
    with the given seed, the return time with seed + 1.
    """
    net.require(z)
    aug = attach_pendant(net, z, 1.0)
    gt = aug.combined
    pendant = aug.pendant

    to_z = exact.hitting_time(gt, z).values
    to_pendant = exact.hitting_time(gt, pendant).values
    pendant_first = to_z[pendant]
    z_to_pendant = to_pendant[z]
    resistance = exact.effective_resistance(gt, z, pendant)
    return_first_step = exact.return_time(net, z)

    hit_est = ret_est = None
    if simulate_with is not None:
        trials, seed = simulate_with
        hit_est = simulate.estimate_hitting_time(gt, z, pendant, trials, seed, step_cap)
        ret_est = simulate.estimate_return_time(net, z, trials, seed + 1, step_cap)

    C = net.total_conductance
    Cz = net.vertex_conductance[z]
    expected_total = C + 1.0
    expected_decomp = Cz * return_first_step + 1.0
    formula = exact.return_time_formula(net, z)

    steps = (
        _step("pendant-first-step", 1.0, pendant_first, tolerance),
        _step("pendant-resistance", 1.0, resistance, tolerance),
        _step(
            "commute-identity",
            gt.total_conductance * resistance,
            pendant_first + z_to_pendant,
            tolerance,
        ),
        _step(
            "total-time", expected_total, z_to_pendant, tolerance,
            estimate=hit_est,
            estimate_passed=None if hit_est is None else _band_ok(hit_est, expected_total),
        ),
        _step(
            "decomposition", expected_decomp, z_to_pendant, tolerance,
            estimate=hit_est,
            estimate_passed=None if hit_est is None else _band_ok(hit_est, expected_decomp),
        ),
        _step(
            "conclusion", formula, return_first_step, tolerance,
            estimate=ret_est,
            estimate_passed=None if ret_est is None else _band_ok(ret_est, formula),
        ),
    )
    overall = all(s.passed for s in steps) and all(
        s.estimate_passed for s in steps if s.estimate_passed is not None
    )
    return ProofTrace(
        n=net.n,
        m=net.m,
        total_conductance=C,
        anchor=z,
        pendant_conductance=1.0,
        steps=steps,
        passed=overall,
    )


@dataclass(frozen=True, eq=False)
class FamilyCheck:
    """Worst relative error over one family of identity checks."""

    name: str
    comparisons: int
    max_rel_err: float
    passed: bool


@dataclass(frozen=True, eq=False)
class TheoremReport:
    families: tuple[FamilyCheck, ...]
    passed: bool


def verify_theorems(net: Network, tolerance: float = DEFAULT_TOLERANCE) -> TheoremReport:
    """Sweep the network's identity families and report worst-case errors.

    Families: first-step return time vs C / C_z at every vertex; summed
    hitting times vs total conductance times resistance over every vertex
    pair; and, when every conductance is exactly 1, return time vs
    2 m / deg(z).
    """
    families = []

    ratio_err = max(
        rel_err(exact.return_time(net, z), exact.return_time_formula(net, z))
        for z in net.vertices
    )
    families.append(FamilyCheck(
        name="return-time-formula",
        comparisons=net.n,
        max_rel_err=ratio_err,
        passed=ratio_err <= tolerance,
    ))

    profiles = {z: exact.hitting_time(net, z).values for z in net.vertices}
    R = exact.resistance_matrix(net)
    C = net.total_conductance
    commute_err = 0.0
    pairs = 0
    for i, x in enumerate(net.vertices):
        for y in net.vertices[i + 1:]:
            commute = profiles[y][x] + profiles[x][y]
            commute_err = max(commute_err, rel_err(commute, C * R[net.index[x], net.index[y]]))
            pairs += 1
    families.append(FamilyCheck(
        name="commute-identity",
        comparisons=pairs,
        max_rel_err=commute_err,
        passed=commute_err <= tolerance,
    ))

    if all(c == 1.0 for _, _, c in net.edges):
        degree_err = max(
            rel_err(exact.return_time(net, z), 2.0 * net.m / net.degree(z))
            for z in net.vertices
        )
        families.append(FamilyCheck(
            name="simple-walk-degree-formula",
            comparisons=net.n,
            max_rel_err=degree_err,
            passed=degree_err <= tolerance,
        ))

    return TheoremReport(
        families=tuple(families),
        passed=all(f.passed for f in families),
    )


def generalized_pendant_check(
    net: Network,
    z: VertexId,
    c: float,
    tolerance: float = DEFAULT_TOLERANCE,
    simulate_with: tuple[int, int] | None = None,
    step_cap: int = simulate.DEFAULT_STEP_CAP,
) -> bool:
    """Check the pendant identities for an arbitrary pendant conductance c.

    With conductance c on the pendant edge the resistance across it is
    1/c and the augmented total conductance is C + 2c, so the trip from z
    to the pendant takes C / c + 1 expected steps. When ``simulate_with``
    is given, the mean excursion count is additionally required to land
    within four standard errors of C_z / c.
    """
    aug = attach_pendant(net, z, c)
    trip = exact.hitting_time(aug.combined, aug.pendant).values[z]
    expected = net.total_conductance / c + 1.0
    ok = rel_err(expected, trip) <= tolerance
    if simulate_with is not None:
        trials, seed = simulate_with
        est = simulate.estimate_excursions(aug, trials, seed, step_cap)
        ok = ok and _band_ok(est, net.vertex_conductance[z] / c)
    return ok
