import json

import numpy as np
import pytest

from ohmwalk import (
    NonPositiveConductance,
    UnknownVertex,
    build_network,
    commute_time,
    rel_err,
    replay,
    resistance_matrix,
    return_time,
    return_time_formula,
)
from ohmwalk.replay import STEP_NAMES

from netgen import random_connected_network


class TestReplayFixtures:
    def test_triangle_trace_values(self, triangle):
        trace = replay(triangle, "a")
        steps = {s.name: s for s in trace.steps}
        assert trace.passed
        assert [s.name for s in trace.steps] == list(STEP_NAMES)
        assert steps["total-time"].expected == 7.0
        assert steps["total-time"].computed == pytest.approx(7.0, rel=1e-12)
        assert steps["decomposition"].expected == pytest.approx(7.0, rel=1e-12)
        assert steps["conclusion"].expected == pytest.approx(3.0, rel=1e-12)
        assert steps["conclusion"].computed == pytest.approx(3.0, rel=1e-12)

    def test_k2_trace_values(self, k2):
        trace = replay(k2, "a")
        steps = {s.name: s for s in trace.steps}
        assert trace.passed
        assert steps["total-time"].expected == 3.0
        assert steps["conclusion"].expected == 2.0
        assert steps["pendant-first-step"].computed == pytest.approx(1.0, abs=1e-12)
        assert steps["pendant-resistance"].computed == pytest.approx(1.0, abs=1e-12)

    def test_trace_header_fields(self, triangle):
        trace = replay(triangle, "b")
        assert (trace.n, trace.m) == (3, 3)
        assert trace.total_conductance == 6.0
        assert trace.anchor == "b"
        assert trace.pendant_conductance == 1.0

    def test_conclusion_expected_is_the_formula_bitwise(self, weighted_path):
        for z in weighted_path.vertices:
            trace = replay(weighted_path, z)
            steps = {s.name: s for s in trace.steps}
            assert steps["conclusion"].expected == return_time_formula(weighted_path, z)

    def test_unknown_anchor(self, triangle):
        with pytest.raises(UnknownVertex):
            replay(triangle, "zz")


class TestReplayProperties:
    @pytest.mark.parametrize("seed", range(30))
    def test_every_step_passes_on_random_networks(self, seed):
        net = random_connected_network(np.random.default_rng(1000 + seed))
        z = net.vertices[int(np.random.default_rng(seed).integers(net.n))]
        trace = replay(net, z, tolerance=1e-9)
        assert trace.passed, [
            (s.name, s.expected, s.computed, s.rel_err) for s in trace.steps
        ]

    def test_first_step_is_exact(self, triangle):
        for z in triangle.vertices:
            first = replay(triangle, z).steps[0]
            assert first.abs_err < 1e-12

    def test_errors_recorded_both_ways(self, weighted_path):
        # rel_err's denominator is floored at 1, so it never exceeds abs_err
        for s in replay(weighted_path, "2").steps:
            assert 0.0 <= s.rel_err <= s.abs_err or s.abs_err == 0.0


class TestReplaySimulation:
    def test_bands_attach_to_simulable_steps(self, triangle):
        trace = replay(triangle, "a", simulate_with=(4_000, 13))
        by_name = {s.name: s for s in trace.steps}
        for name in ("total-time", "decomposition", "conclusion"):
            s = by_name[name]
            assert s.estimate is not None
            assert s.estimate.trials == 4_000
            assert s.estimate_passed is True
        for name in ("pendant-first-step", "pendant-resistance", "commute-identity"):
            assert by_name[name].estimate is None
        assert trace.passed

    def test_simulated_trace_is_deterministic(self, k2):
        a = replay(k2, "a", simulate_with=(500, 3)).to_json_dict()
        b = replay(k2, "a", simulate_with=(500, 3)).to_json_dict()
        assert json.dumps(a) == json.dumps(b)


class TestTraceSerialization:
    def test_schema_keys(self, triangle):
        doc = replay(triangle, "a", simulate_with=(200, 0)).to_json_dict()
        assert set(doc) == {"network", "anchor", "pendant_conductance", "steps", "pass"}
        assert set(doc["network"]) == {"n", "m", "total_conductance"}
        for step_doc in doc["steps"]:
            assert list(step_doc)[:6] == [
                "name", "expected", "computed", "abs_err", "rel_err", "pass",
            ]
        assert json.loads(json.dumps(doc)) == doc

    def test_plain_trace_has_no_estimate_keys(self, triangle):
        doc = replay(triangle, "a").to_json_dict()
        for step_doc in doc["steps"]:
            assert "estimate" not in step_doc


def _assert_identity_families(net, tolerance):
    """Return time vs C / C_z at every vertex, commute time vs C * R over
    every pair, and return time vs 2m / deg(z) when every conductance is 1."""
    C = net.total_conductance
    R = resistance_matrix(net)
    unit = all(c == 1.0 for _, _, c in net.edges)
    for z in net.vertices:
        assert rel_err(return_time(net, z), return_time_formula(net, z)) <= tolerance
        if unit:
            assert rel_err(return_time(net, z), 2.0 * net.m / net.degree(z)) <= tolerance
    for i, x in enumerate(net.vertices):
        for y in net.vertices[i + 1:]:
            want = C * R[net.index[x], net.index[y]]
            assert rel_err(commute_time(net, x, y), want) <= tolerance


class TestVerifyTheorems:
    """The paper's identity families, swept over every vertex and pair."""

    def test_triangle_all_families_tight(self, triangle):
        _assert_identity_families(triangle, 1e-12)

    def test_weighted_path_family_values(self, weighted_path):
        _assert_identity_families(weighted_path, 1e-9)
        values = [return_time_formula(weighted_path, z) for z in ("1", "2", "3")]
        assert values == [6.0, 2.0, 3.0]

    def test_star_unit_conductance(self, star3):
        _assert_identity_families(star3, 1e-9)
        assert [2.0 * star3.m / star3.degree(z) for z in star3.vertices] == [2.0, 6.0, 6.0, 6.0]

    @pytest.mark.parametrize("seed", range(10))
    def test_random_networks(self, seed):
        _assert_identity_families(random_connected_network(np.random.default_rng(seed)), 1e-9)


class TestGeneralizedPendant:
    """replay with a pendant of conductance c: R = 1/c, trip C/c + 1."""

    @pytest.mark.parametrize("c,expected_trip", [(1.0, 7.0), (2.0, 4.0), (0.5, 13.0)])
    def test_triangle_trip_lengths(self, triangle, c, expected_trip):
        trace = replay(triangle, "a", c)
        steps = {s.name: s for s in trace.steps}
        assert trace.passed
        assert trace.pendant_conductance == c
        assert steps["pendant-resistance"].expected == 1.0 / c
        assert steps["total-time"].expected == expected_trip
        assert steps["total-time"].computed == pytest.approx(expected_trip, rel=1e-12)
        # C_a / c excursions of expected length E_a[return] = 3, plus the last step
        assert steps["decomposition"].expected == pytest.approx(expected_trip, rel=1e-12)

    @pytest.mark.parametrize("c", [0.1, 0.5, 1.0, 2.0, 10.0])
    @pytest.mark.parametrize("seed", [2, 5, 8])
    def test_random_networks_all_conductances(self, c, seed):
        net = random_connected_network(np.random.default_rng(seed), n_hi=9)
        z = net.vertices[0]
        trace = replay(net, z, c)
        assert trace.passed, [(s.name, s.expected, s.computed) for s in trace.steps]

    def test_with_simulation_band(self, triangle):
        trace = replay(triangle, "a", 2.0, simulate_with=(20_000, 31))
        assert trace.passed
        hit = {s.name: s for s in trace.steps}["total-time"]
        assert hit.estimate.trials == 20_000
        assert hit.estimate_passed is True

    @pytest.mark.parametrize("seed", range(8))
    def test_log_uniform_conductances(self, seed):
        rng = np.random.default_rng(300 + seed)
        net = random_connected_network(rng)
        c = float(10.0 ** rng.uniform(-3.0, 3.0))
        trace = replay(net, net.vertices[-1], c)
        assert trace.passed, (c, [(s.name, s.rel_err) for s in trace.steps])

    @pytest.mark.parametrize("c", [0.0, -1.0, float("inf"), float("nan")])
    def test_bad_conductance_rejected(self, triangle, c):
        with pytest.raises(NonPositiveConductance):
            replay(triangle, "a", c)
