import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ohmwalk import (
    NonPositiveConductance,
    UnknownVertex,
    build_network,
    commute_time,
    estimate_excursions,
    rel_err,
    replay,
    return_time,
    return_time_formula,
)
from ohmwalk import exact, network
from ohmwalk.network import _partials, _pendant_totals, _sum
from ohmwalk.replay import STEP_NAMES

from netgen import grid_network, network_suite, random_connected_network, resistances
from oracles import pendant_network, pendant_network_steps


def _leaf_partition(net):
    """exact._leaves for net's band: (B, first, end, L)."""
    return exact._leaves(net.n, int(exact._band(net)[4].max()))


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

    @pytest.mark.parametrize("seed", range(3))
    def test_factors_two_grounded_matrices(self, seed, eliminations):
        # the network with a leak at z (G~ grounded at the pendant) and the
        # network grounded at z for the return time; these have one leaf, so
        # both are the whole network
        net = random_connected_network(np.random.default_rng(seed))
        assert len(_leaf_partition(net)[1]) == 1
        replay(net, net.vertices[-1], c=2.0)
        assert eliminations == [net.n, net.n]
        eliminations.clear()
        replay(net, net.vertices[-1], c=2.0, simulate_with=(50, 0))
        assert eliminations == [net.n, net.n]

    @pytest.mark.parametrize("rows,cols", [(4, 4), (6, 6), (3, 8)])
    def test_several_leaves_sweep_then_factor_two_leaf_systems(self, rows, cols, eliminations):
        # The forward sweep eliminates the places before z's leaf, the
        # backward sweep those after it (each runs only when there are any),
        # then both systems are the leaf's L rows.
        net = grid_network(rows, cols)
        B, first, end, L = _leaf_partition(net)
        assert len(first) >= 3 and L < net.n
        place = exact._band(net)[1]
        for z in net.vertices:
            eliminations.clear()
            replay(net, z, c=2.0)
            i = place[net.index[z]] // B
            swept = [int(s) for s in (first[i], net.n - end[i]) if s]
            assert eliminations == swept + [L, L], z

    def test_builds_no_network_with_or_without_simulation(self, monkeypatch, triangle):
        # the exact side solves on the base network, and the simulated
        # z -> pendant walk reads G~'s spliced walk table
        calls = []
        for module, name in ((network, "_from_edges"), (exact, "round_trip")):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, fn=fn: calls.append(a) or fn(*a))
        assert replay(triangle, "a", 2.0).passed
        replay(triangle, "a", 2.0, simulate_with=(50, 0))
        assert calls == []

    @pytest.mark.parametrize("kwargs", [
        {"tolerance": 0.0}, {"tolerance": -1.0},
        {"tolerance": float("nan")}, {"tolerance": float("inf")},
        {"simulate_with": (1, 0)},  # one trial has no standard error: every band is empty
    ])
    def test_bad_arguments_rejected_before_any_solve(self, triangle, eliminations, kwargs):
        with pytest.raises(ValueError):
            replay(triangle, "a", **kwargs)
        assert eliminations == []


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

    def test_a_band_that_misses_fails_the_trace(self, triangle):
        # two trials at seed 4 both reach the pendant in 1 step: mean 1, no spread
        trace = replay(triangle, "a", simulate_with=(2, 4))
        assert all(s.passed for s in trace.steps)
        assert [s.estimate_passed for s in trace.steps][3:] == [False, False, True]
        assert trace.passed is False

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
    R = resistances(net)
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

    @pytest.mark.parametrize("seed", range(4))
    def test_bits_of_a_network_below_unit_conductance(self, seed):
        # below 1 the network is scaled up by a power of two, and the leaked
        # system, whose c = 1 is its largest conductance, is scaled back down:
        # every value matches the network and c taken 2**10 times, bit for bit
        rng = np.random.default_rng(seed)
        net = random_connected_network(rng, n_hi=9, c_lo=0.01, c_hi=0.9)
        wide = build_network([(u, v, c * 2.0**10) for u, v, c in net.edges])
        z = net.vertices[0]
        small, big = replay(net, z, 1.0), replay(wide, z, 2.0**10)
        assert small.passed
        for s, b in zip(small.steps, big.steps):
            scale = 2.0**10 if s.name == "pendant-resistance" else 1.0
            assert s.computed == b.computed * scale, s.name

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


def _assert_pendant_network_bits(net, c):
    """replay's steps against the pendant-network route. The two eliminate
    different graphs in different orders, so each value may differ in its
    last bits; both are entrywise accurate, so they agree within 1e-13."""
    for z in net.vertices:
        got = [(s.expected, s.computed) for s in replay(net, z, c).steps]
        want = pendant_network_steps(net, z, c)
        assert all(rel_err(g, w) <= 1e-13 for pair, ref in zip(got, want)
                   for g, w in zip(pair, ref)), (z, c, got, want)


def _extreme(r):
    """a-b 1, b-c r, c-d 1, d-a 1/r, a-c 1: conductance ratio r**2."""
    return build_network([("a", "b", 1.0), ("b", "c", r), ("c", "d", 1.0),
                          ("d", "a", 1.0 / r), ("a", "c", 1.0)])


def _extreme_ladder(r):
    """A 3 x 8 ladder whose conductances cycle through 1, r, 1, 1/r, 1, as
    _extreme's do, so the ratio is r**2; narrow, so it has several leaves."""
    shape = grid_network(8, 3)
    cycle = (1.0, r, 1.0, 1.0 / r, 1.0)
    return build_network([(u, v, cycle[i % 5]) for i, (u, v, _) in enumerate(shape.edges)])


class TestPendantNetworkBits:
    """replay solves on the network with a leak; every step must agree with
    solving on the explicitly built pendant network, to 1e-13."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_networks(self, seed):
        net = random_connected_network(np.random.default_rng(2000 + seed))
        for c in (0.1, 1.0, 2.0, 10.0):
            _assert_pendant_network_bits(net, c)

    @pytest.mark.parametrize("seed", range(10))
    def test_log_uniform_conductances(self, seed):
        rng = np.random.default_rng(400 + seed)
        net = random_connected_network(rng)
        net = build_network(
            [(u, v, float(10.0 ** rng.uniform(-6.0, 6.0))) for u, v, _ in net.edges]
        )
        _assert_pendant_network_bits(net, float(10.0 ** rng.uniform(-3.0, 3.0)))

    @pytest.mark.parametrize("r", [1e8, 1e10, 1e12])
    def test_extreme_networks(self, r):
        _assert_pendant_network_bits(_extreme(r), 1.0)
        assert all(replay(_extreme(r), z).passed for z in "abcd")

    @pytest.mark.parametrize("r", [1e8, 1e10, 1e12])
    def test_extreme_ladders_with_several_leaves(self, r):
        net = _extreme_ladder(r)
        assert len(_leaf_partition(net)[1]) >= 3
        _assert_pendant_network_bits(net, 1.0)
        for z in net.vertices:
            trace = replay(net, z)
            assert trace.passed, (z, [(s.name, s.rel_err) for s in trace.steps])

    def test_total_conductance_overflow_rejected(self):
        # C = 8e307 is finite, C + 2c = 2e308 is not
        with pytest.raises(NonPositiveConductance):
            replay(build_network([("a", "b", 4e307)]), "a", 6e307)

    def test_replay_and_excursions_reject_an_overflowed_total_alike(self, triangle):
        # C~_a = 2 + 1.7e308 is finite, C~ = 4 + 2 * 1.7e308 is not
        message = "total conductance with a pendant of 1.7e+308 at 'a' is not finite"
        with pytest.raises(NonPositiveConductance) as replayed:
            replay(triangle, "a", 1.7e308)
        with pytest.raises(NonPositiveConductance) as walked:
            estimate_excursions(triangle, "a", 10, 0, c=1.7e308)
        assert str(replayed.value) == str(walked.value) == message


def _pendant_total(values, i, leaky, c):
    """C~ as one correctly rounded sum: the vertex conductances with the
    anchor's C_z (values[i]) swapped for C~_z (leaky), plus c."""
    return _sum([*values[:i], leaky, *values[i + 1:], c])


_VERTEX_CONDUCTANCE = st.floats(min_value=5e-324, max_value=1e308) | st.sampled_from(
    [5e-324, 1e-300, 1.0, 1e300, 1e308])


class TestPendantTotal:
    """replay adds -C_z, C~_z and c to the exact partials of C's terms, once
    per anchor; C~ must keep the bits of one fsum over all of G~'s terms."""

    @pytest.mark.parametrize("c", (5e-324, 0.7, 2.0, 1e300))
    def test_totals_are_those_of_the_built_pendant_network(self, c):
        for net in network_suite(2600, 6, n_hi=10):
            for z, totals in zip(net.vertices, _pendant_totals(net, net.vertices, c)):
                built, _ = pendant_network(net, z, c)
                assert totals == (built.vertex_conductance[z], built.total_conductance), (z, c)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_VERTEX_CONDUCTANCE, min_size=1, max_size=40), st.data())
    def test_partials_give_the_full_sum(self, values, data):
        assume(math.isfinite(_sum(values)))  # as build_network requires of C
        i = data.draw(st.integers(0, len(values) - 1))
        c = data.draw(_VERTEX_CONDUCTANCE)
        leaky = _sum([values[i], c])
        total = _sum([*_partials(values), -values[i], leaky, c])
        assert total == _pendant_total(values, i, leaky, c) or (
            math.isinf(total) and math.isinf(_pendant_total(values, i, leaky, c)))

    def test_an_expansion_of_many_terms(self):
        # Each power of two sits below half an ulp of the value before it, so
        # each is a term of its own: 39 terms, from 1e308 down to 5e-324.
        values = [1e308, *(math.ldexp(1.0, 960 - 54 * k) for k in range(37)), 5e-324]
        terms = _partials(values)
        assert len(terms) >= 20
        for i in (0, 1, 20, len(values) - 1):
            for c in (5e-324, 1.0, 1e300):
                leaky = _sum([values[i], c])
                total = _sum([*terms, -values[i], leaky, c])
                assert total.hex() == _pendant_total(values, i, leaky, c).hex(), (i, c)

    @pytest.mark.parametrize("seed", range(6))
    def test_commute_identity_expects_the_full_sum(self, seed):
        rng = np.random.default_rng(7100 + seed)
        net = random_connected_network(rng)
        net = build_network([(u, v, float(10.0 ** rng.uniform(-6.0, 6.0)))
                             for u, v, _ in net.edges])
        values = list(net.vertex_conductance.values())
        for c in (1e-7, 1.0, 1e7):
            for i, z in enumerate(net.vertices):
                leaky = _sum([*(w for _, w in net.neighbors[z]), c])
                trace = replay(net, z, c)
                resistance = trace.steps[1].computed
                assert (trace.steps[2].expected
                        == _pendant_total(values, i, leaky, c) * resistance), (z, c)

    @pytest.mark.parametrize("edges,c", [
        ([("a", "b", 4e307)], 6e307),  # C~_z is finite, C~ is not
        ([("a", "b", 5e307), ("b", "c", 1.0)], 1.5e308),  # C~_z overflows too, but at c
        ([("a", "b", 1.0), ("b", "c", 1e-300)], 1.7976931348623157e308),
    ])
    def test_overflow_raises_at_every_anchor(self, edges, c):
        net = build_network(edges)
        for z in net.vertices:
            with pytest.raises(NonPositiveConductance):
                replay(net, z, c)


class TestAccuracy:
    """Every step passes at 1e-9 however far apart the conductances are."""

    @pytest.mark.parametrize("r", [1e16, 1e20, 1e24])
    def test_extreme_networks_pass_at_every_anchor(self, r):
        net = _extreme(r)
        for z in net.vertices:
            trace = replay(net, z)
            assert trace.passed, (z, [(s.name, s.rel_err) for s in trace.steps])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           exponents=st.lists(st.floats(-12.0, 12.0), min_size=28, max_size=28),
           pendant=st.floats(-12.0, 12.0))
    def test_log_uniform_conductances_pass_every_step(self, seed, exponents, pendant):
        # at most 8 vertices, so at most 28 edges: one exponent each
        shape = random_connected_network(np.random.default_rng(seed), n_hi=8)
        net = build_network([(u, v, 10.0 ** e) for (u, v, _), e in zip(shape.edges, exponents)])
        z = net.vertices[seed % net.n]
        trace = replay(net, z, 10.0 ** pendant)
        assert trace.passed, [(s.name, s.rel_err) for s in trace.steps]
