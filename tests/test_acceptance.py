"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines. The randomized suite is regenerated deterministically from fixed
seeds, so every run checks the identical set of networks.
"""
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from ohmwalk import (
    build_network,
    chain_to_network,
    estimate_excursions,
    estimate_return_time,
    hitting_time,
    replay,
    return_time,
    return_time_formula,
    rel_err,
    stationary_distribution,
    transition_matrix,
)
from ohmwalk.cli import run

from netgen import network_suite, resistances
from oracles import geometric_fit_pvalue, induced_kernel

SUITE_SEED = 20260808
SUITE_SIZE = 200
KERNEL_SEED = 4242
KERNEL_COUNT = 50


@contextmanager
def criterion(number: int, description: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= limit_seconds:
        print(f"ACCEPTANCE {number}: FAIL - {description} "
              f"(runtime {elapsed:.2f}s over the {limit_seconds:.0f}s budget)")
        raise AssertionError(f"criterion {number} exceeded its runtime budget")
    print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def suite():
    return network_suite(SUITE_SEED, SUITE_SIZE)


@pytest.fixture(scope="module")
def unit_suite():
    return network_suite(SUITE_SEED, SUITE_SIZE, unit=True)


def test_criterion_1_return_time_ratio(suite):
    with criterion(1, "first-step return time equals C/C_z on the randomized suite", 10.0):
        for net in suite:
            for z in net.vertices:
                assert rel_err(return_time(net, z), return_time_formula(net, z)) <= 1e-9


def test_criterion_2_simple_walk_degree_formula(unit_suite):
    with criterion(2, "unit-conductance return time equals 2m/deg(z)", 10.0):
        for net in unit_suite:
            for z in net.vertices:
                assert rel_err(return_time(net, z), 2.0 * net.m / net.degree(z)) <= 1e-9


def test_criterion_3_commute_identity(suite):
    with criterion(3, "hitting(x,y) + hitting(y,x) equals C * R(x,y) on every pair", 30.0):
        for net in suite:
            profiles = {z: hitting_time(net, z).values for z in net.vertices}
            R = resistances(net)
            C = net.total_conductance
            for i, x in enumerate(net.vertices):
                for y in net.vertices[i + 1:]:
                    commute = profiles[y][x] + profiles[x][y]
                    assert rel_err(commute, C * R[net.index[x], net.index[y]]) <= 1e-9


def test_criterion_4_proof_replay(suite):
    with criterion(4, "all six replay steps pass everywhere; triangle trip is 7", 30.0):
        triangle = build_network([("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)])
        trace = replay(triangle, "a")
        total_time = {s.name: s for s in trace.steps}["total-time"]
        assert total_time.expected == 7.0
        assert trace.passed
        for net in suite:
            for z in net.vertices:
                assert replay(net, z, tolerance=1e-9).passed


def test_criterion_5_excursion_statistics():
    with criterion(5, "triangle excursion mean is C_z = 2 and counts fit Geometric(1/3)", 5.0):
        triangle = build_network([("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)])
        est = estimate_excursions(triangle, "a", trials=100_000, seed=SUITE_SEED)
        assert abs(est.mean - 2.0) <= 4.0 * est.std_error
        assert geometric_fit_pvalue(est.counts, 1.0 / 3.0) > 0.001


def test_criterion_6_monte_carlo_vs_exact():
    with criterion(6, "K4 simulated return time lands within 4 standard errors of 4", 5.0):
        k4 = build_network(
            [(u, v, 1.0) for i, u in enumerate("abcd") for v in "abcd"[i + 1:]]
        )
        est = estimate_return_time(k4, "a", trials=100_000, seed=SUITE_SEED)
        assert abs(est.mean - 4.0) <= 4.0 * est.std_error
        assert 4.0 * est.std_error < 0.05  # the band is genuinely tight


def test_criterion_7_stationary_identity(suite):
    with criterion(7, "pi is the fixed point and 1/pi_z equals C/C_z at 1e-12", 30.0):
        for net in suite:
            pi = stationary_distribution(net)
            vec = np.array([pi.weight(v) for v in net.vertices])
            assert np.max(np.abs(vec @ transition_matrix(net) - vec)) <= 1e-12
            for z in net.vertices:
                assert rel_err(1.0 / pi.weight(z), return_time_formula(net, z)) <= 1e-12


def test_criterion_8_metric_and_rayleigh(suite):
    with criterion(8, "resistance is a metric and Rayleigh monotonicity holds", 60.0):
        for net in suite:
            R = resistances(net)
            assert np.max(np.abs(R - R.T)) <= 1e-9
            assert np.all(np.diagonal(R) == 0.0)
            off = R[~np.eye(net.n, dtype=bool)]
            if off.size:
                assert np.min(off) > 0.0
            via = R[:, :, None] + R[None, :, :]
            assert np.all(via >= R[:, None, :] - 1e-9)
            for k in range(net.m):
                bumped = build_network([
                    (u, v, c * 2.0 if i == k else c)
                    for i, (u, v, c) in enumerate(net.edges)
                ])
                R_up = resistances(bumped)
                assert np.all(R_up <= R + 1e-9 * np.maximum(1.0, R))


def test_criterion_9_cli_determinism(tmp_path, capsys):
    with criterion(9, "repeated simulate invocations emit byte-identical documents", 30.0):
        path = tmp_path / "k4.edges"
        path.write_text(
            "\n".join(f"{u} {v} 1" for i, u in enumerate("abcd") for v in "abcd"[i + 1:])
            + "\n"
        )
        invocations = [
            ["simulate", "return", str(path), "a", "--trials", "20000", "--seed", "11"],
            ["simulate", "hitting", str(path), "a", "b", "--trials", "20000", "--seed", "12"],
            ["simulate", "excursions", str(path), "c", "--trials", "20000", "--seed", "13"],
            ["simulate", "return", str(path), "a", "--trials", "5000", "--seed", "11",
             "--format", "csv"],
        ]
        for argv in invocations:
            assert run(argv) == 0
            first = capsys.readouterr().out
            assert run(argv) == 0
            second = capsys.readouterr().out
            assert first.encode() == second.encode()
            if "--format" not in argv:
                json.loads(first)


def test_criterion_10_reversible_round_trip():
    with criterion(10, "induced kernels rebuild into networks with the same walk", 30.0):
        rng = np.random.default_rng(KERNEL_SEED)
        checked = 0
        while checked < KERNEL_COUNT:
            nets = network_suite(int(rng.integers(1, 2**31)), 1, n_hi=10)
            source = nets[0]
            P = transition_matrix(source)
            rebuilt = chain_to_network(P)
            states = tuple(range(source.n))
            assert np.max(np.abs(induced_kernel(rebuilt, states) - P)) <= 1e-9
            checked += 1
