import math

import numpy as np
import pytest

from ohmwalk import (
    CapExceeded,
    SystemTooLarge,
    UnknownVertex,
    attach_pendant,
    build_network,
    estimate_excursions,
    estimate_hitting_time,
    estimate_return_time,
    hitting_time,
    step,
    trace_walk,
    transition_distribution,
    trial_generator,
)

from ohmwalk import simulate
from ohmwalk.simulate import (
    _CHUNK,
    _SCALAR_TAIL,
    _lockstep_tables,
    _path,
    _pcg_step,
    _pick,
    _seed_states,
    _uniform,
)

from netgen import network_suite
from oracles import (
    per_trial_walks,
    excursions_mc_oracle,
    geometric_fit_pvalue,
    hitting_time_mc_oracle,
    return_time_mc_oracle,
)


class TestStep:
    def test_forced_move(self, k2):
        rng = trial_generator(0, 0)
        assert step(k2, "a", rng) == "b"

    def test_fixed_seed_reproduces_sequence(self, triangle):
        seq1 = []
        rng = trial_generator(42, 0)
        cur = "a"
        for _ in range(50):
            cur = step(triangle, cur, rng)
            seq1.append(cur)
        rng = trial_generator(42, 0)
        cur = "a"
        seq2 = [cur := step(triangle, cur, rng) for _ in range(50)]
        assert seq1 == seq2

    def test_empirical_frequencies_match_conductance_ratio(self, weighted_path):
        draws = 1_000_000
        rng = trial_generator(123, 0)
        hits = sum(step(weighted_path, "2", rng) == "3" for _ in range(draws))
        p = 2.0 / 3.0
        band = 3.0 * math.sqrt(p * (1.0 - p) / draws)
        assert abs(hits / draws - p) < band

    def test_unknown_vertex(self, k2):
        with pytest.raises(UnknownVertex):
            step(k2, "zz", trial_generator(0, 0))


class TestTraceWalk:
    def test_consecutive_entries_adjacent(self, triangle):
        trace = trace_walk(triangle, "a", "c", trial_generator(7, 0))
        assert trace.start == "a"
        assert trace.steps[0] == "a"
        assert trace.steps[-1] == "c"
        assert trace.terminal_reason == "hit-target"
        for cur, nxt in zip(trace.steps, trace.steps[1:]):
            assert nxt in {z for z, _ in triangle.neighbors[cur]}

    def test_cap_reached_reported_not_raised(self, triangle):
        trace = trace_walk(triangle, "a", "c", trial_generator(0, 0), step_cap=0)
        assert trace.terminal_reason == "cap-reached"
        assert trace.steps == ("a",)


class TestReturnTimeEstimator:
    def test_k2_is_deterministic(self, k2):
        est = estimate_return_time(k2, "a", trials=500, seed=9)
        assert est.mean == 2.0
        assert est.std_error == 0.0
        assert est.trials == 500
        assert (est.steps_total, est.steps_max) == (1000, 2)

    def test_leaf_neighbors_force_two_steps(self, weighted_path):
        est = estimate_return_time(weighted_path, "2", trials=200, seed=1)
        assert est.mean == 2.0
        assert est.std_error == 0.0

    def test_k4_within_band(self, k4):
        est = estimate_return_time(k4, "a", trials=100_000, seed=7)
        assert abs(est.mean - 4.0) <= 4.0 * est.std_error
        assert est.std_error < 0.01

    def test_bit_identical_reruns(self, k4):
        a = estimate_return_time(k4, "b", trials=5_000, seed=33)
        b = estimate_return_time(k4, "b", trials=5_000, seed=33)
        assert (a.mean, a.std_error) == (b.mean, b.std_error)

    def test_negative_seed_accepted_and_recorded(self, k4):
        est = estimate_return_time(k4, "a", trials=100, seed=-17)
        assert est.seed == -17
        again = estimate_return_time(k4, "a", trials=100, seed=-17)
        assert est.mean == again.mean

    def test_cap_poisons_estimate(self, k4):
        with pytest.raises(CapExceeded):
            estimate_return_time(k4, "a", trials=100, seed=0, step_cap=1)

    def test_bad_trial_count(self, k2):
        with pytest.raises(ValueError):
            estimate_return_time(k2, "a", trials=0, seed=0)

    def test_too_many_trials_raise_system_too_large(self, k4, small_memory):
        # 16 bytes a trial: the samples and the standard deviation's temporary
        with pytest.raises(SystemTooLarge, match=r"needs 15\.3 MiB of sample storage"):
            estimate_return_time(k4, "a", trials=10**6, seed=0)

    @pytest.mark.parametrize("estimator", ("return", "hitting", "excursions"))
    def test_out_of_memory_in_the_summary_raises_system_too_large(self, k4, monkeypatch,
                                                                    estimator):
        # the samples fit, but the summary's temporary does not
        def refuse(*args):
            raise MemoryError("cannot allocate the temporary of the standard deviation")

        monkeypatch.setattr(simulate, "_summary", refuse)
        run = {"return": lambda: estimate_return_time(k4, "a", 100, seed=0),
               "hitting": lambda: estimate_hitting_time(k4, "a", "b", 100, seed=0),
               "excursions": lambda: estimate_excursions(attach_pendant(k4, "a", 1.0), 100, 0)}
        with pytest.raises(SystemTooLarge, match="MiB of sample storage"):
            run[estimator]()


class TestSummaryBits:
    """_summary reduces the int64 samples without a float copy of them. numpy
    sums them through a casting buffer, in another order than it sums a
    float copy, so at 10**5 trials the mean and std_error keep the copy's
    bits only because every partial sum is exact."""

    @pytest.mark.parametrize("estimator", ("return", "hitting", "excursions"))
    def test_mean_and_std_error_keep_the_float_copy_bits(self, k4, estimator):
        trials, seed, cap = 10**5, 11, 10**7
        aug = attach_pendant(k4, "a", 1.0)
        a, b, pendant = (aug.combined.index[v] for v in ("a", "b", aug.pendant))
        if estimator == "return":
            est = estimate_return_time(k4, "a", trials, seed)
            walked = simulate._walk_trials(k4, a, a, None, trials, seed, cap)
        elif estimator == "hitting":
            est = estimate_hitting_time(k4, "a", "b", trials, seed)
            walked = simulate._walk_trials(k4, a, b, None, trials, seed, cap)
        else:
            est = estimate_excursions(aug, trials, seed)
            walked = simulate._walk_trials(aug.combined, a, pendant, a, trials, seed, cap)
        data = walked[0].astype(float)
        mean, se = float(data.mean()), float(data.std(ddof=1) / math.sqrt(trials))
        assert (est.mean.hex(), est.std_error.hex()) == (mean.hex(), se.hex())


class TestHittingTimeEstimator:
    def test_same_vertex_is_zero(self, triangle):
        est = estimate_hitting_time(triangle, "a", "a", trials=50, seed=0)
        assert est.mean == 0.0
        assert est.std_error == 0.0

    def test_forced_step(self, k2):
        est = estimate_hitting_time(k2, "a", "b", trials=300, seed=4)
        assert est.mean == 1.0
        assert est.std_error == 0.0

    def test_unit_path_within_band(self, unit_path):
        est = estimate_hitting_time(unit_path, "a", "c", trials=100_000, seed=21)
        assert abs(est.mean - 4.0) <= 4.0 * est.std_error


class TestExcursionEstimator:
    def test_k2_pendant(self, k2):
        aug = attach_pendant(k2, "a", 1.0)
        est = estimate_excursions(aug, trials=100_000, seed=5)
        assert abs(est.mean - 1.0) <= 4.0 * est.std_error

    def test_triangle_pendant(self, triangle):
        aug = attach_pendant(triangle, "a", 1.0)
        est = estimate_excursions(aug, trials=100_000, seed=6)
        assert abs(est.mean - 2.0) <= 4.0 * est.std_error
        assert sum(est.counts.values()) == est.trials
        assert list(est.counts) == sorted(est.counts)

    def test_doubled_pendant_conductance(self, triangle):
        # success probability per visit read off the augmented network
        # itself: mean failures = (1 - p) / p = C_z / c = 1
        aug = attach_pendant(triangle, "a", 2.0)
        p = transition_distribution(aug.combined, "a").weight(aug.pendant)
        assert p == pytest.approx(0.5, rel=1e-12)
        est = estimate_excursions(aug, trials=100_000, seed=8)
        assert abs(est.mean - (1.0 - p) / p) <= 4.0 * est.std_error

    def test_counts_follow_geometric_law(self, triangle):
        aug = attach_pendant(triangle, "a", 1.0)
        est = estimate_excursions(aug, trials=100_000, seed=12)
        assert geometric_fit_pvalue(est.counts, 1.0 / 3.0) > 0.001

    def test_visits_equal_excursions_plus_one(self, triangle):
        aug = attach_pendant(triangle, "b", 1.0)
        for trial in range(25):
            est = estimate_excursions(aug, trials=1, seed=trial)
            trace = trace_walk(aug.combined, "b", aug.pendant, trial_generator(trial, 0))
            visits = trace.steps[:-1].count("b")
            assert visits == est.mean + 1

    def test_mean_matches_absorbing_oracle(self, triangle):
        # absorbing-chain oracle: expected visits to the anchor before
        # absorption = 1/p for the geometric number of trials
        aug = attach_pendant(triangle, "c", 0.5)
        p = transition_distribution(aug.combined, "c").weight(aug.pendant)
        est = estimate_excursions(aug, trials=50_000, seed=3)
        assert abs(est.mean - (1.0 - p) / p) <= 4.0 * est.std_error


class TestSubstreamRule:
    def test_trial_generator_is_the_documented_construction(self):
        a = trial_generator(99, 3).random(5)
        ss = np.random.SeedSequence((99, 3))
        b = np.random.Generator(np.random.PCG64(ss)).random(5)
        assert a.tolist() == b.tolist()

    def test_estimate_reconstructs_from_per_trial_streams(self, triangle):
        # trial i depends only on (seed, i), so the whole estimate can be
        # rebuilt by walking each substream independently
        trials, seed = 40, 77
        samples = []
        for i in range(trials):
            rng = trial_generator(seed, i)
            cur, steps = "a", 0
            while True:
                cur = step(triangle, cur, rng)
                steps += 1
                if cur == "a":
                    break
            samples.append(steps)
        est = estimate_return_time(triangle, "a", trials=trials, seed=seed)
        assert est.mean == np.mean(samples)
        assert est.std_error == np.std(samples, ddof=1) / math.sqrt(trials)


SEEDS = (0, 1, -1, 2**32, 2**63, 2**64 - 1)
TRIALS = (0, 1, 2**32 - 1, 2**32)


class TestVectorizedSeeding:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("trial", TRIALS)
    def test_state_and_inc_match_pcg64(self, seed, trial):
        hi, lo, inc_hi, inc_lo = _seed_states(seed, trial, 1)
        want = np.random.PCG64(np.random.SeedSequence((seed & (2**64 - 1), trial))).state
        assert int(hi[0]) << 64 | int(lo[0]) == want["state"]["state"]
        assert int(inc_hi[0]) << 64 | int(inc_lo[0]) == want["state"]["inc"]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_range_across_the_word_boundary(self, seed):
        # trials below 2**32 hash one entropy word, the rest two
        first = 2**32 - 3
        got = _seed_states(seed, first, 6)
        for k in range(6):
            want = np.random.PCG64(np.random.SeedSequence((seed & (2**64 - 1), first + k)))
            state = want.state["state"]
            assert int(got[0][k]) << 64 | int(got[1][k]) == state["state"]
            assert int(got[2][k]) << 64 | int(got[3][k]) == state["inc"]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_first_uniforms_match_trial_generator(self, seed):
        hi, lo, inc_hi, inc_lo = _seed_states(seed, 2**32 - 2, 3)
        draws = []
        for _ in range(50):
            _pcg_step(hi, lo, inc_hi, inc_lo)
            draws.append(_uniform(hi, lo))
        for k, trial in enumerate(range(2**32 - 2, 2**32 + 1)):
            rng = trial_generator(seed, trial)
            assert [d[k] for d in draws] == [rng.random() for _ in range(50)]
        for trial in (0, 1):
            rng = trial_generator(seed, trial)
            hi, lo, inc_hi, inc_lo = _seed_states(seed, trial, 1)
            for _ in range(50):
                _pcg_step(hi, lo, inc_hi, inc_lo)
                assert _uniform(hi, lo)[0] == rng.random()


class TestVectorizedPick:
    def test_matches_scalar_bisect(self):
        # degrees up to 40, equal running sums after a huge conductance, and
        # u = 1, which lands on a row's total, past the bisect's bound
        star = build_network([("hub", f"l{i}", 0.5 + i % 7) for i in range(40)])
        flat = build_network([("h", "a", 1e20), ("h", "b", 1.0), ("h", "c", 1.0), ("a", "b", 2.0)])
        rng = np.random.default_rng(4)
        for net in [star, flat, *network_suite(9, 6)]:
            rows = np.repeat(np.arange(net.n), 60)
            u = rng.random(len(rows))
            u[::20], u[1::20], u[2::20] = 0.0, 1.0 - 2.0**-53, 1.0
            got = _pick(_lockstep_tables(net), rows, u)
            want = [next(_path(net, r, (x,))) for r, x in zip(rows.tolist(), u.tolist())]
            assert got.tolist() == want


def _fields(est) -> dict:
    doc = {"mean": est.mean, "std_error": est.std_error,
           "steps_total": est.steps_total, "steps_max": est.steps_max}
    if hasattr(est, "counts"):
        doc["counts"] = est.counts
    return doc


class TestKernelMatchesPerTrialOracle:
    @pytest.mark.parametrize("seed", (-1, 2**63, 2**64 - 1))
    @pytest.mark.parametrize("trials", (_SCALAR_TAIL - 1, _SCALAR_TAIL, _SCALAR_TAIL + 1, 300))
    def test_random_networks(self, seed, trials):
        cap = 10**6
        for net in network_suite(seed % 1000, 4, n_lo=3, n_hi=8):
            z, y = net.vertices[0], net.vertices[-1]
            aug = attach_pendant(net, y, 0.7)
            assert _fields(estimate_return_time(net, z, trials, seed)) == \
                return_time_mc_oracle(net, z, trials, seed, cap)
            assert _fields(estimate_hitting_time(net, z, y, trials, seed)) == \
                hitting_time_mc_oracle(net, z, y, trials, seed, cap)
            assert _fields(estimate_excursions(aug, trials, seed)) == \
                excursions_mc_oracle(aug, trials, seed, cap)

    def test_several_chunks(self, k4):
        trials, seed, cap = 2 * _CHUNK + 5, 2**64 - 1, 10**6
        aug = attach_pendant(k4, "b", 2.0)
        assert _fields(estimate_return_time(k4, "a", trials, seed)) == \
            return_time_mc_oracle(k4, "a", trials, seed, cap)
        assert _fields(estimate_hitting_time(k4, "a", "d", trials, seed)) == \
            hitting_time_mc_oracle(k4, "a", "d", trials, seed, cap)
        assert _fields(estimate_excursions(aug, trials, seed)) == \
            excursions_mc_oracle(aug, trials, seed, cap)

    @pytest.mark.parametrize("trials", (_SCALAR_TAIL - 1, 2 * _SCALAR_TAIL))
    def test_cap_one_short_of_a_forced_walk(self, k2, trials):
        # every return to a takes exactly two steps, in the lock-step rounds
        # and in the scalar loop alike
        assert estimate_return_time(k2, "a", trials, seed=0, step_cap=2).steps_max == 2
        with pytest.raises(CapExceeded):
            estimate_return_time(k2, "a", trials, seed=0, step_cap=1)

    @pytest.mark.parametrize("trials,seed,first", [
        pytest.param(_SCALAR_TAIL - 1, 2**63, 0, id=str(_SCALAR_TAIL - 1)),
        pytest.param(2 * _SCALAR_TAIL, 2**63, 0, id=str(2 * _SCALAR_TAIL)),
        # the longest trial starts in the lane of a finished one
        pytest.param(2 * _CHUNK + 5, 8, _CHUNK, id=str(2 * _CHUNK + 5)),
    ])
    def test_cap_with_exactly_one_trial_over(self, trials, seed, first):
        # the longest trial is unique, so a cap one below it fails that trial alone
        ring = build_network([(i, (i + 1) % 8, 1.0) for i in range(8)])
        aug = attach_pendant(ring, 3, 0.5)
        cases = [
            (lambda cap: estimate_return_time(ring, 0, trials, seed, cap), (0, 0, None)),
            (lambda cap: estimate_hitting_time(ring, 0, 4, trials, seed, cap), (0, 4, None)),
            (lambda cap: estimate_excursions(aug, trials, seed, cap), (3, aug.pendant, 3)),
        ]
        for run, (start, target, anchor) in cases:
            net = aug.combined if anchor is not None else ring
            steps, _ = per_trial_walks(net, start, target, anchor, trials, seed, 10**6)
            longest, runner_up = sorted(steps)[-1], sorted(steps)[-2]
            assert longest > runner_up
            assert steps.index(longest) >= first
            assert run(longest).steps_max == longest
            with pytest.raises(CapExceeded):
                run(longest - 1)


class TestRefilledLanes:
    """A lane whose trial finishes takes the next trial, so lock-step rounds
    walk full lanes until every trial has one, and the scalar loop runs
    once per estimate."""

    @pytest.mark.parametrize("estimator", ("return", "excursions"))
    def test_lanes_stay_full(self, k4, monkeypatch, estimator):
        rounds = tail = 0
        pick, finish = simulate._pick, simulate._finish

        def pick_spy(*args):
            nonlocal rounds
            rounds += 1
            return pick(*args)

        def finish_spy(*args):
            nonlocal tail
            tail += 1
            return finish(*args)

        monkeypatch.setattr(simulate, "_pick", pick_spy)
        monkeypatch.setattr(simulate, "_finish", finish_spy)
        if estimator == "return":
            est = estimate_return_time(k4, "a", trials=100_000, seed=1)
        else:
            est = estimate_excursions(attach_pendant(k4, "a", 1.0), trials=50_000, seed=1)
        # full lanes take steps_total / _CHUNK rounds; draining them, at most steps_max
        assert rounds <= est.steps_total / _CHUNK + est.steps_max
        assert tail <= _SCALAR_TAIL


class TestScalarTail:
    """Estimates with fewer trials than _SCALAR_TAIL, walked wholly in the scalar loop,
    whose uniforms come in blocks of 16, 32, ... 4096 (step 16, 48, 112, ... ends one)."""

    TRIALS = _SCALAR_TAIL - 1

    def test_long_walks_cross_block_sizes(self):
        line = build_network([(i, i + 1, 1.0) for i in range(29)])
        aug = attach_pendant(line, 15, 0.05)
        seed, cap = 2**64 - 1, 10**7
        hit = estimate_hitting_time(line, 0, 29, self.TRIALS, seed)
        assert _fields(hit) == hitting_time_mc_oracle(line, 0, 29, self.TRIALS, seed, cap)
        exc = estimate_excursions(aug, self.TRIALS, seed)
        assert _fields(exc) == excursions_mc_oracle(aug, self.TRIALS, seed, cap)
        # the longest trials run into the 2048 block and the second 4096 block
        assert hit.steps_max > 16 + 32 + 64 + 128 + 256 + 512 + 1024
        assert exc.steps_max > 16 + 32 + 64 + 128 + 256 + 512 + 1024 + 2048 + 4096

    @pytest.mark.parametrize("cap", (15, 16, 17, 47, 48, 49, 111, 112, 113))
    def test_cap_at_block_boundaries(self, cap):
        # the longest trials take 70, 112 and 71 steps: the hitting walk
        # arrives on the last uniform of the third block
        ring = build_network([(i, (i + 1) % 12, 1.0) for i in range(12)])
        aug = attach_pendant(ring, 6, 4.0)
        seed, n = 1, self.TRIALS
        cases = [
            (lambda: estimate_return_time(ring, 0, n, seed, cap),
             return_time_mc_oracle(ring, 0, n, seed, 10**6)),
            (lambda: estimate_hitting_time(ring, 0, 6, n, seed, cap),
             hitting_time_mc_oracle(ring, 0, 6, n, seed, 10**6)),
            (lambda: estimate_excursions(aug, n, seed, cap),
             excursions_mc_oracle(aug, n, seed, 10**6)),
        ]
        longest = []
        for run, want in cases:
            longest.append(want["steps_max"])
            if want["steps_max"] > cap:
                with pytest.raises(CapExceeded):
                    run()
            else:
                assert _fields(run()) == want
        assert longest == [70, 112, 71]


@pytest.mark.parametrize(
    "estimator,exact",
    [
        ("return", 3.0),
        ("hitting", 4.0),
        ("excursions", 2.0),
    ],
)
def test_band_consistency_over_repetitions(estimator, exact, triangle, unit_path):
    hits = 0
    reps = 100
    aug = attach_pendant(triangle, "a", 1.0)
    for rep in range(reps):
        if estimator == "return":
            est = estimate_return_time(triangle, "a", trials=1_500, seed=rep)
        elif estimator == "hitting":
            est = estimate_hitting_time(unit_path, "a", "c", trials=1_500, seed=rep)
        else:
            est = estimate_excursions(aug, trials=1_500, seed=rep)
        if abs(est.mean - exact) <= 4.0 * est.std_error:
            hits += 1
    assert hits >= 95
