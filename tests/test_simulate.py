import math
from bisect import bisect_right
from dataclasses import asdict
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ohmwalk import (
    CapExceeded,
    Network,
    SystemTooLarge,
    UnknownVertex,
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
from ohmwalk.network import _JUMP_ROW_BYTES, BUCKETS
from ohmwalk.simulate import (
    _CHUNK,
    _SCALAR_TAIL,
    _advance,
    _double,
    _lockstep_tables,
    _marked,
    _output,
    _path,
    _pcg_step,
    _pendant_table,
    _pick,
    _seed_states,
    _table,
)

from netgen import network_suite, random_connected_network
from oracles import (
    bits,
    bucket_picks,
    per_trial_walks,
    excursions_mc_oracle,
    geometric_fit_pvalue,
    hitting_time_mc_oracle,
    pendant_network,
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
               "excursions": lambda: estimate_excursions(k4, "a", 100, 0)}
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
        a, b = k4.index["a"], k4.index["b"]
        if estimator == "return":
            est = estimate_return_time(k4, "a", trials, seed)
            walked = simulate._walk_trials(_table(k4), a, a, -1, trials, seed, cap, "a")
        elif estimator == "hitting":
            est = estimate_hitting_time(k4, "a", "b", trials, seed)
            walked = simulate._walk_trials(_table(k4), a, b, -1, trials, seed, cap, "a")
        else:
            est = estimate_excursions(k4, "a", trials, seed)
            walked = simulate._walk_trials(_pendant_table(k4, a, 1.0), a, k4.n, a, trials, seed,
                                           cap, "a")
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
        est = estimate_excursions(k2, "a", trials=100_000, seed=5)
        assert abs(est.mean - 1.0) <= 4.0 * est.std_error

    def test_triangle_pendant(self, triangle):
        est = estimate_excursions(triangle, "a", trials=100_000, seed=6)
        assert abs(est.mean - 2.0) <= 4.0 * est.std_error
        assert sum(est.counts.values()) == est.trials
        assert list(est.counts) == sorted(est.counts)

    def test_doubled_pendant_conductance(self, triangle):
        # success probability per visit read off the augmented network
        # itself: mean failures = (1 - p) / p = C_z / c = 1
        combined, pendant = pendant_network(triangle, "a", 2.0)
        p = transition_distribution(combined, "a").weight(pendant)
        assert p == pytest.approx(0.5, rel=1e-12)
        est = estimate_excursions(triangle, "a", trials=100_000, seed=8, c=2.0)
        assert abs(est.mean - (1.0 - p) / p) <= 4.0 * est.std_error

    def test_counts_follow_geometric_law(self, triangle):
        est = estimate_excursions(triangle, "a", trials=100_000, seed=12)
        assert geometric_fit_pvalue(est.counts, 1.0 / 3.0) > 0.001

    def test_visits_equal_excursions_plus_one(self, triangle):
        combined, pendant = pendant_network(triangle, "b", 1.0)
        for trial in range(25):
            est = estimate_excursions(triangle, "b", trials=1, seed=trial)
            trace = trace_walk(combined, "b", pendant, trial_generator(trial, 0))
            visits = trace.steps[:-1].count("b")
            assert visits == est.mean + 1

    def test_mean_matches_absorbing_oracle(self, triangle):
        # absorbing-chain oracle: expected visits to the anchor before
        # absorption = 1/p for the geometric number of trials
        combined, pendant = pendant_network(triangle, "c", 0.5)
        p = transition_distribution(combined, "c").weight(pendant)
        est = estimate_excursions(triangle, "c", trials=50_000, seed=3, c=0.5)
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
            draws.append(_double(_output(hi, lo)))
        for k, trial in enumerate(range(2**32 - 2, 2**32 + 1)):
            rng = trial_generator(seed, trial)
            assert [d[k] for d in draws] == [rng.random() for _ in range(50)]
        for trial in (0, 1):
            rng = trial_generator(seed, trial)
            hi, lo, inc_hi, inc_lo = _seed_states(seed, trial, 1)
            for _ in range(50):
                _pcg_step(hi, lo, inc_hi, inc_lo)
                assert _double(_output(hi, lo))[0] == rng.random()


ULP = 2.0**-53  # the spacing of the uniforms Generator.random draws


def _running_sum_pick(net, v: int, u: float) -> int:
    """The walk's pick from row v, written out: bisect the row's running
    conductance sums for u times their last, and take that neighbour, the
    last at most."""
    neighbours, weights = net.row(v)
    running = list(accumulate(weights))
    return neighbours[min(bisect_right(running, u * running[-1]), len(neighbours) - 1)]


def _extreme_wheel() -> Network:
    """A hub of degree 70 over a ring of 70 unit edges, its spokes
    log-uniform over 1e-2 .. 1e2 but one subnormal and one of 1e-300, whose
    running sums equal those before them; and a vertex s whose every
    conductance, and so its total, is subnormal."""
    spokes = 10.0 ** np.random.default_rng(5).uniform(-2.0, 2.0, 70)
    spokes[3], spokes[4] = 5e-324, 1e-300
    edges = [("h", i, float(c)) for i, c in enumerate(spokes)]
    edges += [(i, (i + 1) % 70, 1.0) for i in range(70)]
    edges += [("s", 10, 3 * 5e-324), ("s", 11, 5 * 5e-324)]
    return build_network(edges)


# A 1e20 edge followed by unit ones: f's running sums are all 1e20, so its
# walk only ever takes the first edge, to g.
_TRAP = [("f", "g", 1e20), ("f", 30, 1.0), ("f", 40, 1.0)]


def _conductances():
    return st.one_of(
        st.floats(-300.0, 300.0).map(lambda e: 10.0**e),  # log-uniform over 1e-300 .. 1e300
        st.integers(1, 2**20).map(lambda k: k * 5e-324),  # subnormal
        st.sampled_from((1e20, 1.0)),
    )


class TestWalkTable:
    """Network.walk's cuts reproduce the running-sum pick for every uniform
    the simulator can draw, k * 2**-53 for k in [0, 2**53)."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_conductances(), min_size=1, max_size=80))
    @example([1e20, 1.0, 1.0, 1.0])  # equal running sums
    @example([3 * 5e-324, 5 * 5e-324, 5e-324])  # a subnormal total
    @example([5e-324, 1.0, 1e-300, 2.0])
    def test_each_cut_is_the_least_uniform_that_passes(self, weights):
        net = build_network([("hub", f"l{i}", c) for i, c in enumerate(weights)])
        rows, cut, _ = net.walk
        for v in range(net.n):
            neighbours, row_weights = net.row(v)
            running = list(accumulate(row_weights))
            total = running[-1]
            cuts, row_neighbours = rows[v][BUCKETS]
            assert row_neighbours == tuple(neighbours)
            lo, hi = net.indptr[v], net.indptr[v + 1]
            assert cut[lo:hi].tolist() == [*cuts, math.inf]
            for j, t in enumerate(cuts):
                assert (t / ULP).is_integer() and 0.0 <= t <= 1.0
                assert running[j] <= t * total
                assert t == 0.0 or not running[j] <= (t - ULP) * total
            for u in (0.0, 1.0 - ULP):
                assert row_neighbours[bisect_right(cuts, u)] == _running_sum_pick(net, v, u)


def _grid(k: int, rng=None) -> Network:
    """A k x k grid, its conductances log-uniform over 1e-3 .. 1e3 if rng is given."""
    edges = [(i, i + d, 1.0) for i in range(k * k) for d in (1, k)
             if (d == k or i % k < k - 1) and i + d < k * k]
    if rng is not None:
        edges = [(u, v, float(10.0 ** rng.uniform(-3.0, 3.0))) for u, v, _ in edges]
    return build_network(edges)


class TestBucketTable:
    """Network.walk's jump rows: each entry is the row that bisect_right of
    the row's cuts picks at both ends of its bucket, its least and its
    greatest uniform, or -1 exactly where the two picks differ
    (tests/oracles.py bucket_picks). Each row's tuple holds them before its
    cuts and neighbours, as the int objects of its neighbour tuple."""

    @staticmethod
    def ambiguous_share(net) -> float:
        rows, _, jump = net.walk
        assert jump.dtype == np.intp and jump.shape == (net.n, BUCKETS)
        assert not jump.flags.writeable
        assert len(rows) == net.n
        for v, row in enumerate(rows):
            assert len(row) == BUCKETS + 1
            cuts, neighbours = row[BUCKETS]
            assert row[:BUCKETS] == bucket_picks(cuts, neighbours) == tuple(jump[v].tolist()), v
            held = {id(u) for u in neighbours}
            assert all(id(w) in held for w in row[:BUCKETS] if w != -1), v
        return float(np.mean(jump == -1))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_conductances(), min_size=1, max_size=80))
    @example([1e20, 1.0, 1.0, 1.0])  # equal running sums
    @example([3 * 5e-324, 5 * 5e-324, 5e-324])  # a subnormal total
    @example([1.0, 1.0, 1.0, 1.0])  # every cut on a bucket's edge
    def test_each_entry_is_the_pick_at_both_ends_of_its_bucket(self, weights):
        self.ambiguous_share(build_network([("hub", f"l{i}", c) for i, c in enumerate(weights)]))

    def test_more_than_1024_rows(self):
        net = _grid(33, np.random.default_rng(27))
        assert net.n > 1024
        assert 0.0 < self.ambiguous_share(net) < 0.1

    def test_k60_buckets_are_mostly_ambiguous(self):
        # 58 cuts j / 59 in each row's 64 buckets, none on a bucket's edge
        k60 = build_network([(i, j, 1.0) for i in range(60) for j in range(i + 1, 60)])
        assert self.ambiguous_share(k60) == 58 / 64

    def test_out_of_memory_raises_system_too_large(self, small_memory):
        # 1600 rows of 64 entries: more than small_memory lets np.empty make
        net = _grid(40)
        assert 1600 * _JUMP_ROW_BYTES / 2**20 == 3.90625
        with pytest.raises(SystemTooLarge, match=r"^the walk table needs 3\.9 MiB of jump rows"):
            net.walk


class TestVectorizedPick:
    def test_matches_scalar_bisect(self):
        # each row's every cut and the uniform one below it, where a pick
        # changes; degrees up to 70, equal running sums, a subnormal total,
        # and u = 1, which lands on a row's total, past the bisect's bound
        star = build_network([("hub", f"l{i}", 0.5 + i % 7) for i in range(40)])
        trap = build_network([*_extreme_wheel().edges, *_TRAP])
        rng = np.random.default_rng(4)
        for net in [star, trap, *network_suite(9, 6)]:
            rows, u = [], []
            for v, row in enumerate(net.walk[0]):
                cuts = row[BUCKETS][0]
                draws = [0.0, 1.0 - ULP, 1.0, *rng.random(20).tolist()]
                draws += [x for t in cuts for x in (t, t - ULP) if x >= 0.0]
                rows += [v] * len(draws)
                u += draws
            want = [_running_sum_pick(net, v, x) for v, x in zip(rows, u)]
            table = _table(net)
            assert _pick(_lockstep_tables(table), np.array(rows), np.array(u)).tolist() == want
            assert [next(_path(table, v, (x,))) for v, x in zip(rows, u)] == want
            # the 64-bit outputs whose top 53 bits are u (below 1), low bits random
            low = rng.integers(0, 2**11, len(u), dtype=np.uint64)
            k = np.array([min(x, 1.0 - ULP) * 2.0**53 for x in u]).astype(np.uint64)
            raw = k << np.uint64(11) | low
            assert _double(raw).tolist() == [min(x, 1.0 - ULP) for x in u]
            want = [_running_sum_pick(net, v, x) for v, x in zip(rows, _double(raw).tolist())]
            assert _advance(_lockstep_tables(table), np.array(rows), raw).tolist() == want


# Pendant conductances from subnormal to huge.
_PENDANT_C = (5e-324, 1e-300, 1e-7, 0.05, 0.5, 1.0, 1.7, 3e5, 1e300)


def _parallel_networks():
    """Seeded random networks whose every edge is listed one to three times,
    in either direction and shuffled, with conductances log-uniform over
    1e-300 .. 1e300 and one of them subnormal."""
    nets = []
    for seed in range(4):
        rng = np.random.default_rng(2600 + seed)
        edges = []
        for u, v, _ in random_connected_network(rng, n_lo=4, n_hi=16).edges:
            for _ in range(int(rng.integers(1, 4))):
                c = float(10.0 ** rng.uniform(-300.0, 300.0))
                edges.append((u, v, c) if rng.random() < 0.5 else (v, u, c))
        u, v, _ = edges[0]
        edges[0] = (u, v, 5e-324)
        nets.append(build_network([edges[i] for i in rng.permutation(len(edges))]))
    return nets


def _table_bits(table, goals=()):
    """bits of a walk table's rows with its splice laid over them and
    arrivals at the goals marked (_marked), and of its arrays."""
    return bits((_marked(table, goals), table[2]()))


class TestPendantTable:
    """The walk table of G~ that _pendant_table splices from net's is the
    table of G~ built by build_network from net's edges and the pendant
    edge (tests/oracles.py pendant_network), and estimates on it are those
    on the built one, bit for bit."""

    @pytest.mark.parametrize("c", _PENDANT_C)
    def test_spliced_table_is_the_built_table(self, c):
        for net in [*_parallel_networks(), _extreme_wheel()]:  # the wheel's hub has degree 70
            base = _table_bits(_table(net))
            for z in net.vertices:
                built, _ = pendant_network(net, z, c)
                assert _table_bits(_pendant_table(net, net.index[z], c)) == _table_bits(
                    _table(built)), (z, c)
            assert _table_bits(_table(net)) == base  # the base's own table is left as it was

    def test_splice_replaces_rows_z_and_n_and_copies_none(self):
        for net in _parallel_networks():
            for iz in range(net.n):
                rows, splice, _ = _pendant_table(net, iz, 0.3)
                assert rows is net.walk[0]
                assert list(splice) == [iz, net.n]
                spliced = _marked((rows, splice, None), ())
                assert len(spliced) == net.n + 1
                assert all(a is b for v, (a, b) in enumerate(zip(spliced, rows)) if v != iz)
                assert spliced[iz] is splice[iz] and spliced[net.n] is splice[net.n]

    @pytest.mark.parametrize("c", (5e-324, 1e-300, 1.7, 1e300))
    def test_marked_rows_are_those_of_the_built_table(self, c):
        # the rows the scalar loop of estimate_excursions reads: arrivals at
        # the pendant, row n, and at the anchor marked
        for net in _parallel_networks():
            for z in net.vertices:
                iz = net.index[z]
                built = build_network([*net.edges, (z, f"~{z}", c)])
                assert built.n == net.n + 1
                assert _table_bits(_pendant_table(net, iz, c), (net.n, iz)) == _table_bits(
                    _table(built), (net.n, iz)), (z, c)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 79), _conductances()), min_size=1, max_size=100),
           st.data())
    def test_spliced_table_of_any_star_with_parallel_spokes(self, spokes, data):
        net = build_network([("hub", leaf, c) for leaf, c in spokes])
        z = data.draw(st.sampled_from(net.vertices))
        c = data.draw(_conductances())
        built, _ = pendant_network(net, z, c)
        assert _table_bits(_pendant_table(net, net.index[z], c)) == _table_bits(_table(built))

    @pytest.mark.parametrize("trials", (_SCALAR_TAIL - 1, _SCALAR_TAIL, _SCALAR_TAIL + 1,
                                        2 * _CHUNK + 5))
    def test_estimates_are_those_on_the_built_table(self, monkeypatch, trials):
        # short walks: pendants of a quarter of C_z and more, so a few
        # excursions a trial
        seed = 2**64 - 1
        net = random_connected_network(np.random.default_rng(26), n_lo=6, n_hi=10)
        net = build_network([*net.edges, *net.edges[::2]])  # half the edges doubled
        cases = [(net, z, scale * float(net.row_conductance[net.index[z]]))
                 for z in net.vertices[:2] for scale in (0.25, 1.7, 3e5)]
        wheel = _extreme_wheel()
        cases.append((wheel, "h", float(wheel.row_conductance[wheel.index["h"]])))
        for net, z, c in cases:
            spliced = estimate_excursions(net, z, trials, seed, c=c)
            built, _ = pendant_network(net, z, c)
            with monkeypatch.context() as patch:
                patch.setattr(simulate, "_pendant_table", lambda *args: _table(built))
                assert asdict(spliced) == asdict(estimate_excursions(net, z, trials, seed, c=c))

    @pytest.mark.parametrize("trials", (1, _SCALAR_TAIL, _SCALAR_TAIL + 1, 300))
    def test_arrays_are_spliced_only_for_a_lockstep_round(self, monkeypatch, trials):
        # an estimate of at most _SCALAR_TAIL trials walks only in the scalar
        # loop, which reads the rows alone
        seed, cap = 5, 10**6
        net = _grid(4, np.random.default_rng(28))
        z = net.vertices[5]
        c = 2.0 * float(net.row_conductance[5])  # two thirds of the trials end at once
        table, spliced = simulate._pendant_table, []

        def counted(*args):
            rows, splice, arrays = table(*args)
            return rows, splice, lambda: spliced.append(args) or arrays()

        monkeypatch.setattr(simulate, "_pendant_table", counted)
        got = _fields(estimate_excursions(net, z, trials, seed, c=c))
        assert len(spliced) == (trials > _SCALAR_TAIL)
        assert got == excursions_mc_oracle(net, z, c, trials, seed, cap)

    def test_cap_exceeded_alike(self, k4):
        # a pendant of 1e-7 is next to never reached within 50 steps
        for net, z in ((k4, "a"), (_extreme_wheel(), "h")):
            built, pendant = pendant_network(net, z, 1e-7)
            with pytest.raises(CapExceeded) as spliced:
                estimate_excursions(net, z, 100, 0, 50, 1e-7)
            with pytest.raises(CapExceeded) as walked:
                estimate_hitting_time(built, z, pendant, 100, 0, 50)
            assert (str(spliced.value) == str(walked.value)
                    == f"walk from {z!r} exceeded the step cap of 50")


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
            assert _fields(estimate_return_time(net, z, trials, seed)) == \
                return_time_mc_oracle(net, z, trials, seed, cap)
            assert _fields(estimate_hitting_time(net, z, y, trials, seed)) == \
                hitting_time_mc_oracle(net, z, y, trials, seed, cap)
            assert _fields(estimate_excursions(net, y, trials, seed, c=0.7)) == \
                excursions_mc_oracle(net, y, 0.7, trials, seed, cap)

    @pytest.mark.parametrize("trials", (_SCALAR_TAIL - 1, _SCALAR_TAIL, _SCALAR_TAIL + 1, 300))
    def test_wide_hub_and_extreme_conductances(self, trials):
        # the hub's row takes every lock-step stride up to 64; the walk from
        # h to g ends only through f, whose unit edges it never takes back
        seed, cap = 3, 10**6
        wheel = _extreme_wheel()
        trap = build_network([*wheel.edges, *_TRAP])
        ch = float(wheel.row_conductance[wheel.index["h"]])
        assert _fields(estimate_return_time(wheel, "h", trials, seed)) == \
            return_time_mc_oracle(wheel, "h", trials, seed, cap)
        assert _fields(estimate_hitting_time(wheel, "s", "h", trials, seed)) == \
            hitting_time_mc_oracle(wheel, "s", "h", trials, seed, cap)
        assert _fields(estimate_hitting_time(trap, "h", "g", trials, seed)) == \
            hitting_time_mc_oracle(trap, "h", "g", trials, seed, cap)
        assert _fields(estimate_excursions(wheel, "h", trials, seed, c=ch)) == \
            excursions_mc_oracle(wheel, "h", ch, trials, seed, cap)

    def test_several_chunks(self, k4):
        trials, seed, cap = 2 * _CHUNK + 5, 2**64 - 1, 10**6
        assert _fields(estimate_return_time(k4, "a", trials, seed)) == \
            return_time_mc_oracle(k4, "a", trials, seed, cap)
        assert _fields(estimate_hitting_time(k4, "a", "d", trials, seed)) == \
            hitting_time_mc_oracle(k4, "a", "d", trials, seed, cap)
        assert _fields(estimate_excursions(k4, "b", trials, seed, c=2.0)) == \
            excursions_mc_oracle(k4, "b", 2.0, trials, seed, cap)

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
        combined, pendant = pendant_network(ring, 3, 0.5)
        cases = [
            (lambda cap: estimate_return_time(ring, 0, trials, seed, cap), (0, 0, None)),
            (lambda cap: estimate_hitting_time(ring, 0, 4, trials, seed, cap), (0, 4, None)),
            (lambda cap: estimate_excursions(ring, 3, trials, seed, cap, 0.5), (3, pendant, 3)),
        ]
        for run, (start, target, anchor) in cases:
            net = combined if anchor is not None else ring
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
        advance, finish = simulate._advance, simulate._finish

        def advance_spy(tables, v, raw):
            nonlocal rounds
            rounds += 1
            return advance(tables, v, raw)

        def finish_spy(rows, v, target, anchor, m, count, cap, bits, overrun):
            nonlocal tail
            tail += 1
            return finish(rows, v, target, anchor, m, count, cap, bits, overrun)

        monkeypatch.setattr(simulate, "_advance", advance_spy)
        monkeypatch.setattr(simulate, "_finish", finish_spy)
        if estimator == "return":
            est = estimate_return_time(k4, "a", trials=100_000, seed=1)
        else:
            est = estimate_excursions(k4, "a", trials=50_000, seed=1)
        # full lanes take steps_total / _CHUNK rounds; draining them, at most steps_max
        assert rounds <= est.steps_total / _CHUNK + est.steps_max
        assert tail <= _SCALAR_TAIL


class TestGuidedWalks:
    """Walks through the jump rows: steps whose bucket holds a cut fall back
    on the bisect, and the scalar loop's arrivals at the target and the
    anchor are marked in a copy of the rows, never in the network's."""

    @pytest.mark.parametrize("trials", (_SCALAR_TAIL - 1, _SCALAR_TAIL + 1, 300))
    def test_ambiguous_buckets_and_marked_rows_match_the_oracles(self, k4, monkeypatch,
                                                                   trials):
        # K4's cuts at 1/3 and 2/3 lie inside buckets 21 and 42 of every row,
        # and every row neighbours the target and the anchor
        seed, cap = 5, 10**6
        assert all(row[:BUCKETS].count(-1) == 2 for row in k4.walk[0])
        bisected = 0
        pick, double = simulate._pick, simulate._double

        def pick_spy(tables, v, u):
            nonlocal bisected
            bisected += len(v)
            return pick(tables, v, u)

        def double_spy(raw):  # the scalar loop draws a block's uniforms for a cut
            nonlocal bisected
            bisected += 1
            return double(raw)

        monkeypatch.setattr(simulate, "_pick", pick_spy)
        monkeypatch.setattr(simulate, "_double", double_spy)
        assert _fields(estimate_hitting_time(k4, "a", "d", trials, seed)) == \
            hitting_time_mc_oracle(k4, "a", "d", trials, seed, cap)
        assert _fields(estimate_excursions(k4, "b", trials, seed, c=0.4)) == \
            excursions_mc_oracle(k4, "b", 0.4, trials, seed, cap)
        assert _fields(estimate_return_time(k4, "c", trials, seed)) == \
            return_time_mc_oracle(k4, "c", trials, seed, cap)
        assert bisected > 0

    def test_estimates_leave_the_cached_table_as_built(self):
        # the targets' and anchors' neighbours' rows are marked per estimate
        net = random_connected_network(np.random.default_rng(27), n_lo=8, n_hi=12)
        fresh = bits(build_network(net.edges).walk)
        a, b, c = net.vertices[:3]
        for trials in (_SCALAR_TAIL - 1, 300):
            estimate_hitting_time(net, a, b, trials, 1)
            estimate_hitting_time(net, b, c, trials, 1)
            estimate_return_time(net, a, trials, 1)
            estimate_excursions(net, c, trials, 1, c=0.5)
            assert bits(net.walk) == fresh


class TestScalarTail:
    """Estimates with fewer trials than _SCALAR_TAIL, walked wholly in the scalar loop,
    whose uniforms come in blocks of 16, 32, ... 4096 (step 16, 48, 112, ... ends one)."""

    TRIALS = _SCALAR_TAIL - 1

    def test_long_walks_cross_block_sizes(self):
        line = build_network([(i, i + 1, 1.0) for i in range(29)])
        seed, cap = 2**64 - 1, 10**7
        hit = estimate_hitting_time(line, 0, 29, self.TRIALS, seed)
        assert _fields(hit) == hitting_time_mc_oracle(line, 0, 29, self.TRIALS, seed, cap)
        exc = estimate_excursions(line, 15, self.TRIALS, seed, c=0.05)
        assert _fields(exc) == excursions_mc_oracle(line, 15, 0.05, self.TRIALS, seed, cap)
        # the longest trials run into the 2048 block and the second 4096 block
        assert hit.steps_max > 16 + 32 + 64 + 128 + 256 + 512 + 1024
        assert exc.steps_max > 16 + 32 + 64 + 128 + 256 + 512 + 1024 + 2048 + 4096

    @pytest.mark.parametrize("cap", (15, 16, 17, 47, 48, 49, 111, 112, 113))
    def test_cap_at_block_boundaries(self, cap):
        # the longest trials take 70, 112 and 71 steps: the hitting walk
        # arrives on the last uniform of the third block
        ring = build_network([(i, (i + 1) % 12, 1.0) for i in range(12)])
        seed, n = 1, self.TRIALS
        cases = [
            (lambda: estimate_return_time(ring, 0, n, seed, cap),
             return_time_mc_oracle(ring, 0, n, seed, 10**6)),
            (lambda: estimate_hitting_time(ring, 0, 6, n, seed, cap),
             hitting_time_mc_oracle(ring, 0, 6, n, seed, 10**6)),
            (lambda: estimate_excursions(ring, 6, n, seed, cap, 4.0),
             excursions_mc_oracle(ring, 6, 4.0, n, seed, 10**6)),
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
    for rep in range(reps):
        if estimator == "return":
            est = estimate_return_time(triangle, "a", trials=1_500, seed=rep)
        elif estimator == "hitting":
            est = estimate_hitting_time(unit_path, "a", "c", trials=1_500, seed=rep)
        else:
            est = estimate_excursions(triangle, "a", trials=1_500, seed=rep)
        if abs(est.mean - exact) <= 4.0 * est.std_error:
            hits += 1
    assert hits >= 95
