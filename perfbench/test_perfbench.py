"""Tests of the benchmark's own arithmetic and of the tracer's transparency.

    PYTHONPATH=src python3 -m pytest perfbench
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from checks import Outcome, Tally, walk_steps
from run import CAL_REFERENCE_S, scale
from tracer import Tracer, self_times

ROOT = Path(__file__).resolve().parents[1]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 2.0

    def per_trial():
        clock.now += 0.5

    def middle():
        clock.now += 1.0
        leaf_w()
        per_trial_w()
        per_trial_w()
        clock.now += 3.0

    def outer():
        clock.now += 10.0
        middle_w()
        leaf_w()

    leaf_w = tracer.wrap("exact.leaf", leaf)
    per_trial_w = tracer.wrap("simulate.trial_generator", per_trial)
    middle_w = tracer.wrap("replay.middle", middle)
    tracer.wrap("cli.outer", outer)()

    record = tracer.to_json()
    names = [s[0] for s in record["spans"]]
    assert names == ["cli.outer", "replay.middle", "exact.leaf", "exact.leaf"]
    assert record["buckets"] == [["simulate.trial_generator", 1, 2, 1.0]]
    own = dict(zip(range(4), self_times(record["spans"], record["buckets"])))
    assert own == {0: 10.0, 1: 4.0, 2: 2.0, 3: 2.0}
    assert sum(own.values()) + 1.0 == record["spans"][0][2] - record["spans"][0][1]


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.now += 1.0
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("exact.boom", boom)()
    assert tracer.spans == [["exact.boom", 0.0, 1.0, None]]
    assert tracer._open == []


@pytest.mark.parametrize("mean, trials, steps", [
    (4.00285, 100_000, 400_285),
    (39236.5, 40, 1_569_460),
    (10 / 3, 3, 10),  # 3.3333333333333335 * 3 is 10.000000000000002
    (0.0, 5, 0),
])
def test_walk_steps_from_mean_times_trials(mean, trials, steps):
    assert walk_steps(mean, trials) == steps


def test_fail_ratio_base_is_every_invocation_attempted():
    tally = Tally()
    for outcome in (Outcome(), Outcome(verdict_failed=True), Outcome(op_failed=True),
                    Outcome(op_failed=True, verdict_failed=True), Outcome()):
        tally.add(outcome)
    assert (tally.attempted, tally.op_failed, tally.verdict_failed) == (5, 2, 1)
    assert tally.fail_ratio == 3 / 5


def test_scale_divides_by_the_mean_loop_time():
    assert scale(3.0, [CAL_REFERENCE_S]) == pytest.approx(3.0)
    # A host twice as slow as the reference around the process halves its time.
    assert scale(3.0, [1.5 * CAL_REFERENCE_S, 2.5 * CAL_REFERENCE_S]) == pytest.approx(1.5)


def _run(cmd, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, timeout=120)


@pytest.mark.parametrize("edges, args", [
    ("a b 1\nb c 2\na c 1\n", ["verify", "g.edges", "--simulate", "--trials", "200"]),
    ("a b 1\nb c 1e12\nc d 1\nd a 1e-12\na c 1\n", ["verify", "g.edges"]),
    ("a b 1\nb c 2\n", ["simulate", "excursions", "g.edges", "b", "--trials", "300"]),
    ("a b 1\nb c 2\n", ["commute", "g.edges", "a", "c"]),
    ("a b 1\nb c 2\n", ["resistance", "g.edges", "a", "zz"]),
])
def test_tracer_leaves_stdout_byte_identical(tmp_path, edges, args):
    (tmp_path / "g.edges").write_text(edges)
    plain = _run([sys.executable, "-m", "ohmwalk.cli", *args], tmp_path)
    traced = _run([sys.executable, str(ROOT / "perfbench" / "tracer.py"),
                   str(tmp_path / "spans.json"), "--", *args], tmp_path)
    assert traced.stdout == plain.stdout
    assert traced.returncode == plain.returncode
    assert (tmp_path / "spans.json").is_file()
