"""The ohmwalk benchmark: cold CLI workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. Each workload is a fixed list of
`python -m ohmwalk.cli ...` invocations run one after another, each a fresh
process with PYTHONPATH=src, so every tree measures its own code. Inputs are
generated from the seed under .bench_build/perfbench/.

--trace 0 measures, with tracing off, whole workload runs for about S
seconds (at least two) and prints the end-to-end metrics. --trace 1 runs
the workload once untraced and once through tracer.py and prints the
per-layer metrics, plus the workload-specific end-to-end metrics of the
untraced run. Every output is checked in both modes. Human-readable lines
(the run record, each metric with its unit and sample count) come first;
the last line is one JSON object with the keys correct, attempted, failed
and metrics.

On a shared host the speed of a CPU drifts by tens of percent within
seconds, by up to twice within minutes, and differently on each CPU. So
the benchmark pins itself and every process it starts to one CPU (BLAS
then runs one thread), times a fixed pure-Python loop on that CPU before
and after every process, and reports each process's wall time scaled to a
host on which that loop takes CAL_REFERENCE_S, by the mean loop time within
CAL_WINDOW_S of the process (see scale). Only the host's speed cancels: a change to ohmwalk moves scaled times as much as raw ones.
Raw medians are printed beside the scaled ones.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy
import scipy

import checks
import workloads
from tracer import self_times

HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 170.0  # every run must end within 180 s
SETUP_RUNS = 5
CAL_LOOPS = 1_000_000
CAL_REFERENCE_S = 0.2  # about the loop's median time on a 2.1 GHz Xeon VM
# Wider than one loop, whose own time is noisy; narrower than the minutes
# over which the host's speed drifts. In trials on that VM, 5 s gave
# steadier scaled times than 2 s or 10 s.
CAL_WINDOW_S = 5.0
SETUP_CODE = ("import sys, ohmwalk.cli as cli\n"
              "with open(sys.argv[1], encoding='utf-8') as fh:\n"
              "    cli.parse_network_file(fh.read())\n")
SOLVES = ("exact.hitting_time", "exact.effective_resistance")  # one grounded solve each
ESTIMATORS = ("simulate.estimate_return_time", "simulate.estimate_hitting_time",
              "simulate.estimate_excursions")


def calibrate() -> float:
    """Seconds this CPU takes for a fixed pure-Python loop, now."""
    start = time.perf_counter()
    table, x = {}, 0
    for i in range(CAL_LOOPS):
        x = (x * 31 + i) % 1000003
        table[x & 1023] = i
    return time.perf_counter() - start


def scale(wall_s: float, loop_times: list[float]) -> float:
    """wall_s as on a host whose calibration loop takes CAL_REFERENCE_S."""
    return wall_s * CAL_REFERENCE_S / statistics.mean(loop_times)


def pin_to_one_cpu() -> int:
    """Run this process, and every process it starts, on one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


@dataclass
class Result:
    """One finished process."""

    start: float  # time.perf_counter() when it was started
    wall_s: float
    code: int | None  # None when it was killed at the deadline
    rss_mb: float
    stdout: str
    stderr: str


class Runner:
    """Spawns children one at a time and keeps every run inside RUN_LIMIT_S."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS="1")
        self.cals: list[tuple[float, float]] = []  # (midpoint, seconds) of each loop timed

    def calibrate(self) -> None:
        start = time.perf_counter()
        seconds = calibrate()
        self.cals.append((start + seconds / 2, seconds))

    def scaled_wall(self, results: list[Result]) -> float:
        """Summed wall time of results, each scaled by the loops timed near it."""
        total = 0.0
        for r in results:
            low, high = r.start - CAL_WINDOW_S, r.start + r.wall_s + CAL_WINDOW_S
            total += scale(r.wall_s, [s for t, s in self.cals if low <= t <= high])
        return total

    def spawn(self, cmd: list[str], tag: str) -> Result:
        out, err = self.workdir / f"{tag}.out", self.workdir / f"{tag}.err"
        if not self.cals:
            self.calibrate()
        with open(out, "wb") as fo, open(err, "wb") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=self.env)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            timer.cancel()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        self.calibrate()
        return Result(
            start=start,
            wall_s=wall,
            code=None if code < 0 else code,
            rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out.read_text(encoding="utf-8", errors="replace"),
            stderr=err.read_text(encoding="utf-8", errors="replace"),
        )

    def workload_run(self, wl: workloads.Workload, tag: str, traced: bool) -> list[Result]:
        """Run every invocation once, one after another."""
        results = []
        for i, inv in enumerate(wl.invocations):
            if traced:
                spans = self.workdir / f"{tag}-{i}.spans.json"
                spans.unlink(missing_ok=True)  # never read a previous run's spans
                cmd = [sys.executable, str(HERE / "tracer.py"), str(spans), "--", *inv.argv]
            else:
                cmd = [sys.executable, "-m", "ohmwalk.cli", *inv.argv]
            results.append(self.spawn(cmd, f"{tag}-{i}"))
        return results


def evaluate(wl, checker, runs, tally, errors):
    """Check every result of every run; the first run is the byte reference."""
    first = runs[0]
    outcomes = []
    for results in runs:
        for i, (inv, res, ref) in enumerate(zip(wl.invocations, results, first)):
            if (res.code, res.stdout) != (ref.code, ref.stdout):
                errors.append(f"{' '.join(inv.argv)}: output differs between runs")
            outcome = checker.check(i, inv, res.code, res.stdout, res.stderr)
            tally.add(outcome)
            outcomes.append(outcome)
    return outcomes


def per_run(outcomes, n_runs: int) -> dict:
    """Work counts of one workload run, averaged over n_runs identical runs."""
    return {key: sum(getattr(o, key) for o in outcomes) // n_runs
            for key in ("trials", "walk_steps", "anchors", "steps_checked", "steps_failed")}


def scoped_metrics(outcomes, n_runs: int, wall_s: float, tally) -> dict:
    """The end-to-end metrics that exist only on some workloads."""
    work = per_run(outcomes, n_runs)
    errs = [o.max_rel_err for o in outcomes if o.max_rel_err is not None]
    return {
        "fail_ratio": (tally.fail_ratio, "ratio",
                       f"{tally.op_failed + tally.verdict_failed} of {tally.attempted} invocations"),
        "trials_per_s": (work["trials"] / wall_s, "1/s", f"{work['trials']} trials per run"),
        "steps_per_s": (work["walk_steps"] / wall_s, "1/s", f"{work['walk_steps']} steps per run"),
        "anchors_per_s": (work["anchors"] / wall_s, "1/s", f"{work['anchors']} anchors per run"),
        "max_rel_err": (max(errs) if errs else 0.0, "ratio",
                        f"max over {len(errs)} checked outputs"),
    }


def layer_metrics(records: list[dict], outcomes, traced_wall: float, wall: float) -> dict:
    """Per-layer metrics from the spans of one traced workload run.

    A name ending in _self_s is self time; any other _s name is the whole
    span, children included. cli.scipy_loaded is the share of invocations
    that had scipy in sys.modules right after `import ohmwalk.cli`.
    """
    calls, total, own = Counter(), defaultdict(float), defaultdict(float)
    solves = 0
    for rec in records:
        spans, buckets = rec["spans"], rec["buckets"]
        for (name, start, end, parent), s in zip(spans, self_times(spans, buckets)):
            calls[name] += 1
            total[name] += end - start
            own[name] += s
            if name in SOLVES:
                while parent is not None and spans[parent][0] != "replay.replay":
                    parent = spans[parent][3]
                solves += parent is not None
        for name, _, n, t in buckets:
            calls[name] += n
            total[name] += t
            own[name] += t
    replay_calls = calls["replay.replay"]
    work = per_run(outcomes, 1)
    estimators = sum(total[e] for e in ESTIMATORS)
    counted_kernel = own["simulate.estimate_return_time"] + own["simulate.estimate_hitting_time"]
    exact_self = sum(s for name, s in own.items() if name.startswith("exact."))
    m = {
        "cli.import_s": (total["cli.import"], "s"),
        "cli.scipy_loaded": (sum(r["scipy_loaded"] for r in records) / max(1, len(records)),
                             "ratio"),
        "cli.parse_s": (total["cli.parse_network_file"], "s"),
        "cli.run_self_s": (own["cli.run"], "s"),
        "network.build_network_s": (total["network.build_network"], "s"),
        "network.build_network_calls": (calls["network.build_network"], "count"),
        "network.attach_pendant_s": (total["network.attach_pendant"], "s"),
        "network.attach_pendant_calls": (calls["network.attach_pendant"], "count"),
        "exact.build_laplacian_s": (total["exact.build_laplacian"], "s"),
        "exact.build_laplacian_calls": (calls["exact.build_laplacian"], "count"),
    }
    for fn in ("hitting_time", "effective_resistance", "return_time", "commute_time"):
        m[f"exact.{fn}_self_s"] = (own[f"exact.{fn}"], "s")
        m[f"exact.{fn}_calls"] = (calls[f"exact.{fn}"], "count")
    m.update({
        "exact.self_share": (exact_self / traced_wall, "ratio"),
        "exact.solves_per_anchor": (solves / replay_calls if replay_calls else 0.0, "count"),
        "simulate.trial_generator_s": (total["simulate.trial_generator"], "s"),
        "simulate.trial_generator_calls": (calls["simulate.trial_generator"], "count"),
        "simulate.seed_share": (total["simulate.trial_generator"] / estimators
                                if estimators else 0.0, "ratio"),
        "simulate.kernel_self_s": (sum(own[e] for e in ESTIMATORS), "s"),
        "simulate.walk_steps": (work["walk_steps"], "count"),
        "simulate.ns_per_step": (1e9 * counted_kernel / work["walk_steps"]
                                 if work["walk_steps"] else 0.0, "ns"),
        "replay.replay_self_s": (own["replay.replay"], "s"),
        "replay.replay_calls": (replay_calls, "count"),
        "replay.steps_checked": (work["steps_checked"], "count"),
        "replay.steps_failed": (work["steps_failed"], "count"),
        "trace.overhead_frac": (traced_wall / wall - 1.0, "ratio"),
    })
    return m


def run_record() -> dict:
    """Machine facts for every result."""
    record = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
              "python": platform.python_version(), "numpy": numpy.__version__,
              "scipy": scipy.__version__}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            record["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                  if line.startswith("model name")), "unknown")
    except OSError:
        record["cpu"] = "unknown"
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level, kind, size = (Path(index, f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    record["caches"] = caches
    record["blas_threads"] = _blas_threads()
    return record


def _blas_threads() -> dict:
    """Thread counts of the OpenBLAS libraries numpy and scipy loaded here."""
    threads = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return threads
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(lib).name] = fn()
                break
    return threads


def emit(correct: bool, tally, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.op_failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not Path("src/ohmwalk/cli.py").is_file():
        print("run.py: no src/ohmwalk here; run it from the root of an ohmwalk tree",
              file=sys.stderr)
        return 2
    record = run_record()  # before pinning, so it shows the host's defaults
    cpu = pin_to_one_cpu()
    workdir = Path(".bench_build", "perfbench", args.workload)
    wl = workloads.build(args.workload, args.seed, workdir)
    recorded = json.loads((HERE / "reference.json").read_text()).get(args.workload)
    checker = checks.Checker(wl.invocations, recorded)
    runner = Runner(workdir)
    tally = checks.Tally()
    errors: list[str] = []

    print(f"workload {wl.name}: {wl.why}")
    record.update(pinned_cpu=cpu, child_blas_threads=int(runner.env["OPENBLAS_NUM_THREADS"]),
                  calibration_reference_s=CAL_REFERENCE_S)
    print(f"run record: {json.dumps(record)}")

    if args.trace:
        plain = runner.workload_run(wl, "plain", traced=False)
        traced = runner.workload_run(wl, "traced", traced=True)
        wall, traced_wall = runner.scaled_wall(plain), runner.scaled_wall(traced)
        outcomes = evaluate(wl, checker, [plain, traced], tally, errors)
        records = []
        for i in range(len(wl.invocations)):
            spans = workdir / f"traced-{i}.spans.json"
            if spans.is_file():
                records.append(json.loads(spans.read_text()))
        if len(records) != len(wl.invocations):
            errors.append("a traced invocation wrote no spans")
        metrics = {name: (value, unit, "one traced run") for name, (value, unit)
                   in layer_metrics(records, outcomes[len(plain):], traced_wall, wall).items()}
        # Traced output must equal untraced output, so both runs count alike.
        metrics.update(scoped_metrics(outcomes, 2, wall, tally))
    else:
        setup = []
        for k in range(SETUP_RUNS):
            res = runner.spawn([sys.executable, "-c", SETUP_CODE, wl.setup_graph.path],
                               f"setup-{k}")
            if res.code != 0:
                print(f"run.py: set-up process failed:\n{res.stderr}", file=sys.stderr)
                return 1
            setup.append(res)
        runs = []
        start = time.perf_counter()
        while True:
            runs.append(runner.workload_run(wl, f"run{len(runs)}", traced=False))
            elapsed = time.perf_counter() - start
            # At least two runs, then only those expected to end in time.
            if len(runs) >= 2 and elapsed + elapsed / len(runs) > args.seconds:
                break
        outcomes = evaluate(wl, checker, runs, tally, errors)
        rss = [r.rss_mb for results in runs for r in results]
        walls = [runner.scaled_wall(results) for results in runs]
        raw_wall = statistics.median(sum(r.wall_s for r in results) for results in runs)
        metrics = {
            "wall_s": (statistics.median(walls), "s", f"median of {len(walls)} workload runs "
                       f"({', '.join(f'{w:.3f}' for w in walls)}); raw {raw_wall:.3f}"),
            "setup_s": (statistics.median(runner.scaled_wall([r]) for r in setup), "s",
                        f"median of {len(setup)} set-up processes; raw "
                        f"{statistics.median(r.wall_s for r in setup):.3f}"),
            "peak_rss_mb": (max(rss), "MB", f"max of {len(rss)} invocations"),
        }
        # Printed with the others but left out of the result line: each is
        # zero or undefined on some workload.
        for name, (value, unit, base) in scoped_metrics(
                outcomes, len(runs), metrics["wall_s"][0], tally).items():
            print(f"{name:34s} {value:>14.6g} {unit:6s} {base}")

    for name, (value, unit, base) in metrics.items():
        print(f"{name:34s} {value:>14.6g} {unit:6s} {base}")
    errors.extend(tally.errors)
    for line in errors:
        print(f"check failed: {line}")
    emit(not errors, tally, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
