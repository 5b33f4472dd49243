"""Output checks, references and failure accounting.

References come by routes the program does not take: closed forms from
conductance sums computed here, and scipy.sparse grounded solves where no
closed form exists. Checks run after the timed region.

An invocation *fails as an operation* when it times out, exits with a code
its subcommand does not document, prints a traceback, prints output that is
not JSON, or prints nan or inf. A `verify` that exits 1 with a consistent
trace has answered: the identities were not confirmed at the tolerance. It
counts toward ``fail_ratio`` but not as an operation failure. Output that
claims success (exit 0) must match every reference at TOLERANCE; a wrong
answer presented as right is a check error.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu

from workloads import Graph, Invocation

TOLERANCE = 1e-9
BAND = 4.0  # standard errors


def rel_err(a: float, b: float) -> float:
    """|a - b| / max(1, |a|, |b|), the measure the replay steps report."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


def walk_steps(mean: float, trials: int) -> int:
    """Steps behind a return or hitting estimate: its mean times its trials."""
    return round(mean * trials)


@dataclass
class Outcome:
    """What one invocation's output shows."""

    op_failed: bool = False
    verdict_failed: bool = False
    errors: list[str] = field(default_factory=list)
    trials: int = 0
    walk_steps: int = 0
    anchors: int = 0
    steps_checked: int = 0
    steps_failed: int = 0
    max_rel_err: float | None = None

    def residual(self, expected: float, computed: float) -> float:
        """Relative error of one checked identity, kept for max_rel_err."""
        r = rel_err(expected, computed)
        self.max_rel_err = r if self.max_rel_err is None else max(self.max_rel_err, r)
        return r


@dataclass
class Tally:
    """Totals over the invocations of a run, with fail_ratio's base."""

    attempted: int = 0
    op_failed: int = 0
    verdict_failed: int = 0
    errors: list[str] = field(default_factory=list)

    def add(self, outcome: Outcome) -> None:
        self.attempted += 1
        self.op_failed += outcome.op_failed
        self.verdict_failed += outcome.verdict_failed and not outcome.op_failed
        self.errors.extend(outcome.errors)

    @property
    def fail_ratio(self) -> float:
        """Invocations that failed or whose verify did not pass, over those attempted."""
        return (self.op_failed + self.verdict_failed) / self.attempted


class Reference:
    """The benchmark's own view of an input: conductance sums and sparse solves."""

    def __init__(self, graph: Graph):
        self.index = {}
        for u, v, _ in graph.edges:
            self.index.setdefault(u, len(self.index))
            self.index.setdefault(v, len(self.index))
        n = len(self.index)
        sums = [[] for _ in range(n)]
        rows, cols, vals = [], [], []
        for u, v, c in graph.edges:
            iu, iv = self.index[u], self.index[v]
            sums[iu].append(c)
            sums[iv].append(c)
            rows += [iu, iv, iu, iv]
            cols += [iv, iu, iu, iv]
            vals += [-c, -c, c, c]
        self.cond = np.array([math.fsum(s) for s in sums])
        self.total = math.fsum(self.cond)
        self.laplacian = coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()
        self._factors = {}

    def _solve(self, ground: str, rhs: np.ndarray) -> np.ndarray:
        g = self.index[ground]
        keep = np.arange(len(self.index)) != g
        if g not in self._factors:
            self._factors[g] = splu(self.laplacian[keep][:, keep].tocsc())
        x = np.zeros(len(self.index))
        x[keep] = self._factors[g].solve(rhs[keep])
        return x

    def conductance(self, v: str) -> float:
        return float(self.cond[self.index[v]])

    def resistance(self, x: str, y: str) -> float:
        rhs = np.zeros(len(self.index))
        rhs[self.index[x]] = 1.0
        return float(self._solve(y, rhs)[self.index[x]])

    def hitting(self, x: str, y: str) -> float:
        return float(self._solve(y, self.cond)[self.index[x]])


def _finite_json(text: str):
    def reject(token):
        raise ValueError(f"non-finite number {token}")
    return json.loads(text, parse_constant=reject)


def fingerprint(doc: dict):
    """The stream-determined part of a Monte Carlo output, free of labels."""
    if "traces" in doc:
        return [[{k: s["estimate"][k] for k in ("mean", "std_error")}
                 for s in t["steps"] if "estimate" in s] for t in doc["traces"]]
    return {k: doc[k] for k in ("mean", "std_error", "counts") if k in doc}


class Checker:
    """Checks every invocation of one workload against its references."""

    def __init__(self, invocations: tuple[Invocation, ...], recorded: list | None):
        self.nets = {}
        for inv in invocations:
            if inv.graph.path not in self.nets:
                self.nets[inv.graph.path] = Reference(inv.graph)
        self.recorded = recorded or [None] * len(invocations)

    def check(self, i: int, inv: Invocation, code: int | None, stdout: str,
              stderr: str) -> Outcome:
        out = Outcome()
        allowed = (0, 1) if inv.argv[0] == "verify" else (0,)
        if code not in allowed or "Traceback" in stderr:
            out.op_failed = True
            return out
        try:
            doc = _finite_json(stdout)
        except ValueError as exc:
            out.op_failed = True
            out.errors.append(f"{' '.join(inv.argv)}: unreadable output: {exc}")
            return out
        net = self.nets[inv.graph.path]
        try:
            if inv.argv[0] == "verify":
                self._verify(inv, doc, code, net, out)
            elif inv.argv[0] == "simulate":
                self._simulate(inv, doc, net, out)
            else:
                self._exact(inv, doc, net, out)
        except (KeyError, TypeError) as exc:
            out.errors.append(f"{' '.join(inv.argv)}: output lacks {exc!r}")
            return out
        if self.recorded[i] is not None and fingerprint(doc) != self.recorded[i]:
            out.errors.append(f"{' '.join(inv.argv)}: estimates differ from reference.json")
        return out

    def _close(self, out: Outcome, what: str, got: float, want: float) -> None:
        if rel_err(got, want) > TOLERANCE:
            out.errors.append(f"{what}: {got!r} vs reference {want!r}")

    def _exact(self, inv, doc, net, out) -> None:
        cmd, x, y = inv.argv[0], inv.argv[2], inv.argv[3]
        if cmd == "resistance":
            self._close(out, "resistance", doc["resistance"], net.resistance(x, y))
        elif cmd == "hitting":
            self._close(out, "hitting", doc["expected_steps"], net.hitting(x, y))
        else:
            self._close(out, "commute x_to_y", doc["x_to_y"], net.hitting(x, y))
            self._close(out, "commute y_to_x", doc["y_to_x"], net.hitting(y, x))
            self._close(out, "commute resistance", doc["resistance"], net.resistance(x, y))
            self._close(out, "commute sum", doc["commute_time"], doc["x_to_y"] + doc["y_to_x"])
            out.residual(net.total * doc["resistance"], doc["commute_time"])
            self._close(out, "commute vs C*R", doc["commute_time"], net.total * doc["resistance"])

    def _band(self, out: Outcome, what: str, est: dict, truth: float) -> None:
        if abs(est["mean"] - truth) > BAND * est["std_error"]:
            out.errors.append(f"{what}: estimate {est['mean']!r} +- {est['std_error']!r} "
                              f"misses exact {truth!r} by more than {BAND} standard errors")

    def _simulate(self, inv, doc, net, out) -> None:
        kind = inv.argv[1]
        out.trials += doc["trials"]
        if kind == "return":
            truth = net.total / net.conductance(inv.argv[3])
        elif kind == "hitting":
            truth = net.hitting(inv.argv[3], inv.argv[4])
        else:  # excursions before a unit pendant: C_z / 1
            truth = net.conductance(inv.argv[3])
        if kind != "excursions":
            out.walk_steps += walk_steps(doc["mean"], doc["trials"])
        self._band(out, f"simulate {kind}", doc, truth)

    def _verify(self, inv, doc, code, net, out) -> None:
        tol = doc["tolerance"]
        verdict = doc["pass"]
        if code != (0 if verdict else 1):
            out.errors.append(f"verify exit code {code} with pass={verdict}")
        out.verdict_failed = not verdict
        traces_pass = []
        for trace in doc["traces"]:
            z = trace["anchor"]
            C, Cz = net.total, net.conductance(z)
            # The true value of both sides of each step, from the identities.
            truth = {"pendant-first-step": 1.0, "pendant-resistance": 1.0,
                     "commute-identity": C + 2.0, "total-time": C + 1.0,
                     "decomposition": C + 1.0, "conclusion": C / Cz}
            steps_pass = []
            for step in trace["steps"]:
                out.steps_checked += 1
                r = out.residual(step["expected"], step["computed"])
                ok = step["pass"]
                out.steps_failed += not ok
                if ok != (r <= tol):
                    out.errors.append(f"verify {z} {step['name']}: pass={ok} with rel_err {r!r}")
                want = truth[step["name"]]
                if verdict:
                    self._close(out, f"verify {z} {step['name']} expected", step["expected"], want)
                    self._close(out, f"verify {z} {step['name']} computed", step["computed"], want)
                if "estimate" in step:
                    self._band(out, f"verify {z} {step['name']}", step["estimate"], want)
                    ok = ok and step["estimate_pass"]
                steps_pass.append(ok)
                if step["name"] in ("total-time", "conclusion") and "estimate" in step:
                    est = step["estimate"]
                    out.trials += est["trials"]
                    out.walk_steps += walk_steps(est["mean"], est["trials"])
            out.anchors += 1
            if trace["pass"] != all(steps_pass):
                out.errors.append(f"verify {z}: trace pass={trace['pass']} disagrees with its steps")
            traces_pass.append(trace["pass"])
        if verdict != all(traces_pass):
            out.errors.append("verify: overall pass disagrees with its traces")
