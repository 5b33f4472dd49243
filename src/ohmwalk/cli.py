"""Command-line front end.

Loads a network from an edge-list file (one `u v conductance` triple per
line, `#` comments, conductance defaulting to 1), dispatches to the exact
solver, the simulator, or the verification replayer, and prints one JSON
document (CSV for flat estimate rows) on standard output.

Exit codes: 0 success, 1 verification failure, 2 usage or input errors.
Identical invocations produce byte-identical output; the default seed is
0 so casual runs reproduce, with `--seed random` as the escape hatch.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import secrets
import sys
from dataclasses import dataclass

from . import exact, simulate
from .errors import NonPositiveConductance, OhmwalkError, ParseError, SameVertex, SelfLoop
from .network import Network, attach_pendant, build_network
from .replay import replay as replay_anchor

DEFAULT_TRIALS = 100_000
DEFAULT_SEED = 0
DEFAULT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class CliConfig:
    """Resolved invocation options shared by the subcommand handlers."""

    subcommand: str
    path: str
    format: str = "json"
    seed: int = DEFAULT_SEED
    trials: int = DEFAULT_TRIALS
    tolerance: float = DEFAULT_TOLERANCE
    step_cap: int = simulate.DEFAULT_STEP_CAP

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.tolerance <= 0.0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")
        if self.step_cap < 1:
            raise ValueError(f"step-cap must be >= 1, got {self.step_cap}")


def parse_network_file(text: str) -> Network:
    """Parse edge-list text into a validated Network.

    Lines hold `u v c` separated by whitespace; `u v` alone means c = 1;
    blank lines and lines starting with `#` are skipped. Labels are
    arbitrary non-whitespace tokens. Errors detectable per line (bad
    token count, unparsable or non-positive conductance, self-loop) carry
    the 1-based line number; whole-graph validation such as connectivity
    is reported by the network builder afterwards.
    """
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) == 2:
            u, v = tokens
            c = 1.0
        elif len(tokens) == 3:
            u, v = tokens[0], tokens[1]
            try:
                c = float(tokens[2])
            except ValueError:
                raise ParseError(lineno, f"bad conductance {tokens[2]!r}")
        else:
            raise ParseError(lineno, f"expected `u v [conductance]`, got {len(tokens)} fields")
        if u == v:
            raise SelfLoop(f"line {lineno}: self-loop at vertex {u!r}")
        if not math.isfinite(c) or c <= 0.0:
            raise NonPositiveConductance(
                f"line {lineno}: conductance must be finite and > 0, got {tokens[2]}"
            )
        edges.append((u, v, c))
    if not edges:
        raise ParseError(0, "no edges in input")
    return build_network(edges)


def _load(path: str) -> Network:
    if path == "-":
        return parse_network_file(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_network_file(fh.read())


def _seed_value(text: str) -> int:
    if text == "random":
        return secrets.randbits(63)
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer or 'random', got {text!r}")


def _emit_json(doc: dict) -> None:
    # Streamed, so a large verify document is never held as one string. With
    # an indent, dump and dumps use the same encoder: the bytes are the same.
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _emit_csv(rows: list[dict]) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


def _estimate_doc(kind: str, context: dict, est: simulate.Estimate) -> dict:
    doc = {"kind": kind}
    doc.update(context)
    doc.update(
        mean=est.mean,
        std_error=est.std_error,
        trials=est.trials,
        seed=est.seed,
        capped_trials=est.capped_trials,
    )
    return doc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ohmwalk",
        description="Exact and simulated random-walk quantities on weighted graphs "
                    "viewed as electric networks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, formats=("json",)):
        p.add_argument("file", help="edge-list file, or - for standard input")
        p.add_argument("--format", choices=formats, default="json")

    p = sub.add_parser("resistance", help="effective resistance between two vertices")
    common(p)
    p.add_argument("x")
    p.add_argument("y")

    p = sub.add_parser("hitting", help="expected steps from x until first visit to y")
    common(p)
    p.add_argument("x")
    p.add_argument("y")

    p = sub.add_parser("return-time", help="expected first-return time to a vertex")
    common(p)
    p.add_argument("z")

    p = sub.add_parser("commute", help="expected round trip between two vertices")
    common(p)
    p.add_argument("x")
    p.add_argument("y")

    p = sub.add_parser("stationary", help="stationary distribution of the walk")
    common(p)

    sim = sub.add_parser("simulate", help="seeded Monte Carlo estimators")
    simsub = sim.add_subparsers(dest="estimator", required=True)

    def sim_common(p):
        common(p, formats=("json", "csv"))
        p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
        p.add_argument("--seed", type=_seed_value, default=DEFAULT_SEED,
                       metavar="INT|random")
        p.add_argument("--step-cap", type=int, default=simulate.DEFAULT_STEP_CAP)

    p = simsub.add_parser("return", help="estimate a first-return time")
    sim_common(p)
    p.add_argument("z")

    p = simsub.add_parser("hitting", help="estimate a first-visit time")
    sim_common(p)
    p.add_argument("x")
    p.add_argument("y")

    p = simsub.add_parser("excursions", help="estimate excursions before a fresh pendant is hit")
    sim_common(p)
    p.add_argument("z")
    p.add_argument("--pendant-conductance", type=float, default=1.0)

    p = sub.add_parser("verify", help="replay the pendant argument and check every identity")
    common(p)
    p.add_argument("--vertex", default=None, help="anchor (default: every vertex)")
    p.add_argument("--simulate", action="store_true",
                   help="attach Monte Carlo bands to the simulable steps")
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=_seed_value, default=DEFAULT_SEED, metavar="INT|random")
    p.add_argument("--step-cap", type=int, default=simulate.DEFAULT_STEP_CAP)

    return parser


def _run_resistance(ns, net: Network) -> int:
    _emit_json({"x": ns.x, "y": ns.y, "resistance": exact.effective_resistance(net, ns.x, ns.y)})
    return 0


def _run_hitting(ns, net: Network) -> int:
    net.require(ns.x)
    net.require(ns.y)
    value = exact.hitting_time(net, ns.y).values[ns.x]
    _emit_json({"from": ns.x, "to": ns.y, "expected_steps": value})
    return 0


def _run_return_time(ns, net: Network) -> int:
    _emit_json({
        "vertex": ns.z,
        "formula": exact.return_time_formula(net, ns.z),
        "first_step": exact.return_time(net, ns.z),
    })
    return 0


def _run_commute(ns, net: Network) -> int:
    net.require(ns.x)
    net.require(ns.y)
    if ns.x == ns.y:
        raise SameVertex(f"commute needs two distinct vertices, got {ns.x!r} twice")
    forward = exact.hitting_time(net, ns.y).values[ns.x]
    backward = exact.hitting_time(net, ns.x).values[ns.y]
    _emit_json({
        "x": ns.x,
        "y": ns.y,
        "x_to_y": forward,
        "y_to_x": backward,
        "commute_time": forward + backward,
        "resistance": exact.effective_resistance(net, ns.x, ns.y),
    })
    return 0


def _run_stationary(ns, net: Network) -> int:
    pi = exact.stationary_distribution(net)
    _emit_json({"weights": {str(v): pi.weights[v] for v in net.vertices}})
    return 0


def _run_simulate(ns, net: Network) -> int:
    cfg = CliConfig(
        subcommand=f"simulate {ns.estimator}",
        path=ns.file,
        format=ns.format,
        seed=ns.seed,
        trials=ns.trials,
        step_cap=ns.step_cap,
    )
    if ns.estimator == "return":
        est = simulate.estimate_return_time(net, ns.z, cfg.trials, cfg.seed, cfg.step_cap)
        doc = _estimate_doc("return", {"vertex": ns.z}, est)
    elif ns.estimator == "hitting":
        est = simulate.estimate_hitting_time(net, ns.x, ns.y, cfg.trials, cfg.seed, cfg.step_cap)
        doc = _estimate_doc("hitting", {"from": ns.x, "to": ns.y}, est)
    else:
        aug = attach_pendant(net, ns.z, ns.pendant_conductance)
        est = simulate.estimate_excursions(aug, cfg.trials, cfg.seed, cfg.step_cap)
        doc = _estimate_doc(
            "excursions",
            {"anchor": ns.z, "pendant_conductance": aug.pendant_conductance},
            est,
        )
        if cfg.format == "json":
            doc["counts"] = {str(k): v for k, v in est.counts.items()}
    if cfg.format == "csv":
        _emit_csv([doc])
    else:
        _emit_json(doc)
    return 0


def _run_verify(ns, net: Network) -> int:
    cfg = CliConfig(
        subcommand="verify",
        path=ns.file,
        seed=ns.seed,
        trials=ns.trials,
        tolerance=ns.tolerance,
        step_cap=ns.step_cap,
    )
    if ns.vertex is not None:
        net.require(ns.vertex)
        anchors = [ns.vertex]
    else:
        anchors = list(net.vertices)
    sim_args = (cfg.trials, cfg.seed) if ns.simulate else None
    traces = [
        replay_anchor(net, z, tolerance=cfg.tolerance,
                      simulate_with=sim_args, step_cap=cfg.step_cap)
        for z in anchors
    ]
    verdict = all(t.passed for t in traces)
    _emit_json({
        "network": {"n": net.n, "m": net.m, "total_conductance": net.total_conductance},
        "tolerance": cfg.tolerance,
        "traces": [t.to_json_dict() for t in traces],
        "pass": verdict,
    })
    return 0 if verdict else 1


_HANDLERS = {
    "resistance": _run_resistance,
    "hitting": _run_hitting,
    "return-time": _run_return_time,
    "commute": _run_commute,
    "stationary": _run_stationary,
    "simulate": _run_simulate,
    "verify": _run_verify,
}


def run(argv) -> int:
    """Parse argv, execute one subcommand, and return the process exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        net = _load(ns.file)
        return _HANDLERS[ns.subcommand](ns, net)
    except (OhmwalkError, ValueError, OSError) as exc:
        print(f"ohmwalk: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
