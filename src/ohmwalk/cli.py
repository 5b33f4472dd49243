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
import secrets
import sys
from dataclasses import asdict

from . import exact, simulate
from .errors import OhmwalkError, ParseError
from .network import Network, attach_pendant, build_network
from .replay import DEFAULT_TOLERANCE, _replay_batch

DEFAULT_TRIALS = 100_000
DEFAULT_SEED = 0


def parse_network_file(text: str) -> Network:
    """Parse edge-list text into a validated Network.

    Lines hold `u v c` separated by whitespace; `u v` alone means c = 1;
    blank lines and lines starting with `#` are skipped. Labels are
    arbitrary non-whitespace tokens. A bad token count or an unparsable
    conductance raises ParseError here; every other check is made by
    build_network, and an error it blames on one edge (non-positive
    conductance, self-loop) is re-raised with that edge's 1-based line
    number and its type kept.
    """
    edges = []
    lines = []
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
        edges.append((u, v, c))
        lines.append(lineno)
    if not edges:
        raise ParseError(0, "no edges in input")
    try:
        return build_network(edges)
    except OhmwalkError as exc:
        if exc.edge is None:
            raise
        raise type(exc)(f"line {lines[exc.edge]}: {exc}") from exc


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

    def trial_args(p):
        p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
        p.add_argument("--seed", type=_seed_value, default=DEFAULT_SEED,
                       metavar="INT|random")
        p.add_argument("--step-cap", type=int, default=simulate.DEFAULT_STEP_CAP)

    def sim_common(p):
        common(p, formats=("json", "csv"))
        trial_args(p)

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
    trial_args(p)

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
    trip = exact.round_trip(net, ns.x, ns.y)
    _emit_json({
        "x": ns.x,
        "y": ns.y,
        "x_to_y": trip.x_to_y,
        "y_to_x": trip.y_to_x,
        "commute_time": trip.x_to_y + trip.y_to_x,
        "resistance": trip.resistance,
    })
    return 0


def _run_stationary(ns, net: Network) -> int:
    pi = exact.stationary_distribution(net)
    _emit_json({"weights": {str(v): pi.weights[v] for v in net.vertices}})
    return 0


def _run_simulate(ns, net: Network) -> int:
    if ns.estimator == "return":
        est = simulate.estimate_return_time(net, ns.z, ns.trials, ns.seed, ns.step_cap)
        doc = {"kind": "return", "vertex": ns.z}
    elif ns.estimator == "hitting":
        est = simulate.estimate_hitting_time(net, ns.x, ns.y, ns.trials, ns.seed, ns.step_cap)
        doc = {"kind": "hitting", "from": ns.x, "to": ns.y}
    else:
        aug = attach_pendant(net, ns.z, ns.pendant_conductance)
        est = simulate.estimate_excursions(aug, ns.trials, ns.seed, ns.step_cap)
        doc = {"kind": "excursions", "anchor": ns.z,
               "pendant_conductance": aug.pendant_conductance}
    doc.update(asdict(est))  # an excursion estimate's counts come last
    if ns.format == "csv":
        doc.pop("counts", None)  # the histogram is JSON-only
        _emit_csv([doc])
    else:
        _emit_json(doc)
    return 0


def _run_verify(ns, net: Network) -> int:
    anchors = list(net.vertices) if ns.vertex is None else [ns.vertex]
    sim_args = (ns.trials, ns.seed) if ns.simulate else None
    traces = _replay_batch(net, anchors, tolerance=ns.tolerance, simulate_with=sim_args,
                           step_cap=ns.step_cap)
    verdict = all(t.passed for t in traces)
    _emit_json({
        "network": {"n": net.n, "m": net.m, "total_conductance": net.total_conductance},
        "tolerance": ns.tolerance,
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
