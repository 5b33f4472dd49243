"""Command-line front end.

Loads a network from an edge-list file (one `u v conductance` triple per
line, `#` comments, conductance defaulting to 1), dispatches to the exact
solver, the simulator, or the verification replayer, and prints one JSON
document (CSV for flat estimate rows) on standard output, in one write.
Every document is encoded here by json.dumps except verify's, which is
text written by the replay module, next to the dataclasses it encodes.

Exit codes: 0 success, 1 verification failure, 2 usage or input errors. A
stdout closed early (``| head``) or from the start (``>&-``) does not change
the code, nor does a stderr that is closed or cannot be written. Input, a
file or standard input (``-``), is decoded as UTF-8.
Identical invocations produce byte-identical output; the default seed is
0 so casual runs reproduce, with `--seed random` as the escape hatch.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import sys
from dataclasses import asdict

from .errors import OhmwalkError, ParseError
from .network import Network, _build
from .util import DEFAULT_STEP_CAP, DEFAULT_TOLERANCE

DEFAULT_TRIALS = 100_000
DEFAULT_SEED = 0


def parse_network_file(text: str) -> Network:
    """Parse edge-list text into a validated Network.

    Lines hold `u v c` separated by whitespace; `u v` alone means c = 1;
    blank lines and lines starting with `#` are skipped. Labels are
    arbitrary non-whitespace tokens. A bad token count or an unparsable
    conductance raises ParseError here, for the first such line; every
    other check is made by build_network, and an error it blames on one
    edge (non-positive conductance, self-loop) is re-raised with that
    edge's 1-based line number and its type kept.

    Lines are those of str.splitlines, which also numbers them. A leading
    byte-order mark (U+FEFF), which some editors write, is dropped.
    """
    tails, heads, conductances, numbers = [], [], [], []
    for number, line in enumerate(text.removeprefix("\ufeff").splitlines(), 1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) == 3:
            try:
                conductances.append(float(tokens[2]))
            except ValueError:
                raise ParseError(number, f"bad conductance {tokens[2]!r}")
        elif len(tokens) == 2:
            conductances.append(1.0)
        else:
            raise ParseError(number, f"expected `u v [conductance]`, got {len(tokens)} fields")
        tails.append(tokens[0])
        heads.append(tokens[1])
        numbers.append(number)
    if not numbers:
        raise ParseError(None, "no edges in input")
    try:
        return _build(tails, heads, conductances)
    except OhmwalkError as exc:
        if exc.edge is None:
            raise
        raise type(exc)(f"line {numbers[exc.edge]}: {exc}") from exc


def _load(path: str) -> Network:
    """The network in file ``path``, or ``-`` for stdin, decoded as UTF-8 whatever the locale."""
    if path != "-":
        with open(path, "rb") as fh:
            data = fh.read()
    elif sys.stdin is None:  # closed before the command started (<&-)
        raise OSError("standard input is closed")
    elif not hasattr(sys.stdin, "buffer"):  # text only, such as an io.StringIO
        raise OSError("standard input has no bytes to decode (a text stream with no .buffer)")
    else:
        data = sys.stdin.buffer.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The bytes before the first bad one decode; its line is the last
        # of theirs, numbered by str.splitlines as parse_network_file numbers
        # lines, or a new one if they end with a line break.
        line = len((data[:exc.start].decode("utf-8") + "_").splitlines())
        raise ParseError(line, f"can't decode byte 0x{data[exc.start]:02x} as UTF-8: {exc.reason}")
    return parse_network_file(text)


def _seed_value(text: str) -> int:
    if text == "random":
        import secrets

        return secrets.randbits(63)
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer or 'random', got {text!r}")


def _emit(parts) -> None:
    """Write the text parts to stdout in one write, and flush. A reader that
    stops reading (``| head``) ends the output, not the command, whose exit
    code stays its own: stdout then points at devnull, as the Python docs
    advise, so that the flush at exit cannot raise BrokenPipeError again. A
    stdout closed before the command started (``>&-``) is written nothing."""
    if sys.stdout is None:
        return
    try:
        sys.stdout.write("".join(parts))
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _report(message: str) -> None:
    """Write the error line for ``message`` to stderr. Like stdout in _emit, a
    stderr closed before the command started (``2>&-``) is written nothing,
    and so is one that cannot be written (OSError): the exit code stays 2,
    and nothing lands on stdout."""
    if sys.stderr is None:
        return
    try:
        sys.stderr.write(f"ohmwalk: error: {message}\n")
        sys.stderr.flush()
    except OSError:
        pass


def _emit_json(doc: dict) -> None:
    # Every document but verify's is a few lines, so it is encoded whole.
    _emit([json.dumps(doc, indent=2), "\n"])


def _emit_csv(rows: list[dict]) -> None:
    import csv

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _emit([buf.getvalue()])


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
        p.add_argument("--step-cap", type=int, default=DEFAULT_STEP_CAP)

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
    from . import exact

    _emit_json({"x": ns.x, "y": ns.y, "resistance": exact.effective_resistance(net, ns.x, ns.y)})
    return 0


def _run_hitting(ns, net: Network) -> int:
    from . import exact

    net.require(ns.x)
    net.require(ns.y)
    value = exact.hitting_time(net, ns.y).values[ns.x]
    _emit_json({"from": ns.x, "to": ns.y, "expected_steps": value})
    return 0


def _run_return_time(ns, net: Network) -> int:
    from . import exact

    _emit_json({
        "vertex": ns.z,
        "formula": exact.return_time_formula(net, ns.z),
        "first_step": exact.return_time(net, ns.z),
    })
    return 0


def _run_commute(ns, net: Network) -> int:
    from . import exact

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
    from . import exact

    pi = exact.stationary_distribution(net)
    _emit_json({"weights": {str(v): pi.weights[v] for v in net.vertices}})
    return 0


def _run_simulate(ns, net: Network) -> int:
    from . import simulate

    if ns.estimator == "return":
        est = simulate.estimate_return_time(net, ns.z, ns.trials, ns.seed, ns.step_cap)
        doc = {"kind": "return", "vertex": ns.z}
    elif ns.estimator == "hitting":
        est = simulate.estimate_hitting_time(net, ns.x, ns.y, ns.trials, ns.seed, ns.step_cap)
        doc = {"kind": "hitting", "from": ns.x, "to": ns.y}
    else:
        est = simulate.estimate_excursions(net, ns.z, ns.trials, ns.seed, ns.step_cap,
                                           ns.pendant_conductance)
        doc = {"kind": "excursions", "anchor": ns.z, "pendant_conductance": ns.pendant_conductance}
    doc.update(asdict(est))  # an excursion estimate's counts come last
    if ns.format == "csv":
        doc.pop("counts", None)  # the histogram is JSON-only
        _emit_csv([doc])
    else:
        _emit_json(doc)
    return 0


def _run_verify(ns, net: Network) -> int:
    """Print the document json.dumps(doc, indent=2) + "\\n" would print for doc
    = {"network", "tolerance", "traces": [trace.to_json_dict() ...], "pass"},
    the network block laid out as a trace's. replay's _verify_json writes it
    as text."""
    from .replay import _replay_batch, _verify_json

    anchors = list(net.vertices) if ns.vertex is None else [ns.vertex]
    sim_args = (ns.trials, ns.seed) if ns.simulate else None
    traces = _replay_batch(net, anchors, tolerance=ns.tolerance, simulate_with=sim_args,
                           step_cap=ns.step_cap)
    verdict = all(t.passed for t in traces)
    _emit(_verify_json(net, ns.tolerance, traces, verdict))
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
        _report(str(exc))
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
