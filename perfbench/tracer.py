"""Span tracer for the benchmark's traced run.

Run as a script, it executes one CLI invocation in this process:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json -- <ohmwalk arguments>

It times `import ohmwalk.cli`, rebinds the public functions of the layer
modules to span-recording wrappers, runs `ohmwalk.cli.run(argv)` and writes
the spans to SPANS.json. Each name is rebound where its caller looks it up,
so aliases such as `ohmwalk.cli.replay_anchor`, `ohmwalk.replay.attach_pendant`
and `ohmwalk.cli.build_network` are wrapped too. Standard output and the
exit code are the program's own.

A span is [name, start, end, parent], parent being the index of the span
that was open when it began. Functions called once per trial or per step
are aggregated per (name, parent) as a call count and a total time.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "network", "exact", "simulate", "replay")
AGGREGATED = frozenset({"simulate.trial_generator", "simulate.step"})


class Tracer:
    """Keeps spans in memory; nothing is written until the run ends."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.buckets: dict[tuple[str, int | None], list] = {}
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def aggregated(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                bucket = self.buckets.setdefault((name, parent), [0, 0.0])
                bucket[0] += 1
                bucket[1] += self.clock() - start

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, self.clock(), None, self._open[-1] if self._open else None])
            self._open.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][2] = self.clock()

        return aggregated if name in AGGREGATED else spanned

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "buckets": [[name, parent, calls, total]
                        for (name, parent), (calls, total) in self.buckets.items()],
        }


def self_times(spans: list, buckets: list) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another, so their durations add.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    for _, parent, _, total in buckets:
        if parent is not None:
            covered[parent] += total
    return [end - start - c for (_, start, end, _), c in zip(spans, covered)]


def install(tracer: Tracer) -> None:
    """Rebind every public ohmwalk function in the layer modules to a wrapper."""
    modules = [importlib.import_module(f"ohmwalk.{name}") for name in LAYERS]
    wrappers = {}
    for module in modules:
        for attr, value in list(vars(module).items()):
            if not inspect.isfunction(value) or value.__name__.startswith("_"):
                continue
            home = value.__module__.removeprefix("ohmwalk.")
            if home not in LAYERS:
                continue
            if value not in wrappers:
                wrappers[value] = tracer.wrap(f"{home}.{value.__name__}", value)
            setattr(module, attr, wrappers[value])


def main(argv: list[str]) -> int:
    spans_path, separator, *args = argv
    if separator != "--":
        raise SystemExit("usage: tracer.py SPANS.json -- <ohmwalk arguments>")
    tracer = Tracer()
    start = tracer.clock()
    import ohmwalk.cli
    tracer.spans.append(["cli.import", start, tracer.clock(), None])
    scipy_loaded = "scipy" in sys.modules
    install(tracer)
    try:
        return ohmwalk.cli.run(args)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(dict(tracer.to_json(), scipy_loaded=scipy_loaded), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
