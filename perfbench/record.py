"""Record the Monte Carlo reference values in reference.json.

    python3 perfbench/record.py

Run from the root of a source tree. Runs every Monte Carlo invocation of
the benchmark once and stores the label-free, stream-determined part of
each output (checks.fingerprint). Every later tree must reproduce these
values bit for bit, as the substream contract requires; record again only
when that contract itself changes.
"""
import json
import sys
from pathlib import Path

import checks
import workloads
from run import HERE, Runner


def main() -> int:
    reference = {}
    for name in workloads.WORKLOADS:
        workdir = Path(".bench_build", "perfbench", "record")
        wl = workloads.build(name, 0, workdir)
        runner = Runner(workdir)
        prints = []
        for i, inv in enumerate(wl.invocations):
            if inv.argv[0] != "simulate" and "--simulate" not in inv.argv:
                prints.append(None)
                continue
            res = runner.spawn([sys.executable, "-m", "ohmwalk.cli", *inv.argv], f"{name}-{i}")
            if res.code != 0:
                print(f"record.py: {' '.join(inv.argv)} exited {res.code}:\n{res.stderr}",
                      file=sys.stderr)
                return 1
            prints.append(checks.fingerprint(json.loads(res.stdout)))
        if any(p is not None for p in prints):
            reference[name] = prints
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
