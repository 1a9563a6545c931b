"""Benchmark command: one workload, one seed, one process.

    python3 perfbench/run.py --workload random-sparse --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: relcr is imported from ./src, never
from an installed copy.  Prints progress and any failed check on stderr and,
as the last line of stdout, one JSON object with `correct`, `attempted`,
`failed` and `metrics` (end-to-end metrics with --trace 0, per-layer metrics
with --trace 1).  Inputs are written under perfbench/_work and removed at
the end; a traced run leaves its spans in perfbench/_work/trace-*.json.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_relcr():
    """Put ./src first on the path and make sure relcr really comes from it."""
    # numpy must not start a pool of BLAS threads: one thread per workload
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import relcr
    except ImportError as e:
        sys.exit("perfbench: cannot import relcr from %s: %s" % (ROOT / "src", e))
    if not Path(relcr.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit("perfbench: relcr found at %s, not under %s"
                 % (relcr.__file__, ROOT / "src"))


def main(argv=None):
    import inputs
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    import harness
    workdir = HERE / "_work" / ("%s-s%d-p%d" % (args.workload, args.seed, os.getpid()))
    doc = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                      workdir)
    for message in doc.pop("errors"):
        print("check failed: %s" % message, file=sys.stderr)
    for message in doc.pop("failures"):
        print("operation failed: %s" % message, file=sys.stderr)
    for name, m in doc["metrics"].items():
        print("%-32s %14.6g %s" % (name, m["value"], m["unit"]), file=sys.stderr)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    _import_relcr()
    sys.exit(main())
