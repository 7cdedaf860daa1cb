"""Write one workload's inputs and print how long it took, as one JSON line.

    PYTHONPATH=src python3 bench/make_inputs.py --workload cohort-256 --seed 1 --out DIR [--trace 1]

``bench/run.py`` runs this once per set-up, each in its own process, so the
pipeline's peak memory does not include the set-up.  With ``--trace 1`` the
line also carries the set-up's per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import common

common.prepare()

import spans  # noqa: E402  (after prepare(): imports numpy and retsym)
import workloads  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tracer = spans.Tracer() if args.trace else None
    with tracer.patched() if tracer else nullcontext():
        start = time.perf_counter()
        workloads.write_inputs(workloads.WORKLOADS[args.workload], args.seed, args.out)
        setup_s = time.perf_counter() - start
    result: dict = {"setup_s": setup_s}
    if tracer:
        result["layers"] = spans.setup_metrics(tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
