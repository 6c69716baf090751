"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {resnet20,tenants_gateway} \
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is a separate run that shims every layer's public calls and
reports the per-layer metrics instead.  The line before the result records
the run environment and the sample count behind every percentile.  The exit
code is 0 only when every answer was correct; without the repository's
``src/`` beside this directory the run fails before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("resnet20", "tenants_gateway")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--capture-golden", action="store_true",
                        help="rewrite golden_resnet20.json and exit")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import resnet20
    import tenants
    from common import environment

    if args.capture_golden:
        resnet20.capture_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    trace = bool(args.trace)
    if args.workload == "resnet20":
        outcome = resnet20.run(args.seed, args.seconds, trace)
        params = resnet20.PARAMS
    else:
        outcome = tenants.run(args.seed, args.seconds, trace)
        params = tenants.params()

    missing = [m["name"] for m in declared if m["name"] not in outcome.metrics]
    extra = sorted(set(outcome.metrics) - {m["name"] for m in declared})
    if missing or extra:
        print(f"metrics do not match BENCHMARK.json: missing {missing}, "
              f"undeclared {extra}", file=sys.stderr)
        return 2
    for error in outcome.errors:
        print(f"WRONG ANSWER: {error}", file=sys.stderr)
    env = environment(args.workload, args.seed, args.seconds, trace, params)
    print(json.dumps({"env": env, **outcome.info}))
    print(json.dumps({
        "correct": not outcome.errors,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            m["name"]: {"value": float(outcome.metrics[m["name"]]),
                        "unit": m["unit"]}
            for m in declared
        },
    }))
    return 0 if not outcome.errors else 1


if __name__ == "__main__":
    sys.exit(main())
