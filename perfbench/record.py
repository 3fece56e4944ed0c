"""Record the fingerprint of the first ops of a workload's stream.

    python3 perfbench/record.py --workload maxima --seed 0 --ops 120

Runs each op once, applies every check except the fingerprint, and merges
the results into perfbench/fingerprints.json, keyed by the op's canonical
text.  Record only from a commit whose results are trusted: later runs
compare against these numbers.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import vacuumpairs  # noqa: E402
from checks import FINGERPRINTS, Checker, load_fingerprints, summarize  # noqa: E402
from workloads import WORKLOADS, first_ops, op_key, run_op  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ops", type=int, required=True)
    args = parser.parse_args(argv)
    warnings.simplefilter("ignore", vacuumpairs.MultipleRootsWarning)
    checker = Checker({}, args.workload)
    recorded = {}
    for op in first_ops(args.workload, args.seed, args.ops):
        result = run_op(op)
        checker.check(op, result)
        recorded[op_key(op)] = summarize(op, result)
    fingerprints = load_fingerprints()
    fingerprints.setdefault(args.workload, {}).update(recorded)
    FINGERPRINTS.write_text(json.dumps(fingerprints, indent=1, sort_keys=True) + "\n")
    print(f"{len(recorded)} {args.workload} ops recorded in {FINGERPRINTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
