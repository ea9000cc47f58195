"""chainwatch benchmark: one command per workload run.

    python3 perfbench/run.py --workload cwe79-replay --seed 1 --seconds 20 --trace 0

Run from the repository root.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced run
with ``--trace 1``.  Supporting figures go to standard error.  See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

WORKLOADS = ("cwe79-replay", "cwe79-naive", "cwe79-train")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    if not (src / "chainwatch" / "__init__.py").is_file():
        print(f"perfbench: no chainwatch sources under {src}; run from a checkout", file=sys.stderr)
        return 1
    sys.path[:0] = [str(src)]

    import inputs

    digest = inputs.source_digest()
    if args.workload == "cwe79-train":
        import training as workload
    else:
        import detection as workload
    if args.trace:
        import traced

        out = traced.run(args.workload, args.seed, args.seconds, digest)
    else:
        out = workload.run(args.workload, args.seed, args.seconds, digest)
    info = out.pop("info", {})
    print(json.dumps(info), file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
