"""Write pinned.json: every workload's label-free verdicts, per complex.

    python3 perfbench/pin.py

The committed file was written at the commit that introduced the benchmark
and is what later commits are checked against.  Rewrite it only when a
workload's inputs change, and only from a commit whose verdicts are trusted.
"""

from __future__ import annotations

import json
import sys

from run import SRC, import_srsq
from workloads import PINNED_PATH, WORKLOADS, Api


def main() -> int:
    sys.path.insert(0, str(SRC))
    srsq = import_srsq()
    api = Api(srsq)
    pinned = {}
    for name, workload in WORKLOADS.items():
        pinned[name] = {}
        for item in workload.build(srsq, 0)[0]:
            verdicts, problems = workload.op(api, item)
            if problems:
                raise SystemExit(f"{name} {item.label}: {problems}")
            pinned[name][item.label] = verdicts
    with PINNED_PATH.open("w") as fh:  # one line per complex
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(name)}: {{\n" + ",\n".join(
                f" {json.dumps(label)}: {json.dumps(v, sort_keys=True)}"
                for label, v in sorted(per.items())) + "\n}"
            for name, per in sorted(pinned.items())) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
