"""Regenerate the committed expected results for the default seed.

    python3 perfbench/make_goldens.py [workload ...]

Each golden is the reference run (interpreter instead of JIT, serial
Life, scalar MMU walk) of the default seed's requests, tied to the
generator output by its digest. Regenerate only when the generator
changes; a program change must never require new goldens.
"""

from __future__ import annotations

import json
import sys

from run import DEFAULT_SEED, golden_path, reference_results
from workloads import WORKLOADS, digest, generate


def main(argv: list[str]) -> int:
    for workload in argv or WORKLOADS:
        requests = generate(workload, DEFAULT_SEED)
        golden = {"workload": workload, "seed": DEFAULT_SEED,
                  "digest": digest(requests),
                  "expected": reference_results(requests)}
        golden_path(workload).write_text(json.dumps(golden, indent=1) + "\n")
        print(f"wrote {golden_path(workload)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
