"""Pin the benchmark's reference outputs into ``reference.json``.

    python3 dsebench/pin_reference.py

Runs every workload once traced in its listed request order and once
in reverse, requires the two to agree, and writes each request's
digest (exact point counts and the bit-exact min-EDP of every
(layer, architecture)) and each workload's exact per-layer counts.
Re-pin only in a change that means to alter these outputs.
"""

from __future__ import annotations

import json
import sys
import tempfile

from run import EXACT_COUNTS, REFERENCE, child_env, scratch_dir, spawn
from workloads import WORKLOADS


def traced_pass(workload, order, tmp):
    """Digests by request key and exact counts of one traced process."""
    env = child_env(tmp)
    store = tempfile.mkdtemp(prefix="store-", dir=tmp)
    spawn(workload.name, "prepare", store, order, env)
    sample = spawn(workload.name, "trace", store, order, env)
    digests = {}
    for outcome in sample["requests"]:
        if "error" in outcome:
            raise SystemExit(f"{outcome['key']} raised {outcome['error']}")
        digests[outcome["key"]] = outcome["digest"]
    counts = {name: sample["trace"][name] for name in EXACT_COUNTS}
    return digests, counts


def main() -> int:
    reference = {"requests": {}, "counts": {}}
    with scratch_dir("pin-") as tmp:
        for workload in WORKLOADS.values():
            order = list(range(len(workload.requests)))
            forward = traced_pass(workload, order, tmp)
            backward = traced_pass(workload, order[::-1], tmp)
            if forward != backward:
                raise SystemExit(
                    f"{workload.name}: outputs depend on request order")
            reference["requests"].update(forward[0])
            reference["counts"][workload.name] = forward[1]
            print(f"pinned {workload.name}", file=sys.stderr)
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
