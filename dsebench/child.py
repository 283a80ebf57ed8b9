"""One process of the DSE benchmark, spawned by ``run.py``.

    python3 dsebench/child.py WORKLOAD MODE STORE_DIR ORDER SPAWNED_AT

``MODE`` is ``prepare`` (untimed: import the program, so its bytecode
is compiled, and fill the store of a warm workload), ``plain`` (timed,
untraced) or ``trace`` (timed under :class:`tracer.Tracer`).  ``ORDER``
lists the workload's request indices, comma-separated.  ``SPAWNED_AT``
is the parent's ``time.monotonic()`` just before the spawn; on Linux
both processes read the same system-wide monotonic clock, so the
difference to the first DSE call is the process's set-up time.

Prints one JSON object on stdout.  A request that raises is reported,
not fatal; anything else that goes wrong exits non-zero.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import WORKLOADS  # noqa: E402


def digest(result) -> dict:
    """What the reference pins for one request: exact counts and the
    bit-exact min-EDP of every (layer, architecture)."""
    best = {}
    for point in result.points:
        key = f"{point.layer_name}/{point.architecture.value}"
        edp = point.edp_js
        if key not in best or edp < best[key]:
            best[key] = edp
    return {
        "total_points": result.total_points,
        "evaluated_points": result.evaluated_points,
        "scored_points": result.scored_points,
        "min_edp": {key: value.hex() for key, value in sorted(best.items())},
    }


def main(argv) -> int:
    name, mode, store_dir, order, spawned_at = argv
    workload = WORKLOADS[name]
    requests = [workload.requests[int(index)]
                for index in order.split(",")]

    from repro.core import ExplorationEngine
    from repro.dram import DEFAULT_CHARACTERIZATION_CACHE, \
        CharacterizationStore
    from repro.workloads import get_workload

    cache = DEFAULT_CHARACTERIZATION_CACHE
    store = CharacterizationStore(store_dir)
    cache.attach_store(store)

    if mode == "prepare":
        if workload.warm:
            for request in requests:
                kwargs = request.explore_kwargs()
                cache.get_many(
                    kwargs["device"].supported_architectures,
                    device=kwargs["device"],
                    controller=kwargs["controller"],
                    contention=kwargs["contention"])
        print(json.dumps({"store_writes": store.writes}))
        return 0

    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    elif mode != "plain":
        raise SystemExit(f"unknown mode {mode!r}")

    engine = ExplorationEngine(jobs=1)
    setup_s = None
    wall_s = 0.0
    points = 0
    outcomes = []
    for request in requests:
        network = get_workload(request.model)
        kwargs = request.explore_kwargs()
        if setup_s is None:
            setup_s = time.monotonic() - float(spawned_at)
        start = time.perf_counter()
        try:
            result = engine.explore_network(network, **kwargs)
        except Exception as exc:  # counted as a failed request
            wall_s += time.perf_counter() - start
            outcomes.append({"key": request.key, "error": repr(exc)})
            continue
        wall_s += time.perf_counter() - start
        points += result.total_points
        outcomes.append({"key": request.key, "digest": digest(result)})
        # Free the points here, not when the next call's result is
        # assigned inside the timed region.
        del result

    import numpy

    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "points": points,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "requests": outcomes,
        "store": {"hits": store.hits, "misses": store.misses,
                  "writes": store.writes},
        "numpy": numpy.__version__,
        "trace": None,
    }
    if tracer is not None:
        report["trace"] = tracer.metrics(wall_s)
        report["trace"]["dram.cache.hit_rate"] = cache.stats.hit_rate
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
