"""End-to-end benchmark of the Algorithm-1 design-space exploration.

    python3 dsebench/run.py --workload paper-cnn --seed 1 --seconds 40 --trace 0

Run from the root of a checkout (the program is imported from
``src/``; nothing is installed).  Workloads are listed in
``workloads.py``.  For ``--seconds`` seconds the benchmark runs the
workload's requests, in the order ``--seed`` chooses, over and over,
each time in a fresh single-threaded process with empty in-memory
caches (``jobs=1``), as one CLI process would.  Every request's result
is checked against ``reference.json`` (``pin_reference.py`` writes it).

``--trace 0`` reports the end-to-end metrics, medians over the
processes:

* ``setup_s``: spawning the process to its first DSE call;
* ``wall_s``: time inside the DSE calls;
* ``points_per_s``: grid points (``DseResult.total_points``) per
  ``wall_s``;
* ``peak_rss_mb``: the process's peak resident set.

``--trace 1`` alternates untraced processes with processes traced by
``tracer.py`` and reports the per-layer metrics (medians over the
traced processes), ``trace.overhead_s`` (traced minus untraced median
``wall_s``) and ``fail_rate``.

Each run keeps its on-disk characterization stores in a temporary
directory under ``.dsebench_tmp/`` of the checkout and deletes it at
the end.  The last line of stdout is the result object; the line
before it records the seed, request order, host and every sample.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
TMP_ROOT = os.path.join(ROOT, ".dsebench_tmp")
#: Names and units of the reported metrics.
SPEC = os.path.join(ROOT, "BENCHMARK.json")

sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

#: Fewest measured processes per mode, however short ``--seconds`` is.
MIN_SAMPLES = 3
#: One process runs one pass of a workload (a few seconds here).
CHILD_TIMEOUT_S = 60

#: Per-layer metrics that repeat exactly; ``reference.json`` pins them.
EXACT_COUNTS = (
    "workloads.lower.calls",
    "cnn.tiling.enumerate.calls",
    "cnn.tiling.enumerate.tilings",
    "core.eval_kernel.chunk.calls",
    "core.eval_kernel.chunk.points",
    "core.edp.layer_edp.calls",
    "core.strategies.scored_points",
    "core.engine.exact_points",
    "dram.characterize.characterize.calls",
    "dram.kernel.characterize_batch.calls",
    "dram.controller.requests",
    "dram.store.hits",
    "dram.store.misses",
    "dram.store.save.calls",
)


class ChildFailed(RuntimeError):
    """A benchmark process exited non-zero or printed no report."""


def child_env(tmp: str) -> dict:
    """Environment of every benchmark process.

    ``REPRO_CACHE_DIR`` points at a directory that must stay absent:
    the processes attach their own store, so nothing may fall back to
    the user's default store.
    """
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = os.path.join(tmp, "default-store-unused")
    for threads in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
        env[threads] = "1"
    return env


def spawn(workload: str, mode: str, store: str, order, env) -> dict:
    """Run one benchmark process and return its report."""
    command = [sys.executable, CHILD, workload, mode, store,
               ",".join(str(index) for index in order)]
    spawned_at = time.monotonic()
    proc = subprocess.run(command + [repr(spawned_at)], cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(
            f"{workload} {mode} process exited {proc.returncode}:\n"
            f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def check(workload, sample: dict, reference: dict, problems: list) -> int:
    """Failed requests of one measured process; reasons go to
    ``problems``.

    A request fails when it raised or its digest differs from the
    pinned one.  Every request of the process fails when the store was
    not in the state the workload intends or (traced) an exact count
    differs from the pinned one.
    """
    failed = 0
    for outcome in sample["requests"]:
        key = outcome["key"]
        if "error" in outcome:
            problems.append(f"{key} raised {outcome['error']}")
            failed += 1
        elif outcome["digest"] != reference["requests"].get(key):
            problems.append(f"{key} differs from reference.json")
            failed += 1
    run_problems = []
    store = sample["store"]
    if workload.warm and (store["misses"] or store["writes"]):
        run_problems.append(f"warm store missed: {store}")
    if not workload.warm and store["hits"]:
        run_problems.append(f"cold store hit: {store}")
    trace = sample["trace"]
    if trace is not None:
        if workload.warm and trace["dram.characterize.characterize.calls"]:
            run_problems.append("warm workload characterized")
        if not workload.warm and trace["dram.store.hits"]:
            run_problems.append("cold workload hit the store")
        pinned = reference["counts"][workload.name]
        for name in EXACT_COUNTS:
            if trace[name] != pinned[name]:
                run_problems.append(
                    f"{name} = {trace[name]}, pinned {pinned[name]}")
    if run_problems:
        problems.extend(run_problems)
        failed = len(sample["requests"])
    return failed


@contextlib.contextmanager
def scratch_dir(prefix: str):
    """A fresh directory under ``TMP_ROOT``, deleted afterwards."""
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=prefix, dir=TMP_ROOT)
    try:
        yield tmp
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:  # not empty: another run is using it
            pass


def source_digest() -> str:
    """SHA-256 over ``src/`` (the checkout may not be a git repository)."""
    sha = hashlib.sha256()
    for directory, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                sha.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    sha.update(handle.read())
    return sha.hexdigest()


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def measure(workload, order, seconds: float, trace: bool, tmp: str):
    """Run the workload's processes; return ``{mode: [report, ...]}``."""
    env = child_env(tmp)
    warm_store = os.path.join(tmp, "store")
    spawn(workload.name, "prepare", warm_store, order, env)
    modes = ("plain", "trace") if trace else ("plain",)
    samples = {mode: [] for mode in modes}
    durations = []
    deadline = time.monotonic() + seconds
    while True:
        mode = modes[sum(map(len, samples.values())) % len(modes)]
        enough = all(len(runs) >= MIN_SAMPLES for runs in samples.values())
        expected = statistics.median(durations) if durations else 0.0
        if enough and time.monotonic() + expected > deadline:
            break
        store = warm_store if workload.warm \
            else tempfile.mkdtemp(prefix="cold-", dir=tmp)
        started = time.monotonic()
        samples[mode].append(spawn(workload.name, mode, store, order, env))
        durations.append(time.monotonic() - started)
        if not workload.warm:
            shutil.rmtree(store)
    if os.path.exists(env["REPRO_CACHE_DIR"]):
        raise ChildFailed("a process used the default store")
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to benchmark: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    with open(REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)
    with open(SPEC, encoding="utf-8") as handle:
        spec = json.load(handle)
    units = {metric["name"]: metric["unit"] for metric in
             spec["per_layer" if args.trace else "end_to_end"]}

    workload = WORKLOADS[args.workload]
    order = workload.order(args.seed)
    load_start = os.getloadavg()
    with scratch_dir(f"{workload.name}-") as tmp:
        samples = measure(workload, order, args.seconds, bool(args.trace),
                          tmp)

    problems = []
    attempted = failed = 0
    for runs in samples.values():
        for sample in runs:
            attempted += len(sample["requests"])
            failed += check(workload, sample, reference, problems)

    plain = samples["plain"]
    walls = [sample["wall_s"] for sample in plain]
    if args.trace:
        traced = samples["trace"]
        names = list(traced[0]["trace"])
        # median_low: a count stays a measured whole number.
        metrics = {name: statistics.median_low(
            sample["trace"][name] for sample in traced) for name in names}
        metrics["trace.overhead_s"] = (
            statistics.median(sample["wall_s"] for sample in traced)
            - statistics.median(walls))
        metrics["fail_rate"] = failed / attempted
    else:
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in plain),
            "wall_s": statistics.median(walls),
            "points_per_s": statistics.median(
                s["points"] / s["wall_s"] for s in plain),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in plain),
        }

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "order": [workload.requests[index].key for index in order],
        "host": {
            "git_commit": git_commit(),
            "source_sha256": source_digest(),
            "python": platform.python_version(),
            "numpy": plain[0]["numpy"],
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
        },
        "samples": {
            mode: [{key: sample[key] for key in
                    ("setup_s", "wall_s", "points", "peak_rss_mb")}
                   for sample in runs]
            for mode, runs in samples.items()
        },
        "problems": problems,
    }
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
