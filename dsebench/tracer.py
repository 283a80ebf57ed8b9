"""Outside-in tracer: wraps the public functions each layer is called
through and derives per-layer self times and counts.

Nothing in the program is edited.  Each target is the name its caller
looks up at call time (a module global or a class attribute), resolved
through :func:`importlib.import_module` -- ``import repro.dram.characterize``
followed by attribute access would find the *function* that
``repro.dram`` re-exports under the same name, not the module.  A
missing target raises, so a rename cannot silently report zero.

A span's self time is its duration minus the durations of the wrapped
calls nested directly inside it.
"""

from __future__ import annotations

import importlib
import time
import weakref
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

#: (layer name, module, attribute path within the module, counter).
#: ``counter(result, args)`` returns ``{suffix: amount}`` added to the
#: layer's counts; ``None`` counts calls only.
Target = Tuple[str, str, str, Optional[Callable]]


def _tilings(result, _args):
    return {"tilings": len(result)}


def _points(result, _args):
    return {"points": len(result)}


def _scored(result, _args):
    return {"scored_points": len(result)}


def _explored(result, _args):
    stats = result.eval_cache_stats
    return {"exact_points": result.evaluated_points,
            "eval_cache_hits": stats.hits,
            "eval_cache_misses": stats.misses}


def _store_load(result, _args):
    return {"hits": int(result is not None), "misses": int(result is None)}


class _Serviced:
    """Requests a controller serviced during one ``run`` call.

    A controller's trace is cumulative over its ``run`` calls (the
    characterization's split run calls it twice), so count the growth
    since the controller's previous call.
    """

    def __init__(self) -> None:
        self._seen: "weakref.WeakKeyDictionary" = \
            weakref.WeakKeyDictionary()

    def __call__(self, trace, args):
        controller = args[0]
        total = len(trace.serviced)
        before = self._seen.get(controller, 0)
        self._seen[controller] = total
        return {"requests": total - before}


def targets() -> List[Target]:
    """Every wrapped call site, one entry per (layer, function)."""
    return [
        ("workloads.lower", "repro.workloads.network", "Network.lower",
         None),
        ("cnn.tiling.enumerate", "repro.core.engine", "enumerate_tilings",
         _tilings),
        ("core.eval_kernel.chunk", "repro.core.eval_kernel",
         "ChunkEvaluator.__call__", _points),
        ("core.edp.layer_edp", "repro.core.engine", "layer_edp", None),
        ("core.strategies.analytical_scores", "repro.core.strategies",
         "analytical_scores", _scored),
        ("core.engine.explore_network", "repro.core.engine",
         "ExplorationEngine.explore_network", _explored),
        ("dram.characterize.characterize", "repro.dram.characterize",
         "characterize", None),
        ("dram.kernel.characterize_batch", "repro.dram.kernel",
         "characterize_batch", None),
        ("dram.controller.run", "repro.dram.controller",
         "MemoryController.run", _Serviced()),
        ("dram.crossbar.run", "repro.dram.crossbar", "Crossbar.run", None),
        ("dram.crossbar.run", "repro.dram.crossbar", "Crossbar.run_merged",
         None),
        ("dram.energy.account", "repro.dram.energy",
         "EnergyAccountant.account", None),
        ("dram.store.load", "repro.dram.store", "CharacterizationStore.load",
         _store_load),
        ("dram.store.save", "repro.dram.store", "CharacterizationStore.save",
         None),
    ]


class Tracer:
    """Wraps :func:`targets` and accumulates self time and counts."""

    def __init__(self) -> None:
        #: Time covered by wrapped children of each open span (ns).
        self._open: List[int] = []
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def install(self) -> None:
        """Wrap every target; raise if one does not exist."""
        for name, module_name, path, counter in targets():
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = getattr(owner, attribute, None)
            if not callable(original):
                raise LookupError(
                    f"trace target {module_name}:{path} ({name}) is "
                    "missing; update dsebench/tracer.py")
            setattr(owner, attribute, self._wrap(name, original, counter))

    def _wrap(self, name: str, function: Callable,
              counter: Optional[Callable]) -> Callable:
        open_spans = self._open
        self_ns, calls, counts = self.self_ns, self.calls, self.counts
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            open_spans.append(0)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                duration = clock() - start
                self_ns[name] += duration - open_spans.pop()
                calls[name] += 1
                if open_spans:
                    open_spans[-1] += duration
            if counter is not None:
                for suffix, amount in counter(result, args).items():
                    counts[f"{name}.{suffix}"] += amount
            return result

        wrapper.__wrapped__ = function
        return wrapper

    def metrics(self, wall_s: float) -> Dict[str, float]:
        """Per-layer metrics of everything traced so far.

        ``wall_s`` is the wall time of the traced DSE calls; the part
        of it no span's self time covers is ``trace.unattributed_s``.
        """
        def self_s(name):
            return self.self_ns[name] / 1e9

        def ratio(hits, misses):
            lookups = hits + misses
            return hits / lookups if lookups else 0.0

        requests = self.counts["dram.controller.run.requests"]
        metrics = {
            "workloads.lower.self_s": self_s("workloads.lower"),
            "workloads.lower.calls": self.calls["workloads.lower"],
            "cnn.tiling.enumerate.self_s": self_s("cnn.tiling.enumerate"),
            "cnn.tiling.enumerate.calls": self.calls["cnn.tiling.enumerate"],
            "cnn.tiling.enumerate.tilings":
                self.counts["cnn.tiling.enumerate.tilings"],
            "core.eval_kernel.chunk.self_s":
                self_s("core.eval_kernel.chunk"),
            "core.eval_kernel.chunk.calls":
                self.calls["core.eval_kernel.chunk"],
            "core.eval_kernel.chunk.points":
                self.counts["core.eval_kernel.chunk.points"],
            "core.edp.layer_edp.calls": self.calls["core.edp.layer_edp"],
            "core.strategies.analytical_scores.self_s":
                self_s("core.strategies.analytical_scores"),
            "core.strategies.scored_points": self.counts[
                "core.strategies.analytical_scores.scored_points"],
            "core.engine.explore_network.self_s":
                self_s("core.engine.explore_network"),
            "core.engine.exact_points":
                self.counts["core.engine.explore_network.exact_points"],
            "core.engine.eval_cache.hit_rate": ratio(
                self.counts["core.engine.explore_network.eval_cache_hits"],
                self.counts["core.engine.explore_network.eval_cache_misses"]),
            "dram.characterize.characterize.self_s":
                self_s("dram.characterize.characterize"),
            "dram.characterize.characterize.calls":
                self.calls["dram.characterize.characterize"],
            "dram.kernel.characterize_batch.self_s":
                self_s("dram.kernel.characterize_batch"),
            "dram.kernel.characterize_batch.calls":
                self.calls["dram.kernel.characterize_batch"],
            "dram.controller.run.self_s": self_s("dram.controller.run"),
            "dram.controller.requests": requests,
            "dram.controller.ns_per_request": (
                self.self_ns["dram.controller.run"] / requests
                if requests else 0.0),
            "dram.crossbar.run.self_s": self_s("dram.crossbar.run"),
            "dram.energy.account.self_s": self_s("dram.energy.account"),
            "dram.store.load.self_s": self_s("dram.store.load"),
            "dram.store.hits": self.counts["dram.store.load.hits"],
            "dram.store.misses": self.counts["dram.store.load.misses"],
            "dram.store.save.self_s": self_s("dram.store.save"),
            "dram.store.save.calls": self.calls["dram.store.save"],
        }
        metrics["trace.unattributed_s"] = wall_s - sum(
            self.self_ns.values()) / 1e9
        return metrics
