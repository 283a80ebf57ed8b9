"""Vectorized chunk evaluation of the Algorithm-1 grid.

The scalar reference loop (:func:`repro.core.engine.evaluate_range`)
evaluates one flattened grid index at a time: decode the index, look
up traffic, compute the Eq. 2/3 transition counts, multiply by the
Fig.-1 per-condition costs, wrap a :class:`~repro.core.edp.LayerEDP`.
The engine evaluates every chunk through this module instead, as
numpy batches over a whole contiguous index range:

1. **Decode as array arithmetic** — the ``tiling x policy x scheme x
   architecture`` divmod chain of
   :meth:`~repro.core.engine.ExplorationContext.decode` runs once over
   the whole chunk (``%`` / ``//`` on index vectors).
2. **Eq. 2/3 as broadcast integer arithmetic** — transition counts for
   every distinct run length come from
   :func:`repro.mapping.counts.count_transitions_batch` (one
   ``last // stride`` broadcast per mapping dimension, conservation
   checked across the batch).
3. **EDP via per-(architecture, condition) cost tables** — the
   per-condition ``(cycles, read nJ, write nJ)`` triples are pulled
   once per architecture from the characterizations the context
   fetched through ``CharacterizationCache.get_many``
   (:meth:`~repro.dram.characterize.CharacterizationResult.cost_vectors`)
   and folded with the counts into dense ``[arch, policy, length]``
   cost tables; per-point work is then pure gather + multiply-add.

Bit-for-bit identity with the scalar path
-----------------------------------------
The kernel is *not* allowed to be "numerically close": every
``DsePoint`` float must equal the reference loop's bit for bit, so
argmins, reduced merges and Pareto fronts are literally the same
objects.  Three facts make that achievable:

* numpy float64 elementwise ops are the same IEEE-754 double ops
  CPython performs, and every integer involved is far below 2**53, so
  int -> float conversions are exact;
* the scalar accumulations (:func:`repro.core.conditions.run_cost`,
  ``_data_type_cost``, ``layer_edp``) are left-associated sums whose
  term *order* the kernel replicates exactly;
* terms the scalar path skips (zero counts, zero tile fetches,
  zero-length runs) always contribute exactly ``+0.0`` here, and
  ``x + 0.0`` is a bitwise no-op for the non-negative finite values
  this model produces — so unconditional batch adds cannot perturb
  the result.

The one ordering subtlety is the tile-opening access: the scalar model
merges it into the row-conflict slot *in place* when the row loop
wrapped (``(dif_rows + 1) * cost``) but appends it as the *last* term
when it did not.  The kernel reproduces both orderings with a mask
over the batch.

Eligibility and fallback
------------------------
There is one evaluation path, and the per-segment poison mask is its
only selector.  Every chunk goes through :class:`ChunkEvaluator` (the
walk-based and cycle-replay backends of :mod:`repro.core.walk_edp` are
higher-fidelity *validation* paths, not engine backends; adaptive
reuse is resolved per ``(layer, tiling, scheme)`` at table-build time
through the same memo the reference loop uses).  A within-layer
segment falls back to the reference loop only when it contains a
*poisoned* point: a run longer than the DRAM capacity (the reference
raises :class:`~repro.errors.CapacityError` there, and the fallback
raises it identically) or a run long enough to wrap the rank/channel
loops (where merge order becomes data-dependent; never the case for
tile-sized runs).  Differential tests and ratio gates call the
reference loop directly as the baseline.
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, List, Optional

import numpy as np

from ..dram.architecture import DRAMArchitecture
from ..mapping.counts import count_transitions_batch
from ..mapping.dims import Dim
from .conditions import (
    AccessCost,
    DIM_TO_CONDITION,
    INITIAL_ACCESS_CONDITION,
)
from .dse import DsePoint
from .edp import LayerEDP

#: ``Callable[[start, stop], List[DsePoint]]`` — the reference loop a
#: :class:`ChunkEvaluator` falls back to.
ChunkFn = Callable[[int, int], List[DsePoint]]


# ----------------------------------------------------------------------
# Per-layer tables
# ----------------------------------------------------------------------

class _LayerTables:
    """Dense per-layer lookup tables the chunk kernel gathers from.

    Built once per (evaluator, layer) through the *same*
    :class:`~repro.core.engine.EvaluationCache` memos the scalar path
    uses, so adaptive resolution and traffic are shared — and every
    float in the tables is produced by the exact accumulation-order
    replica of :func:`~repro.core.conditions.run_cost` described in
    the module docstring.
    """

    __slots__ = (
        "resolved", "length_id", "read_tiles", "write_tiles",
        "cap_poison", "wrap_poison", "any_poison",
        "cycles", "read_nj", "write_nj", "tck_ns",
    )

    def __init__(self, context, cache, grid,
                 cost_vectors: Dict[DRAMArchitecture, Dict]) -> None:
        organization = context.organization
        schemes = context.schemes
        tilings = grid.tilings
        n_schemes, n_tilings = len(schemes), len(tilings)
        n_types = 3  # ifms / wghs / ofms, in by_type() order

        #: resolved[scheme_idx][tiling_idx] — the concrete scheme.
        self.resolved = [[None] * n_tilings for _ in range(n_schemes)]
        raw_lengths = np.zeros((n_schemes, n_tilings, n_types),
                               dtype=np.int64)
        self.read_tiles = np.zeros((n_schemes, n_tilings, n_types))
        self.write_tiles = np.zeros((n_schemes, n_tilings, n_types))
        lengths_seen = set()
        for s, scheme in enumerate(schemes):
            for t, tiling in enumerate(tilings):
                resolved = cache.resolve_scheme(grid.layer, tiling, scheme)
                traffic = cache.traffic(grid.layer, tiling, resolved)
                self.resolved[s][t] = resolved
                for y, type_traffic in enumerate(
                        traffic.by_type().values()):
                    n_accesses = organization.accesses_for_bytes(
                        type_traffic.tile_bytes)
                    raw_lengths[s, t, y] = n_accesses
                    self.read_tiles[s, t, y] = type_traffic.read_tiles
                    self.write_tiles[s, t, y] = type_traffic.write_tiles
                    if n_accesses:
                        lengths_seen.add(n_accesses)

        # Length-id 0 is the reserved zero-length run (zero cost);
        # over-capacity lengths poison their (scheme, tiling) cells —
        # the scalar fallback raises CapacityError exactly where the
        # reference loop would.
        capacity = min(
            policy.capacity(organization) for policy in context.policies)
        ok_lengths = sorted(n for n in lengths_seen if n <= capacity)
        over = {n for n in lengths_seen if n > capacity}
        id_of = {n: i + 1 for i, n in enumerate(ok_lengths)}
        n_lengths = len(ok_lengths) + 1
        self.length_id = np.zeros((n_schemes, n_tilings, n_types),
                                  dtype=np.int64)
        self.cap_poison = np.zeros((n_schemes, n_tilings), dtype=bool)
        for s in range(n_schemes):
            for t in range(n_tilings):
                for y in range(n_types):
                    n_accesses = int(raw_lengths[s, t, y])
                    if n_accesses in over:
                        self.cap_poison[s, t] = True
                    elif n_accesses:
                        self.length_id[s, t, y] = id_of[n_accesses]

        # Cost tables [arch, policy, length_id]; column 0 stays 0.0.
        policies = context.policies
        architectures = context.architectures
        n_policies, n_archs = len(policies), len(architectures)
        self.cycles = np.zeros((n_archs, n_policies, n_lengths))
        self.read_nj = np.zeros((n_archs, n_policies, n_lengths))
        self.write_nj = np.zeros((n_archs, n_policies, n_lengths))
        #: wrap_poison[policy_idx, length_id] — rank/channel loops
        #: wrapped, so condition-merge order is data-dependent.
        self.wrap_poison = np.zeros((n_policies, n_lengths), dtype=bool)
        length_array = np.asarray(ok_lengths, dtype=np.int64)
        for p, policy in enumerate(policies):
            counts = count_transitions_batch(
                policy, organization, length_array)
            n_intra = len(policy.loop_order)
            if counts[n_intra:].any():
                self.wrap_poison[p, 1:] = counts[n_intra:].any(axis=0)
            row_position = policy.loop_order.index(Dim.ROW)
            row_zero = counts[row_position] == 0
            for a, architecture in enumerate(architectures):
                vectors = cost_vectors[architecture]
                acc_c = np.zeros(len(ok_lengths))
                acc_r = np.zeros(len(ok_lengths))
                acc_w = np.zeros(len(ok_lengths))
                for position, dim in enumerate(policy.loop_order):
                    count = counts[position].astype(np.float64)
                    if dim is Dim.ROW:
                        # Initial access merged into the row-conflict
                        # slot wherever the row loop wrapped.
                        count = count + np.where(row_zero, 0.0, 1.0)
                    c, r, w = vectors[DIM_TO_CONDITION[dim]]
                    acc_c = acc_c + count * c
                    acc_r = acc_r + count * r
                    acc_w = acc_w + count * w
                # ... and appended as the last term where it did not.
                c, r, w = vectors[INITIAL_ACCESS_CONDITION]
                acc_c = np.where(row_zero, acc_c + 1 * c, acc_c)
                acc_r = np.where(row_zero, acc_r + 1 * r, acc_r)
                acc_w = np.where(row_zero, acc_w + 1 * w, acc_w)
                self.cycles[a, p, 1:] = acc_c
                self.read_nj[a, p, 1:] = acc_r
                self.write_nj[a, p, 1:] = acc_w

        self.any_poison = bool(
            self.cap_poison.any() or self.wrap_poison.any())
        self.tck_ns = [
            context.characterizations[architecture].tck_ns
            for architecture in architectures
        ]

    def poison_mask(self, s_idx, t_idx, p_idx):
        """Per-point mask of cells needing the scalar fallback."""
        mask = self.cap_poison[s_idx, t_idx]
        for y in range(3):
            mask = mask | self.wrap_poison[
                p_idx, self.length_id[s_idx, t_idx, y]]
        return mask


def _cost_fingerprint(context, cost_vectors) -> tuple:
    """Hashable identity of a per-architecture cost-vector set.

    The clock periods ride along because the tables carry them (they
    come from the context's characterizations, not ``cost_vectors``).
    """
    return tuple(
        (architecture, context.characterizations[architecture].tck_ns,
         tuple(cost_vectors[architecture].items()))
        for architecture in context.architectures)


def _layer_tables_memoized(context, cache, grid, cost_vectors,
                           fingerprint) -> _LayerTables:
    """Fetch (or build) one layer's table set through the cache.

    Table construction is the vector paths' only per-run fixed cost;
    memoizing it on the :class:`~repro.core.engine.EvaluationCache`
    makes repeated explorations (and the funnel's score-then-reevaluate
    double pass) pay it once.  The key pins everything the tables are a
    pure function of — layer, tilings, grid axes, geometry and the
    cost vectors themselves.
    """
    key = (grid.layer, grid.tilings, context.schemes, context.policies,
           context.organization, fingerprint)
    return cache.tables_memo.get_or_compute(
        key, lambda: _LayerTables(context, cache, grid, cost_vectors))


# ----------------------------------------------------------------------
# The chunk evaluator
# ----------------------------------------------------------------------

def iter_layer_segments(context, start: int, stop: int):
    """Split ``[start, stop)`` at the context's layer boundaries."""
    position = bisect.bisect_right(context.offsets, start) - 1
    total = context.total_points
    while start < stop:
        if position + 1 < len(context.offsets):
            layer_end = context.offsets[position + 1]
        else:
            layer_end = total
        segment_stop = min(stop, layer_end)
        yield position, start, segment_stop
        start = segment_stop
        position += 1


class ChunkEvaluator:
    """Vectorized ``(start, stop) -> List[DsePoint]`` chunk evaluator.

    One instance lives per engine (serial path) or per worker process
    (parallel path); per-layer tables are built lazily on the first
    chunk touching the layer and reused for the rest of the run.
    ``scalar_fallback`` is the reference per-point loop, used for
    poisoned segments (see the module docstring).
    """

    def __init__(self, context, cache,
                 scalar_fallback: ChunkFn) -> None:
        self.context = context
        self.cache = cache
        self.scalar_fallback = scalar_fallback
        self._tables: Dict[int, _LayerTables] = {}
        self._cost_vectors = {
            architecture: characterization.cost_vectors()
            for architecture, characterization
            in context.characterizations.items()
        }
        self._fingerprint = _cost_fingerprint(context, self._cost_vectors)

    def _layer_tables(self, layer_pos: int) -> _LayerTables:
        tables = self._tables.get(layer_pos)
        if tables is None:
            tables = _layer_tables_memoized(
                self.context, self.cache,
                self.context.layers[layer_pos], self._cost_vectors,
                self._fingerprint)
            self._tables[layer_pos] = tables
        return tables

    def __call__(self, start: int, stop: int) -> List[DsePoint]:
        points: List[DsePoint] = []
        for layer_pos, seg_start, seg_stop in iter_layer_segments(
                self.context, start, stop):
            segment = self._segment(layer_pos, seg_start, seg_stop)
            if segment is None:
                segment = self.scalar_fallback(seg_start, seg_stop)
            points.extend(segment)
        return points

    def _segment(self, layer_pos: int, start: int,
                 stop: int) -> Optional[List[DsePoint]]:
        """Vector-evaluate one within-layer segment (None: fall back)."""
        context = self.context
        tables = self._layer_tables(layer_pos)
        grid = context.layers[layer_pos]
        n_tilings = len(grid.tilings)
        n_policies = len(context.policies)
        n_schemes = len(context.schemes)

        # Grid decode as array arithmetic (tiling innermost,
        # architecture outermost — ExplorationContext.decode).
        local = np.arange(start - grid.offset, stop - grid.offset,
                          dtype=np.int64)
        rest, t_idx = np.divmod(local, n_tilings)
        rest, p_idx = np.divmod(rest, n_policies)
        a_idx, s_idx = np.divmod(rest, n_schemes)

        if tables.any_poison \
                and bool(tables.poison_mask(s_idx, t_idx, p_idx).any()):
            return None

        # Per-type gather + multiply-add, replicating _data_type_cost:
        # cycles = (CYC * read_tiles) + (CYC * write_tiles) and
        # energy = (RNJ * read_tiles) + (WNJ * write_tiles), with the
        # layer total left-associated over ifms, wghs, ofms.
        type_cycles = []
        type_energy = []
        for y in range(3):
            length = tables.length_id[s_idx, t_idx, y]
            reads = tables.read_tiles[s_idx, t_idx, y]
            writes = tables.write_tiles[s_idx, t_idx, y]
            cyc = tables.cycles[a_idx, p_idx, length]
            type_cycles.append(cyc * reads + cyc * writes)
            type_energy.append(
                tables.read_nj[a_idx, p_idx, length] * reads
                + tables.write_nj[a_idx, p_idx, length] * writes)
        cycles = (type_cycles[0] + type_cycles[1]) + type_cycles[2]
        energy = (type_energy[0] + type_energy[1]) + type_energy[2]

        # Materialize Python floats once (bitwise-identical doubles),
        # then build the same frozen dataclasses the scalar path does.
        layer_name = grid.layer.name
        architectures = context.architectures
        schemes = context.schemes
        policies = context.policies
        tilings = grid.tilings
        resolved = tables.resolved
        tck_ns = tables.tck_ns
        layer_edp, dse_point, access_cost = LayerEDP, DsePoint, AccessCost
        points: List[DsePoint] = []
        append = points.append
        for s, t, p, a, cyc, en, c0, e0, c1, e1, c2, e2 in zip(
                s_idx.tolist(), t_idx.tolist(),
                p_idx.tolist(), a_idx.tolist(),
                cycles.tolist(), energy.tolist(),
                type_cycles[0].tolist(), type_energy[0].tolist(),
                type_cycles[1].tolist(), type_energy[1].tolist(),
                type_cycles[2].tolist(), type_energy[2].tolist()):
            append(dse_point(
                layer_name=layer_name,
                architecture=architectures[a],
                scheme=schemes[s],
                policy=policies[p],
                tiling=tilings[t],
                result=layer_edp(
                    layer_name=layer_name,
                    energy_nj=en,
                    cycles=cyc,
                    tck_ns=tck_ns[a],
                    by_type={
                        "ifms": access_cost(c0, e0),
                        "wghs": access_cost(c1, e1),
                        "ofms": access_cost(c2, e2),
                    },
                    resolved_scheme=resolved[s][t],
                ),
            ))
        return points


# ----------------------------------------------------------------------
# Batched analytical scoring (the funnel's prune phase)
# ----------------------------------------------------------------------

def batch_scores(context, cache) -> Optional[List[float]]:
    """Vectorized :func:`repro.core.strategies.reference_analytical_scores`.

    Same per-layer tables as the exact kernel, but folded with the
    closed-form analytical characterization instead of the simulator's
    — and collapsed straight to the funnel's scalar score
    ``(energy * cycles) * tck_ns`` per point, replicating the scalar
    scoring loop's accumulation order term for term.  Returns ``None``
    when the grid holds a poisoned length, so the caller can use the
    reference loop.
    """
    from ..dram.analytical import analytical_characterization

    cost_vectors = {
        architecture: analytical_characterization(
            context.scenario, architecture).cost_vectors()
        for architecture in context.architectures
    }
    tck_ns = context.scenario.device.timings.tck_ns
    fingerprint = _cost_fingerprint(context, cost_vectors)
    scores: List[float] = []
    for grid in context.layers:
        tables = _layer_tables_memoized(
            context, cache, grid, cost_vectors, fingerprint)
        if tables.any_poison:
            return None
        # score[arch, scheme, policy, tiling], flattened in grid order.
        cycle_terms = []
        energy_terms = []
        for y in range(3):
            length = tables.length_id[:, :, y]  # [S, T]
            reads = tables.read_tiles[:, :, y]
            writes = tables.write_tiles[:, :, y]
            # Gather [A, P, S, T] -> [A, S, P, T] so axes match the
            # serial loop nest (arch, scheme, policy, tiling).
            cyc = np.transpose(
                tables.cycles[:, :, length], (0, 2, 1, 3))
            rnj = np.transpose(
                tables.read_nj[:, :, length], (0, 2, 1, 3))
            wnj = np.transpose(
                tables.write_nj[:, :, length], (0, 2, 1, 3))
            read_write = (reads + writes)[None, :, None, :]
            cycle_terms.append(read_write * cyc)
            energy_terms.append(
                reads[None, :, None, :] * rnj
                + writes[None, :, None, :] * wnj)
        cycles = (cycle_terms[0] + cycle_terms[1]) + cycle_terms[2]
        energy = (energy_terms[0] + energy_terms[1]) + energy_terms[2]
        scores.extend(((energy * cycles) * tck_ns).reshape(-1).tolist())
    return scores
