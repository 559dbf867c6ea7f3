"""Predicted query fidelity for serving backends (Sec. 8.1 bounds, pipelined).

Gate-level execution only reports a *measured* fidelity when a window runs
functionally; timing-only serving used to report ``None`` and the serving
stack was blind to quality-of-result.  This module turns the paper's
analytic noise-resilience bounds into a *prediction* every backend can
attach to every slot of every window:

* the per-architecture base infidelity is the Sec. 8.1 bound evaluated at
  the backend's :class:`~repro.hardware.parameters.HardwareParameters`
  (``2 log2(N)^2 (eps0 + eps1 + eps2)`` for Fat-Tree, without ``eps2`` for
  BB; Virtual accumulates the per-page BB bound plus one MCX select error
  per page access);
* pipelining-depth degradation: a slot that shares the tree with other
  in-flight queries accrues crosstalk through the shared routers.  Each
  neighbour contributes its residency overlap fraction times a crosstalk
  bound of the same ``2 n^2`` form as the base, charged to the channel the
  concurrent streams actually share — the intra-node SWAP channel
  (``eps2``) for Fat-Tree's pipelined levels, the inter-node SWAP channel
  (``eps1``) for the BB-based architectures.  A lone query (batch size 1)
  reproduces the Table 3 bound exactly, and a sequential backend (BB)
  never overlaps, so its slots never degrade.

QEC-encoded variants (:mod:`repro.backends.encoded`) evaluate the same
expressions at the logical error rates of
:func:`repro.fidelity.qec.encoded_parameters`.

Evaluation-order contract
-------------------------

:func:`pipelined_fidelities` evaluates all window slots in one array
expression; the original per-slot loop is kept verbatim as the pinned
oracle ``pipelined_fidelities_scalar`` in ``tests/oracles/noise_scalar.py``.
The two are **bit-identical** by construction, not by accident:

* every per-element operation (``min``/``max`` of offsets, the ``+ 1``,
  the division by the slot's duration, the final ``base + crosstalk *
  overlap``) is a single IEEE-754 double operation in both forms, so the
  elementwise intermediates match bitwise;
* the overlap sum accumulates **left to right** in neighbour order via a
  row-wise cumulative sum (``np.cumsum`` is sequential), exactly the
  order the scalar ``+=`` loop uses — never a pairwise/tree reduction
  (``np.sum``), which would round differently from eight terms on;
* non-overlapping neighbours (and the excluded self term on the
  diagonal) contribute ``+0.0``, which is bitwise-neutral in the
  accumulation: the running overlap is always ``+0.0`` or positive, and
  ``x + 0.0 == x`` bitwise for such ``x``.

The parity is pinned across all five architectures and their encoded
``@d<k>`` variants in ``tests/test_vectorized_parity.py``.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

import numpy as np

from repro.backends.protocol import WindowResult
from repro.bucket_brigade.tree import validate_capacity
from repro.fidelity.noise_resilience import (
    bb_query_infidelity,
    fat_tree_query_infidelity,
)
from repro.hardware.parameters import DEFAULT_PARAMETERS, HardwareParameters
from repro.schedule_cache import default_registry

__all__ = [
    "PredictedFidelityMixin",
    "bb_bounds",
    "fat_tree_bounds",
    "pipelined_fidelities",
    "virtual_bounds",
]


def fat_tree_bounds(
    capacity: int, parameters: HardwareParameters
) -> tuple[float, float]:
    """(base, per-neighbour crosstalk) infidelity bounds for Fat-Tree.

    The crosstalk bound charges one fully-overlapping in-flight neighbour
    the intra-node SWAP channel at the bound's ``2 n^2`` prefactor: the
    pipelined levels are exactly where concurrent queries share routers.
    """
    n = validate_capacity(capacity)
    base = fat_tree_query_infidelity(capacity, parameters)
    crosstalk = min(1.0, 2.0 * n * n * parameters.intra_node_swap_error)
    return base, crosstalk


def bb_bounds(capacity: int, parameters: HardwareParameters) -> tuple[float, float]:
    """(base, per-neighbour crosstalk) infidelity bounds for BB-type QRAMs."""
    n = validate_capacity(capacity)
    base = bb_query_infidelity(capacity, parameters)
    crosstalk = min(1.0, 2.0 * n * n * parameters.inter_node_swap_error)
    return base, crosstalk


def virtual_bounds(
    capacity: int,
    num_pages: int,
    page_size: int,
    parameters: HardwareParameters,
) -> tuple[float, float]:
    """(base, per-neighbour crosstalk) infidelity bounds for Virtual QRAM.

    A query is ``num_pages`` sequential page accesses, each a page-sized BB
    query plus one MCX page select (charged one CSWAP-equivalent error).
    """
    m = validate_capacity(page_size)
    per_page = bb_query_infidelity(page_size, parameters) + parameters.cswap_error
    base = min(1.0, num_pages * per_page)
    crosstalk = min(
        1.0, num_pages * 2.0 * m * m * parameters.inter_node_swap_error
    )
    return base, crosstalk


def pipelined_fidelities(
    base_infidelity: float,
    crosstalk_infidelity: float,
    start_offsets: Sequence[float],
    finish_offsets: Sequence[float],
) -> tuple[float, ...]:
    """Per-slot predicted fidelity of one window from its slot offsets.

    Slot ``s`` predicts ``1 - min(1, base + crosstalk * overlap_s)`` where
    ``overlap_s`` sums, over every other slot, the fraction of slot ``s``'s
    residency it spends coexisting with that slot in the hardware.

    All slots are evaluated in one array expression; see the module
    docstring's evaluation-order contract for why the result is
    bit-identical to the per-slot loop it replaced (the
    ``pipelined_fidelities_scalar`` oracle under ``tests/oracles``).
    """
    starts = np.asarray(start_offsets, dtype=np.float64)
    finishes = np.asarray(finish_offsets, dtype=np.float64)
    durations = finishes - starts + 1.0
    # shared[s, o] = min(fin_s, fin_o) - max(start_s, start_o) + 1, the
    # same three IEEE ops the scalar loop performs per neighbour.
    shared = (
        np.minimum(finishes[:, None], finishes[None, :])
        - np.maximum(starts[:, None], starts[None, :])
        + 1.0
    )
    terms = np.where(shared > 0.0, shared / durations[:, None], 0.0)
    # The scalar loop skips o == s; a masked 0.0 in its place is
    # bitwise-neutral in the left-to-right accumulation below.
    np.fill_diagonal(terms, 0.0)
    # Row-wise cumulative sum = the scalar `overlap += ...` order exactly
    # (sequential left-to-right, never numpy's pairwise np.sum).
    overlaps = np.cumsum(terms, axis=1)[:, -1]
    infidelities = np.minimum(
        1.0, base_infidelity + crosstalk_infidelity * overlaps
    )
    return tuple((1.0 - infidelities).tolist())


class PredictedFidelityMixin:
    """Shared predicted-fidelity surface of every serving backend.

    Concrete backends provide ``_window_offsets(batch_size)`` — the same
    timing model ``run_window`` uses, as ``(interval, total_layers,
    start_offsets, finish_offsets)`` — and ``_infidelity_bounds(parameters)``
    returning the ``(base, crosstalk)`` pair of their architecture under a
    given noise model (encoded variants pass logical error rates through
    the same hook).

    Predictions are memoized at two levels.  The instance memo
    (``_predicted_fidelity_cache``) keeps hot-path lookups a dict hit; the
    process-wide :class:`~repro.schedule_cache.ScheduleCacheRegistry`
    shares the derived per-occupancy vectors across every replica of the
    same configuration — keyed ``(arch, capacity, occupancy, distance)``
    plus the backend's :meth:`_prediction_profile` — so autoscaled
    replicas and forked workers inherit warm predictions instead of
    re-deriving them.  Backends whose profile is ``None`` (duck-typed
    stand-ins without a registry identity) fall back to the instance memo
    alone.
    """

    #: Noise model the predictions are evaluated at (set by subclasses).
    parameters: HardwareParameters = DEFAULT_PARAMETERS

    def _window_offsets(
        self, batch_size: int
    ) -> tuple[int, float, tuple[float, ...], tuple[float, ...]]:
        raise NotImplementedError

    def _infidelity_bounds(
        self, parameters: HardwareParameters
    ) -> tuple[float, float]:
        raise NotImplementedError

    def _prediction_profile(
        self,
    ) -> tuple[str, int, int, Hashable] | None:
        """Registry identity ``(arch, capacity, distance, extra)`` of this
        backend's predictions, or ``None`` to keep them instance-local.

        Together with the window occupancy the profile must *uniquely
        determine* the prediction: ``extra`` carries everything beyond the
        named dimensions the offsets and bounds are computed from (the
        noise parameters, structural counts like pages or copies).
        Predictions never depend on the classical memory contents, so a
        ``write_memory`` cannot stale a shared vector — write-invalidation
        only needs to drop the per-instance memos
        (:meth:`invalidate_predictions`).
        """
        return None

    def _compute_window_fidelities(self, batch_size: int) -> tuple[float, ...]:
        """Derive one window's per-slot predictions (uncached)."""
        _, _, starts, finishes = self._window_offsets(batch_size)
        base, crosstalk = self._infidelity_bounds(self.parameters)
        return pipelined_fidelities(base, crosstalk, starts, finishes)

    def predicted_window_fidelities(self, batch_size: int = 1) -> tuple[float, ...]:
        """Analytic per-slot fidelity of a window of ``batch_size`` queries."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        cache = self.__dict__.setdefault("_predicted_fidelity_cache", {})
        fidelities = cache.get(batch_size)
        if fidelities is None:
            profile = self._prediction_profile()
            if profile is None:
                fidelities = self._compute_window_fidelities(batch_size)
            else:
                arch, capacity, distance, extra = profile
                fidelities = default_registry().fidelity_vector(
                    arch,
                    capacity,
                    batch_size,
                    self._make_window_fidelities,
                    distance=distance,
                    extra=extra,
                )
            cache[batch_size] = fidelities
        return fidelities

    def _make_window_fidelities(self, batch_size: int) -> tuple[float, ...]:
        """Registry factory hook (bound method, called on a cache miss)."""
        return self._compute_window_fidelities(batch_size)

    def timing_window(self, batch_size: int) -> WindowResult:
        """Memoized timing-only :class:`WindowResult` for one occupancy.

        Non-functional windows are pure schedule evaluations — offsets and
        predicted fidelities depend only on the occupancy — so the serving
        hot path's ``run_window(..., functional=False)`` collapses to one
        dict hit per window.  Invalidated together with the prediction
        memos (:meth:`invalidate_predictions`).
        """
        cache = self.__dict__.setdefault("_timing_window_cache", {})
        result = cache.get(batch_size)
        if result is None:
            predicted = self.predicted_window_fidelities(batch_size)
            interval, total, starts, finishes = self._window_offsets(batch_size)
            result = WindowResult(
                interval=interval,
                total_layers=total,
                start_offsets=starts,
                finish_offsets=finishes,
                outputs=(None,) * batch_size,
                fidelities=predicted,
                predicted_fidelities=predicted,
            )
            cache[batch_size] = result
        return result

    def predicted_query_fidelity(self) -> float:
        """Analytic fidelity of a lone query (the Sec. 8.1 / Table 3 bound)."""
        return self.predicted_window_fidelities(1)[0]

    def invalidate_predictions(self) -> None:
        """Drop memoized fidelity predictions and timing windows.

        Must be called by any mutation of the state predictions are
        computed from (the underlying memory image / timing model), so a
        stale window shape is never served — the pairing simlint's SIM003
        enforces.
        """
        self.__dict__.pop("_predicted_fidelity_cache", None)
        self.__dict__.pop("_timing_window_cache", None)
