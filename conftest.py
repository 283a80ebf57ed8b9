"""Fixtures shared by the test suite and the benchmark gates."""

from __future__ import annotations

import pytest

from repro.core import engine, strategies


@pytest.fixture
def on_reference(monkeypatch):
    """Wrap a callable so its ``jobs=1`` engines run the reference loops.

    Inside a wrapped call every chunk goes straight to
    :func:`repro.core.engine.evaluate_range` instead of the vector
    kernel, and the funnel scores with
    :func:`repro.core.strategies.reference_analytical_scores`.
    Differential tests compare against these scalar paths; ratio gates
    that measure something other than the kernel keep them as their
    denominator, so a microsecond-level fixed cost cannot flake their
    bounds.
    """
    def wrap(function):
        def run(*args, **kwargs):
            with monkeypatch.context() as patch:
                patch.setattr(engine, "ChunkEvaluator",
                              lambda context, cache, fallback: fallback)
                patch.setattr(strategies, "analytical_scores",
                              strategies.reference_analytical_scores)
                return function(*args, **kwargs)
        return run
    return wrap
