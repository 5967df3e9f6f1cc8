import numpy as np
import pytest

from regge3 import geometry, solve


@pytest.fixture
def kernel_calls(monkeypatch):
    """Shapes of the batches handed to the per-tet kernel, one per call."""
    calls = []
    kernel = geometry.tet_geometry

    def counted(lengths):
        calls.append(np.shape(lengths))
        return kernel(lengths)

    monkeypatch.setattr(geometry, "tet_geometry", counted)
    return calls


@pytest.fixture
def guard_calls(monkeypatch):
    """Outcomes of the guards handed to ``solve.descend``, one per candidate seen."""
    outcomes = []
    descend = solve.descend

    def counted(evaluate, guard, x0, **kwargs):
        def counted_guard(x):
            outcomes.append(guard(x))
            return outcomes[-1]

        return descend(evaluate, counted_guard, x0, **kwargs)

    monkeypatch.setattr(solve, "descend", counted)
    return outcomes
