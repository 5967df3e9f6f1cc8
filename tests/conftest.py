import numpy as np
import pytest

from regge3 import geometry


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

