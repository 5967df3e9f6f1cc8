import os

# before numpy is imported: one BLAS thread, so a threaded LAPACK solve (the 600-cell's
# 121x121 Newton system) rounds the same on every machine, as perfbench/run.py runs
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from regge3 import curvature, geometry  # noqa: E402


@pytest.fixture
def kernel_calls(monkeypatch):
    """Shapes of the batches handed to the per-tet kernel, one per call, counted from an
    empty :func:`curvature.functionals` cache."""
    calls = []
    kernel = geometry.tet_geometry

    def counted(lengths):
        calls.append(np.shape(lengths))
        return kernel(lengths)

    curvature._live = None
    monkeypatch.setattr(geometry, "tet_geometry", counted)
    return calls
