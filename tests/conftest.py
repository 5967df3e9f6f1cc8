import os

# before numpy is imported: one BLAS thread, so a threaded LAPACK solve (the 600-cell's
# 121x121 Newton system) rounds the same on every machine, as perfbench/run.py runs
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from regge3 import curvature, geometry  # noqa: E402
from regge3.complexes import FACE_EDGES  # noqa: E402


@pytest.fixture
def kernel_calls(monkeypatch):
    """Shapes of the batches handed to the per-tet kernel, one per call, counted from an
    empty :func:`curvature.functionals` cache."""
    calls = []
    kernel = geometry._kernel

    def counted(lengths, *tests):
        calls.append(np.shape(lengths))
        return kernel(lengths, *tests)

    curvature._live = None
    monkeypatch.setattr(geometry, "_kernel", counted)
    return calls


@pytest.fixture
def inadmissible_kernel_inputs(monkeypatch):
    """Shapes of the batches handed to the per-tet kernel that hold a tet with a nonpositive
    face margin or CM3 <= 0, one per such call, by a test of the lengths of their own."""
    bad = []
    kernel, cayley_menger = geometry._kernel, geometry.cayley_menger

    def watched(lengths, *tests):
        with np.errstate(over="ignore", invalid="ignore"):
            sides = lengths[..., FACE_EDGES]
            margins = sides.sum(-1) - 2.0 * sides.max(-1)
            if not min(margins.min(initial=np.inf), cayley_menger(lengths).min(initial=np.inf)) > 0:
                bad.append(np.shape(lengths))
        return kernel(lengths, *tests)

    monkeypatch.setattr(geometry, "_kernel", watched)
    return bad
