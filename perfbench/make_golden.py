"""Regenerate golden.json from the regge3 sources next to this directory.

    python3 perfbench/make_golden.py

Golden values pin the outputs of requests whose inputs do not depend on
the seed: the diagonal-family sweep rows at the pinned parameters and the
(scale-invariant) conformal LEHR spectrum of the uniform 600-cell.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from regge3 import complexes, curvature, solve  # noqa: E402

T_PINNED = (1.0, 1.3)


def main():
    dt = complexes.double_tetrahedron()
    rows = {}
    for t in T_PINNED:
        table = solve.sweep_family(dt, solve.diagonal_family, [t], solve.sweep_quantities())
        row = dict(zip(table.columns, table.rows[0]))
        rows[repr(t)] = {k: v for k, v in row.items() if k not in ("t", "admissible")}
    c600 = complexes.six_hundred_cell()
    H = curvature.lehr_conformal_hessian_csc(c600, np.ones(c600.num_edges))
    golden = {"sweep_rows": rows,
              "cell600_conformal_lehr_spectrum": np.linalg.eigh(H)[0].tolist()}
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
