"""``tools/digest.py``: two runs of the same code print the same digests, and a change of one
output by one ulp moves its group's digest and no other."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "digest.py"


@pytest.fixture(scope="module")
def digest():
    spec = importlib.util.spec_from_file_location("digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parse_seeds(digest):
    assert digest.parse_seeds("1-3,7") == [1, 2, 3, 7]
    assert digest.parse_seeds("200") == [200]


def test_two_runs_agree_and_one_ulp_moves_its_group(digest, monkeypatch):
    seen = []
    first = digest.digests([1], lambda group, name, sha: seen.append((group, name)))
    assert list(first) == list(digest.GROUPS)
    assert digest.digests([1]) == first
    # every request of the seed's workloads, and the other groups' items
    assert sum(group == "dt" for group, _ in seen) == 88
    assert ("criteria", "criterion-11") in seen and ("yamabe", "class-11:V") in seen

    execute, nudged = digest._execute, []

    def one_ulp(ctx, req):    # the first sweep row's LEHR, one ulp up
        out = execute(ctx, req)
        if req["kind"] == "sweep_row" and not nudged:
            nudged.append(out["lehr"])
            out["lehr"] = float(np.nextafter(out["lehr"], np.inf))
        return out

    monkeypatch.setattr(digest, "_execute", one_ulp)
    moved = digest.digests([1])
    assert nudged and moved["dt"] != first["dt"]
    assert {g: s for g, s in moved.items() if g != "dt"} == \
        {g: s for g, s in first.items() if g != "dt"}
