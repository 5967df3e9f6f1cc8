"""Acceptance suite: every reference criterion at its stated tolerance.

One test (and one printed pass/fail line) per row.  Each criterion is
evaluated lazily, once, by the first of its rows to run, so a criterion
that raises fails its own rows only.  Running
``pytest -v tests/test_acceptance.py`` or the command line
``regge3 reproduce --all`` shows the same rows.
"""

import numpy as np
import pytest

from regge3 import complexes, curvature, geometry, reproduce

#: row keys of each criterion, in ``reproduce.ALL_CRITERIA`` order
ROW_KEYS = (("1a", "1b"), ("2a", "2b"), ("3a", "3b"), ("4a", "4b", "4c"),
            ("5a", "5b", "5c"), ("6a", "6b", "6c"), ("7a", "7b", "7c"),
            ("8a", "8b", "8c", "8d", "8e", "8f", "8g"), ("9",),
            ("10a", "10b", "10c", "10d"), ("11",))
ROWS = [(number, key) for number, keys in enumerate(ROW_KEYS, 1) for key in keys]


@pytest.fixture(scope="module")
def criterion_rows():
    """Rows of criterion ``number`` by key; evaluated on first use, and an
    exception raised by the criterion is kept and re-raised for each row."""
    results = {}

    def rows(number):
        if number not in results:
            try:
                results[number] = {r.key: r for r in reproduce.ALL_CRITERIA[number - 1]()}
            except Exception as exc:
                results[number] = exc
        if isinstance(results[number], Exception):
            raise results[number]
        return results[number]

    return rows


@pytest.mark.parametrize("number,key", ROWS,
                         ids=[f"{k}-{reproduce._TAGS[str(n)]}" for n, k in ROWS])
def test_criterion(criterion_rows, number, key):
    rows = criterion_rows(number)
    assert sorted(rows) == sorted(ROW_KEYS[number - 1])
    row = rows[key]
    status = "pass" if row.passed else "FAIL"
    print(f"[{status}] {row.key} {row.tag}: {row.description} "
          f"(expected {row.expected}, actual {row.actual}, tol {row.tolerance})")
    assert row.passed, (f"{row.key} {row.description}: expected {row.expected}, "
                        f"actual {row.actual}, tolerance {row.tolerance}")


def test_every_criterion_group_present():
    keys = {key.rstrip("abcdefg") for _, key in ROWS}
    assert keys == {str(i) for i in range(1, 12)}
    assert len(ROW_KEYS) == len(reproduce.ALL_CRITERIA)


def test_criterion_10_reads_one_report(kernel_calls):
    # the edge curvatures and both csc residuals of the 600-cell
    assert all(r.passed for r in reproduce.criterion_10_six_hundred_cell())
    assert kernel_calls == [(600, 6)]


def test_criterion_9_descends_in_lockstep(kernel_calls, monkeypatch):
    # 50 starts share at most one kernel call per round (3052 calls, one per candidate,
    # before lockstep rounds; 70, one per round of single candidates, before halving
    # ladders), and a rejected candidate is masked out before the kernel, which raises on none
    raised = []
    kernel = geometry.tet_geometry

    def watched(lengths):
        try:
            return kernel(lengths)
        except geometry.InadmissibleMetricError:
            raised.append(np.shape(lengths))
            raise

    monkeypatch.setattr(geometry, "tet_geometry", watched)
    assert all(r.passed for r in reproduce.criterion_9_uniqueness_evidence())
    assert len(kernel_calls) <= 21 and raised == []


#: kernel calls of each criterion at most, each the count it makes: criteria 6, 7 and 8
#: stack their independent metrics (102, 41 and 441 calls when each metric had its own),
#: criteria 3 and 4 find their crossings by Brent's method (26 and 27 calls by bisection)
KERNEL_CALL_BUDGET = {1: 1, 2: 1, 3: 9, 4: 11, 5: 9, 6: 1, 7: 1, 8: 13, 9: 21, 10: 1,
                      11: 48}


@pytest.mark.parametrize("number", sorted(KERNEL_CALL_BUDGET))
def test_criterion_kernel_call_budget(kernel_calls, number):
    assert all(r.passed for r in reproduce.ALL_CRITERIA[number - 1]())
    assert len(kernel_calls) <= KERNEL_CALL_BUDGET[number]


#: report constructions of each criterion whose metrics are stacks, from an empty
#: ``functionals`` cache: criteria 6, 7 and 8 read their stacks without a report per metric
#: (102, 41 and 141 reports when each metric had one); criterion 8's one report is the unit
#: 600-cell's, which criterion 10 reuses
REPORT_BUDGET = {6: 0, 7: 0, 8: 1}


@pytest.mark.parametrize("number", sorted(REPORT_BUDGET))
def test_criterion_report_budget(monkeypatch, number):
    built = []
    init = curvature.CurvatureReport.__init__

    def counted(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(curvature, "_live", None)
    monkeypatch.setattr(curvature.CurvatureReport, "__init__", counted)
    assert all(r.passed for r in reproduce.ALL_CRITERIA[number - 1]())
    assert len(built) == REPORT_BUDGET[number]


def test_criterion_9_tests_each_metric_once(kernel_calls, monkeypatch):
    # each round's stack of ladders is tested once, and its kernel call reuses that test,
    # so the only other tests are the start sampler's mask calls
    tests, masks, rounds = [], [], []
    tet_tests, admissible = geometry._tet_tests, geometry._admissible
    first_admissible = curvature._first_admissible

    def counted_tests(l, n):
        tests.append(np.shape(l))
        return tet_tests(l, n)

    def counted_mask(tets):
        masks.append(np.shape(tets))
        return admissible(tets)

    def counted_round(c, lengths, sizes):
        rounds.append(np.shape(lengths))
        return first_admissible(c, lengths, sizes)

    monkeypatch.setattr(geometry, "_tet_tests", counted_tests)
    monkeypatch.setattr(geometry, "_admissible", counted_mask)
    monkeypatch.setattr(curvature, "_first_admissible", counted_round)
    assert all(r.passed for r in reproduce.criterion_9_uniqueness_evidence())
    assert len(kernel_calls) <= len(rounds)
    assert len(tests) == len(rounds) + len(masks) and len(masks) <= 3


def counted_builds(monkeypatch):
    """The counts (V, E, F, T) of each ``Complex`` constructed from here on, in order."""
    builds = []
    init = complexes.Complex.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        builds.append(self.counts())

    monkeypatch.setattr(complexes.Complex, "__init__", counted)
    return builds


def test_one_600_cell_build_per_process(monkeypatch):
    # from empty holders, criteria 8 and 10 run twice build each complex once
    for name in ("double_tetrahedron", "six_hundred_cell"):
        monkeypatch.delitem(complexes._instances, name, raising=False)
    builds = counted_builds(monkeypatch)
    for criterion in (reproduce.criterion_8_property_suites,
                      reproduce.criterion_10_six_hundred_cell) * 2:
        assert all(r.passed for r in criterion())
    assert builds == [(4, 6, 4, 2), (120, 720, 1200, 600)]


def test_run_all_builds_no_complex_once_both_exist(monkeypatch):
    complexes.double_tetrahedron(), complexes.six_hundred_cell()
    builds = counted_builds(monkeypatch)
    assert all(r.passed for r in reproduce.run_all())
    assert builds == []


def test_criterion_2_reads_criterion_1s_report(kernel_calls):
    # both read the length Hessian of the one double tetrahedron at equal lengths
    assert all(r.passed for r in reproduce.criterion_1_lehr_hessian())
    assert len(kernel_calls) == 1
    assert all(r.passed for r in reproduce.criterion_2_vehr_hessian())
    assert len(kernel_calls) == 1
