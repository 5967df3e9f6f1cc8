"""Every entry that takes a functional reads its name through one resolver:
"ehr", "lehr" or "L", "vehr" or "V", in any case, give bitwise the result of
the canonical name, and anything else raises ``ValueError``."""

import dataclasses

import numpy as np
import pytest

from regge3 import cli, curvature, solve
from regge3.complexes import double_tetrahedron
from regge3.conformal import ConformalClass

DT = double_tetrahedron()
METRIC = np.array([1.0, 1.02, 0.99, 1.0, 1.01, 0.98])
CLASS = ConformalClass(DT, METRIC)
F0 = np.array([0.1, -0.05, 0.0, -0.05])

SPELLINGS = {"ehr": ["EHR", "Ehr"], "lehr": ["LEHR", "L", "l"], "vehr": ["VEHR", "V", "v"]}


def find_einstein(which):
    args = cli.build_parser().parse_args(
        ["find-einstein", "--lengths", ",".join(map(str, METRIC)), "--max-iters", "30"])
    args.which = which
    return cli.cmd_find_einstein(args)


#: entry -> (call with a functional name, whether EHR is among its functionals)
ENTRIES = {
    "grad_lengths": (lambda w: curvature.grad_lengths(DT, METRIC, w), True),
    "grad_conformal": (lambda w: curvature.grad_conformal(DT, METRIC, w), True),
    "einstein_residual": (lambda w: curvature.einstein_residual(DT, METRIC, w), True),
    "csc_residual": (lambda w: curvature.csc_residual(DT, METRIC, w), True),
    "conformal_hessian": (lambda w: curvature.functionals(DT, METRIC).conformal_hessian(w),
                          True),
    "csc_jacobian": (lambda w: curvature.functionals(DT, METRIC).csc_jacobian(w), True),
    "hessian_fd_lengths": (lambda w: curvature.hessian_fd_lengths(DT, METRIC, w, False), True),
    "conformal_hessian_fd": (lambda w: curvature.conformal_hessian_fd(DT, METRIC, w, False),
                             True),
    "descend_lengths": (lambda w: solve.descend_lengths(DT, w, METRIC, max_iter=20), True),
    "descend_conformal": (lambda w: solve.descend_conformal(CLASS, w, F0, max_iter=20), True),
    "solve_csc": (lambda w: solve.solve_csc(CLASS, w, F0, max_iter=20), True),
    "yamabe_constant_estimate": (
        lambda w: solve.yamabe_constant_estimate(CLASS, w, starts=2, max_iter=20), False),
    "cli_find_einstein": (find_einstein, False),
}


def bits(x):
    """A comparable image of a result that tells apart any two bit patterns."""
    if isinstance(x, (np.ndarray, float)):
        return np.asarray(x).dtype.str, np.shape(x), np.asarray(x).tobytes()
    if isinstance(x, (tuple, list)):
        return tuple(bits(v) for v in x)
    if dataclasses.is_dataclass(x):
        return tuple((f.name, bits(getattr(x, f.name))) for f in dataclasses.fields(x))
    return x


def outcome(entry, which, capsys):
    """The bits of the entry's result and what it printed."""
    result = bits(ENTRIES[entry][0](which))
    return result, capsys.readouterr().out


CASES = [pytest.param(entry, name, spelling, id=f"{entry}-{spelling}")
         for entry, (_, takes_ehr) in ENTRIES.items()
         for name, spellings in SPELLINGS.items() if takes_ehr or name != "ehr"
         for spelling in spellings]


@pytest.mark.parametrize("entry, name, spelling", CASES)
def test_every_spelling_gives_the_canonical_result(entry, name, spelling, capsys):
    expected = outcome(entry, name, capsys)
    assert outcome(entry, spelling, capsys) == expected


@pytest.mark.parametrize("entry", ENTRIES)
def test_unknown_name_rejected(entry):
    with pytest.raises(ValueError, match="unknown functional"):
        ENTRIES[entry][0]("nope")


def test_entries_without_ehr_reject_it():
    for entry, (call, takes_ehr) in ENTRIES.items():
        if not takes_ehr:
            for spelling in ["ehr"] + SPELLINGS["ehr"]:
                with pytest.raises(ValueError, match="unknown functional.*'L' or 'V'"):
                    call(spelling)


def test_yamabe_estimate_names_its_functional_by_letter():
    for name, letter in (("lehr", "L"), ("v", "V")):
        assert solve.yamabe_constant_estimate(CLASS, name, starts=1, max_iter=5).which == letter
