"""Acceptance criteria A1-A11, one test each, printing one line per criterion.

Findings (extra orbits at small m, covering violations in the open regime)
are printed but only the criterion's own pass/fail assertions can fail the
suite.  Stated time budgets are asserted where the criterion declares one.
"""

import pytest

from klsf import criteria
from klsf.criteria import run_criterion
from klsf.constructions import TypeSpec
from klsf.modmath import GeneratorCheckError
from klsf.search import enumerate_max
from klsf.vecset import Params, VecSet

TIME_BUDGETS_S = {"A1": 30, "A2": 300, "A5": 600}


def _run(cid):
    res = run_criterion(cid)
    print()
    print(res.summary())
    for line in res.details:
        print("   " + line)
    for line in res.findings:
        print("   FINDING: " + line)
    assert res.passed, f"{cid} failed: {res.findings}"
    budget = TIME_BUDGETS_S.get(cid)
    if budget is not None:
        assert res.elapsed < budget, f"{cid} exceeded its {budget}s budget"
    return res


def test_a1_largest_sumfree_orbits():
    _run("A1")


def test_a2_extremal_cuboids():
    _run("A2")


def test_a3_generator_soundness():
    res = _run("A3")
    assert any("275 grid emissions" in d for d in res.details)
    assert any("p=1019" in d for d in res.details)


def test_a4_type_distinctness_certificates():
    _run("A4")


def test_a4_grid_check_is_not_an_assert(monkeypatch):
    # A grid point with m < 5 is refused by a check that also runs under -O.
    monkeypatch.setattr(criteria, "A4_GRID", ((3, 1, 13),))
    with pytest.raises(GeneratorCheckError, match="m=2 < 5"):
        criteria.run_a4()


def test_a5_second_level():
    _run("A5")


def test_a6_ap_lemmas_exhaustive():
    res = _run("A6")
    assert not res.findings  # zero counterexamples


def test_a7_sumset_theorem_properties():
    res = _run("A7")
    assert not res.findings  # zero violations


def test_a8_spectral_lemma():
    res = _run("A8")
    assert not res.findings


def test_a8_reads_the_other_criteria_grids(monkeypatch):
    # A8 checks the sets of A1, A2, A3 and A5 by reading their grids, so a
    # change to A2's grid changes A8's set list.
    small = TypeSpec("type5", Params(3, 1, 23, 2), s=1, pset=((1,),))
    for name, value in (("A1_GRID", ()), ("A3_GRID", ()), ("A5_GRID", ()), ("A3_SPOT", small)):
        monkeypatch.setattr(criteria, name, value)
    lists = {}
    for params in (Params(3, 1, 23), Params(4, 1, 29)):
        monkeypatch.setattr(criteria, "A2_GRID", (params,))
        sets = criteria._a8_sets()
        orbits = enumerate_max(params).extremal_orbits
        assert [tag for tag, *_ in sets] == (
            [f"A2 orbit ({params.k},{params.l},{params.p})"] * len(orbits)
            + ["A3 type-5 spot check p=1019"])
        assert [vec for _, vec, _, _ in sets[:-1]] == [VecSet.from_zpset(o) for o in orbits]
        lists[params] = sets
    assert lists[Params(3, 1, 23)] != lists[Params(4, 1, 29)]


def test_a9_plancherel_convolution():
    res = _run("A9")
    assert not res.findings


def test_a10_covering_lab():
    res = _run("A10")
    assert not res.findings  # zero violations at tau = 0.05 / sampled run


def test_a11_equation_witnesses():
    res = _run("A11")
    assert len(res.details) == 4
