"""Classifier: round-trips over the generator grid, invariance, balance."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from klsf.zpset import ZpSet, holes, min_ap_cover
from klsf.vecset import (
    Decomposition, Params, VecSet, decompose, decompositions_2d, apply_automorphism, mat_det,
)
from klsf.classify import balance_deviation, check_balance_bound, classify, weight_scan
from klsf.constructions import (
    CuboidSpec, TypeSpec, gen_cuboid, gen_type, reference_specs, type1_a_values,
)


def test_classify_1d_examples():
    rep = classify(VecSet.from_zpset(ZpSet.interval(23, 5, 5)), 3, 1)
    assert rep.label == "type1" and rep.witness["spec"].a == 5
    rep2 = classify(VecSet.from_zpset(ZpSet(11, [4, 5, 6])), 2, 1)
    assert rep2.label == "trivial"
    rep3 = classify(VecSet.from_zpset(ZpSet(11, [1, 2, 4])), 2, 1)
    assert rep3.label == "not-sum-free"
    t3 = gen_type(TypeSpec("type3", Params(3, 2, 23, 1)))
    assert classify(t3, 3, 2).label == "type3"


def test_classify_rz_interval_also_type1():
    rep = classify(VecSet.from_zpset(ZpSet(11, [3, 4, 5])), 2, 1)
    assert rep.label == "type1"
    assert any("rz" in n for n in rep.notes)


def test_classify_witness_regenerates_1d():
    rep = classify(VecSet.from_zpset(ZpSet(11, [2, 7, 10])), 2, 1)
    assert rep.label == "type1"
    from klsf.zpset import dilate

    regen = dilate(gen_type(rep.witness["spec"]).to_zpset(), rep.witness["dilation_from_generator"])
    assert regen == ZpSet(11, [2, 7, 10])


GRID_SPECS = [
    TypeSpec("type1", Params(3, 1, 23, 2), a=5),
    TypeSpec("type2", Params(3, 1, 23, 2), vbasis=()),
    TypeSpec("type5", Params(3, 1, 23, 2), s=1, pset=((1,),)),
    TypeSpec("type5", Params(3, 1, 19, 2), s=1, pset=((2,), (5,))),
    TypeSpec("type3", Params(3, 2, 23, 2)),
    TypeSpec("type4", Params(3, 2, 23, 2), vbasis=()),
    TypeSpec("type3", Params(4, 1, 23, 2)),
    TypeSpec("type4", Params(4, 1, 23, 2), vbasis=()),
    TypeSpec("rz", Params(2, 1, 17, 2), s=1, pset=((1,),)),
    TypeSpec("rz", Params(2, 1, 23, 2), s=1, pset=((2,), (7,))),
]


@pytest.mark.parametrize("spec", GRID_SPECS, ids=lambda s: f"{s.which}-{s.params.p}")
def test_classify_roundtrip_2d(spec):
    out = gen_type(spec)
    rep = classify(out, spec.params.k, spec.params.l)
    assert rep.label == spec.which
    # witness regenerates the set exactly
    matrix = rep.witness["matrix"]
    assert apply_automorphism(out, [list(r) for r in matrix]) == gen_type(rep.witness["spec"])


def test_classify_roundtrip_1d_grid():
    for p in (11, 17, 23):
        params = Params(2, 1, p, 1)
        rep = classify(gen_type(TypeSpec("rz", params, s=0, pset=())), 2, 1)
        assert rep.label in ("type1", "rz")
    for k, l, p in ((3, 1, 23), (3, 2, 23), (4, 1, 23)):
        params = Params(k, l, p, 1)
        for a in type1_a_values(params):
            rep = classify(gen_type(TypeSpec("type1", params, a=a)), k, l)
            assert rep.label == "type1"


def test_small_m_degeneracies_are_reported_honestly():
    # Below the m >= 5 distinctness threshold structures can collapse: at
    # (4,1,13), m = 2, the two-point type-3 support is an AP and dilates onto
    # the type-1 interval, and one type-1 interval embeds into the extremal
    # cuboid outright.  The classifier must never fake a nontrivial label.
    params = Params(4, 1, 13, 2)
    rep3 = classify(gen_type(TypeSpec("type3", params)), 4, 1)
    assert rep3.label == "type1" and "also matches type3" in rep3.notes
    from klsf.constructions import nontriviality_check

    for a in type1_a_values(Params(4, 1, 13, 1)):
        out = gen_type(TypeSpec("type1", Params(4, 1, 13, 1), a=a))
        rep = classify(out, 4, 1)
        verdict = nontriviality_check(out, Params(4, 1, 13, 1))
        assert rep.label == ("type1" if verdict.status == "nontrivial" else "trivial")


def test_classify_isomorphism_invariance():
    rng = random.Random(71)

    def rand_gl2(p):
        while True:
            m = [[rng.randrange(p) for _ in range(2)] for _ in range(2)]
            if mat_det(m, p):
                return m

    for spec in [
        TypeSpec("type2", Params(3, 1, 23, 2), vbasis=()),
        TypeSpec("type4", Params(3, 2, 23, 2), vbasis=()),
        TypeSpec("type5", Params(3, 1, 23, 2), s=1, pset=((1,), (5,))),
        TypeSpec("rz", Params(2, 1, 17, 2), s=1, pset=((3,),)),
    ]:
        out = gen_type(spec)
        for _ in range(3):
            img = apply_automorphism(out, rand_gl2(spec.params.p))
            assert classify(img, spec.params.k, spec.params.l).label == spec.which


def test_classify_1d_dilation_invariance():
    from klsf.zpset import dilate

    base = ZpSet.interval(23, 5, 5)
    labels = {classify(VecSet.from_zpset(dilate(base, c)), 3, 1).label for c in range(1, 23)}
    assert labels == {"type1"}


def test_classify_cuboid_subsets_trivial():
    cub = gen_cuboid(CuboidSpec(Params(2, 1, 11, 2), 0))
    rep = classify(cub, 2, 1)
    assert rep.label == "trivial"
    sub = VecSet(11, 2, [v for v in cub.vectors() if v != (4, 0)])
    assert classify(sub, 2, 1).label == "trivial"


def test_weight_scan_examples():
    cub = gen_cuboid(CuboidSpec(Params(2, 1, 11, 2), 0))
    rows = weight_scan(cub, 2, 1)
    omegas = sorted(r.omega for r in rows)
    assert omegas == [4] + [11] * 11
    flagged = [r for r in rows if r.small_weight]
    assert len(flagged) == 1
    assert flagged[0].cm_cover.length == 3 and flagged[0].cm_holes == ()
    t2 = gen_type(TypeSpec("type2", Params(3, 1, 23, 2), vbasis=()))
    rows2 = weight_scan(t2, 3, 1)
    assert sorted(r.omega for r in rows2).count(6) == 1  # m+1 on the natural axis
    dense = VecSet.full(11, 2)
    assert all(not r.small_weight and r.omega == 11 for r in weight_scan(dense, 2, 1))


def test_balance_examples():
    natural = Decomposition(11, 2, (1, 0), ((0, 1),))
    cub = gen_cuboid(CuboidSpec(Params(2, 1, 11, 2), 0))
    prof = decompose(cub, natural)
    assert balance_deviation(prof, 11) == (11 - 3 - 1) * 11
    assert balance_deviation(decompose(VecSet.full(11, 2), natural), 11) == 0
    chk = check_balance_bound(cub, 2, 1, prof)
    assert not chk.applicable  # omega = m+1, far below p - theta
    assert chk.holds


def test_classify_fuzz_sound_labels_1d():
    # every sum-free set gets a label; "trivial" claims are re-verified with
    # the returned witness, so no label can be a false classification
    from itertools import combinations

    from klsf.zpset import ZpSet as Z, dilate, is_kl_sumfree
    from klsf.constructions import extremal_interval

    for p, k, l in ((11, 2, 1), (11, 3, 1), (13, 3, 2)):
        params = Params(k, l, p, 1)
        for size in (1, 2, 3):
            for combo in combinations(range(1, p), size):
                a = Z(p, combo)
                if not is_kl_sumfree(a, k, l):
                    assert classify(VecSet.from_zpset(a), k, l).label == "not-sum-free"
                    continue
                rep = classify(VecSet.from_zpset(a), k, l)
                assert rep.label in ("trivial", "type1", "type3", "rz", "nontrivial-unknown")
                if rep.label == "trivial":
                    w = rep.witness
                    assert dilate(a, w["dilation"]).issubset(extremal_interval(params, w["j"]))


def test_classify_outside_lambda_window_raises():
    from klsf.constructions import ParameterError

    with pytest.raises(ParameterError, match="taxonomy needs lam"):
        classify(VecSet.from_zpset(ZpSet(13, [1])), 3, 1)  # lam = 3 > k+l-3


def test_weight_dichotomy_on_generator_outputs():
    # sum-free sets of size >= m*p^(n-1) never land between the small-weight
    # window [m, m+2] and the near-full window (p - theta, p]
    from klsf.vecset import decompositions_2d, decompose

    specs = [
        TypeSpec("type1", Params(3, 1, 23, 2), a=5),
        TypeSpec("type2", Params(3, 1, 23, 2), vbasis=()),
        TypeSpec("type5", Params(3, 1, 23, 2), s=1, pset=((1,),)),
        TypeSpec("type3", Params(3, 2, 23, 2)),
        TypeSpec("type4", Params(4, 1, 23, 2), vbasis=()),
        TypeSpec("rz", Params(2, 1, 17, 2), s=1, pset=((1,),)),
    ]
    for spec in specs:
        out = gen_type(spec)
        params = spec.params
        for dec in decompositions_2d(params.p):
            w = decompose(out, dec).weight
            assert w <= params.m + 2 or w > params.p - params.theta, (spec.which, w)


def test_balance_bound_on_big_weight_decompositions():
    # generator outputs seen through a non-natural axis have omega = p > p - theta
    for spec in [TypeSpec("type5", Params(3, 1, 19, 2), s=1, pset=((1,),)),
                 TypeSpec("rz", Params(2, 1, 17, 2), s=1, pset=((1,),))]:
        out = gen_type(spec)
        p = spec.params.p
        skew = Decomposition(p, 2, (1, 0), ((1, 1),))
        prof = decompose(out, skew)
        chk = check_balance_bound(out, spec.params.k, spec.params.l, prof)
        if chk.applicable:
            assert chk.holds


@st.composite
def gl2(draw, p):
    m = draw(st.lists(st.integers(0, p - 1), min_size=4, max_size=4)
             .filter(lambda e: (e[0] * e[3] - e[1] * e[2]) % p))
    return [m[:2], m[2:]]


def reference_weight_scan(a, k, l):
    """weight_scan rebuilt from one full decomposition per line."""
    m = Params(k, l, a.p, 2).m
    rows = []
    for line, dec in enumerate(decompositions_2d(a.p)):
        prof = decompose(a, dec)
        flag = m <= prof.weight <= m + 2
        cover = hole_list = None
        if flag:
            cm = prof.prefix(m)
            cover = min_ap_cover(cm)
            hole_list = tuple(holes(cm, cover))
        rows.append((line, dec.v, dec.kbasis, prof.weight, tuple(prof.beta[:4]), flag,
                     cover, hole_list))
    return rows


@st.composite
def generated_images(draw):
    """A cuboid or structure output in F_p^2 (p <= 29) under a random automorphism."""
    k, l, p = draw(st.sampled_from([(k, l, p) for k, l in ((2, 1), (3, 1), (3, 2), (4, 1))
                                    for p in (7, 11, 13, 17, 19, 23, 29)
                                    if Params(k, l, p, 2).lambda_in_range()]))
    kind, _, spec = draw(st.sampled_from(reference_specs(Params(k, l, p, 2))))
    out = gen_cuboid(spec) if kind == "cuboid" else gen_type(spec)
    return k, l, apply_automorphism(out, draw(gl2(p)))


@given(generated_images())
def test_weight_scan_matches_per_line_reference(case):
    k, l, a = case
    rows = weight_scan(a, k, l)
    got = [(r.line, r.v, r.kbasis, r.omega, r.beta_head, r.small_weight, r.cm_cover, r.cm_holes)
           for r in rows]
    assert got == reference_weight_scan(a, k, l)
    assert any(r.small_weight for r in rows)


def nonzero_free_pset(h):
    """Nonempty P in F_p^1 with 0 not in hP (h = 3 for type 5, 2 for rz)."""
    def ok(p, xs):
        sums = {0}
        for _ in range(h):
            sums = {(s + x) % p for s in sums for x in xs}
        return 0 not in sums

    return lambda p: st.sets(st.integers(1, p - 1), min_size=1, max_size=3).filter(
        lambda xs: ok(p, xs)).map(lambda xs: tuple((x,) for x in sorted(xs)))


@st.composite
def structure_specs(draw):
    """A type1/type2/type5/rz spec in F_p^2 with p <= 29 inside its window."""
    kind = draw(st.sampled_from(("type1", "type2", "type5", "rz")))
    if kind == "type5":
        params = Params(3, 1, draw(st.sampled_from((11, 19, 23))), 2)
        return TypeSpec("type5", params, s=1, pset=draw(nonzero_free_pset(3)(params.p)))
    if kind == "rz":
        params = Params(2, 1, draw(st.sampled_from((11, 17, 23, 29))), 2)
        return TypeSpec("rz", params, s=1, pset=draw(nonzero_free_pset(2)(params.p)))
    k, l, p = draw(st.sampled_from([(k, l, p) for k, l in ((2, 1), (3, 1), (4, 1))
                                    for p in (11, 13, 17, 19, 23, 29)
                                    if Params(k, l, p, 2).lambda_in_range()
                                    and Params(k, l, p, 2).m >= 2]))
    params = Params(k, l, p, 2)
    if kind == "type1":
        return TypeSpec("type1", params, a=draw(st.sampled_from(type1_a_values(params))))
    return TypeSpec("type2", params, vbasis=())


@given(st.data())
def test_classify_label_and_witness_invariant_under_automorphisms(data):
    spec = data.draw(structure_specs())
    pr = spec.params
    image = apply_automorphism(gen_type(spec), data.draw(gl2(pr.p)))
    rep = classify(image, pr.k, pr.l)
    if rep.label == "trivial" and spec.which == "type1" and pr.m == 2:
        # At m = 2 a type-1 interval can dilate into an extremal interval
        # ((3,1,11) and (4,1,13) here); the label must then not depend on
        # the automorphism either.
        assert classify(gen_type(spec), pr.k, pr.l).label == "trivial"
        return
    assert rep.label == spec.which
    matrix = [list(r) for r in rep.witness["matrix"]]
    assert apply_automorphism(image, matrix) == gen_type(rep.witness["spec"])


def test_part_size_check_survives_optimize():
    # The row-sum check on the line part-size matrix is an explicit raise:
    # with one line functional lost it fires under python -O, and the CLI
    # maps it to exit code 2.
    script = """
import sys
from klsf import cli, vecset
from klsf.classify import classify
from klsf.constructions import GeneratorCheckError, TypeSpec, gen_type
from klsf.vecset import Params

if not sys.flags.optimize:
    sys.exit("not running under -O")
full = vecset._line_functionals
vecset._line_functionals = lambda p: full(p)[:-1]
out = gen_type(TypeSpec("type5", Params(3, 1, 11, 2), s=1, pset=((1,),)))
try:
    classify(out, 3, 1)
    print("no error")
except GeneratorCheckError as exc:
    print("raised:", exc)
print("exit", cli.main(["classify", "--k", "2", "--l", "1", "--set", "p=11;n=2;{(3,0),(4,1)}"]))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0].startswith("raised:") and "implementation bug" in lines[0]
    assert lines[-1] == "exit 2"
    assert "check failed" in run.stderr
