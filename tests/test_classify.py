"""Classifier: round-trips over the generator grid, invariance, balance."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from klsf.zpset import ZpSet, dilate
from klsf.vecset import Params, VecSet, VecSetError, apply_automorphism, mat_det
from klsf.classify import (
    ClassReport, _classify_1d, _descriptors_2d, _match_descriptor_2d, classify,
)
from klsf.constructions import (
    P, TYPE_KINDS, CuboidSpec, TypeSpec, band_layout, gen_cuboid, gen_type, reference_specs,
    type1_a_values, type_support,
)
from klsf.modmath import mod_inverse, primes_in
from test_vecset import reference_line_parts, reference_line_profile


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


def rebuilt_classify_1d(zp, params):
    """`classify._classify_1d` with its support table rebuilt from
    `reference_specs` and `type_support` on every call, as the function did
    before the table was cached: the reference for the cached route."""
    p = params.p
    images = [dilate(zp, c).mask for c in range(1, p)]
    matches = []
    for kind, _, spec in reference_specs(params, TYPE_KINDS):
        target = type_support(spec).mask
        if target in images:
            matches.append((kind, spec, images.index(target) + 1))
    if not matches:
        return ClassReport("nontrivial-unknown", params,
                           notes=[f"size {len(zp)} vs m={params.m}; no generator matches"])
    matches.sort(key=lambda t: TYPE_KINDS.index(t[0]))
    kind, spec, s = matches[0]
    back = mod_inverse(s, p)
    assert dilate(gen_type(spec).to_zpset(), back) == zp
    notes = [f"also matches {k} (dilation {sv})" for k, _, sv in matches[1:]]
    return ClassReport(kind, params, {"spec": spec, "dilation_from_generator": back},
                       notes + list(spec.notes))


def test_classify_1d_table_matches_a_rebuild():
    # Dilates of every reference spec's support for k + l <= 8 and p <= 59:
    # the same label, witness (spec and dilation) and notes, "also matches"
    # lines included.  Five dilates per support keep the run short; the
    # dilation scan itself is the kernel's, checked in test_modmath.
    rng = random.Random(3)
    cases = seen = 0
    for k in range(2, 8):
        for l in range(1, k):
            for p in primes_in(3, 59):
                params = Params(k, l, p)
                if k + l > 8 or params.m < 1 or not params.lambda_in_range():
                    continue
                for _, _, spec in reference_specs(params, TYPE_KINDS):
                    support = type_support(spec)
                    for c in {1, p - 1, *rng.sample(range(2, p - 1), min(3, p - 3))}:
                        zp = dilate(support, c)
                        report = _classify_1d(zp, params)
                        assert report == rebuilt_classify_1d(zp, params), (k, l, p, spec, c)
                        seen += report.label != "nontrivial-unknown"
                        cases += 1
    assert cases > 1000 and seen == cases


def test_classify_cuboid_subsets_trivial():
    cub = gen_cuboid(CuboidSpec(Params(2, 1, 11, 2), 0))
    rep = classify(cub, 2, 1)
    assert rep.label == "trivial"
    sub = VecSet(11, 2, [v for v in cub.vectors() if v != (4, 0)])
    assert classify(sub, 2, 1).label == "trivial"


def deviation(parts, u):
    """The paper's balance deviation sum_i ||A_i| - u| over all p parts."""
    return sum(abs(len(x) - u) for x in parts)


def test_balance_examples():
    # along line 0: v = e0, K = span{e1}
    params = Params(2, 1, 11, 2)
    cub = gen_cuboid(CuboidSpec(params, 0))
    parts, support = reference_line_profile(cub, 0)
    assert deviation(parts, 11) == (11 - 3 - 1) * 11
    assert deviation(reference_line_profile(VecSet.full(11, 2), 0)[0], 11) == 0
    # omega = m+1, far below p - theta: outside the bound's hypotheses
    assert len(support) == params.m + 1 <= params.p - params.theta


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


def test_classify_refuses_n_above_2_whatever_the_set(capsys):
    # {1,2,3}e0 is not (2,1)-sum-free and {2,3}e0 is: both are refused on n alone
    from klsf import cli

    for xs in ((1, 2, 3), (2, 3)):
        a = VecSet(5, 3, [(x, 0, 0) for x in xs])
        with pytest.raises(VecSetError, match="only for n <= 2"):
            classify(a, 2, 1)
        lit = "p=5;n=3;{" + ",".join(f"({x},0,0)" for x in xs) + "}"
        assert cli.main(["classify", "--k", "2", "--l", "1", "--set", lit]) == 1
        assert "only for n <= 2" in capsys.readouterr().err


def test_weight_dichotomy_on_generator_outputs():
    # sum-free sets of size >= m*p^(n-1) never land between the small-weight
    # window [m, m+2] and the near-full window (p - theta, p]
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
        for line in range(params.p + 1):
            w = len(reference_line_profile(out, line)[1])
            assert w <= params.m + 2 or w > params.p - params.theta, (spec.which, w)


def test_balance_bound_on_big_weight_decompositions():
    # generator outputs seen through a non-natural axis have omega = p > p - theta,
    # so their deviation from the median part size |B_(p+1)/2| is at most
    # (2 + theta) * p (beta_i = |B_i| at n = 2)
    for spec in [TypeSpec("type5", Params(3, 1, 19, 2), s=1, pset=((1,),)),
                 TypeSpec("rz", Params(2, 1, 17, 2), s=1, pset=((1,),))]:
        out = gen_type(spec)
        params = spec.params
        p = params.p
        parts = reference_line_parts(out, (1, 0), (1, 1))
        sizes = sorted((len(x) for x in parts), reverse=True)
        assert sum(1 for x in parts if x) > p - params.theta and len(out) >= params.m * p
        assert deviation(parts, sizes[(p + 1) // 2 - 1]) <= (2 + params.theta) * p


@st.composite
def gl2(draw, p):
    m = draw(st.lists(st.integers(0, p - 1), min_size=4, max_size=4)
             .filter(lambda e: (e[0] * e[3] - e[1] * e[2]) % p))
    return [m[:2], m[2:]]


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


OPTIMIZED_CLASSIFY = """
import sys
from klsf import cli, vecset
from klsf.classify import classify
from klsf.constructions import GeneratorCheckError, TypeSpec, gen_type
from klsf.vecset import Params, format_vecset

if not sys.flags.optimize:
    sys.exit("not running under -O")
full = vecset.line_bases
{patch}
out = gen_type(TypeSpec("type5", Params(3, 1, 11, 2), s=1, pset=((1,),)))
try:
    classify(out, 3, 1)
    print("no error")
except GeneratorCheckError as exc:
    print("raised:", exc)
print("exit", cli.main(["classify", "--k", "3", "--l", "1", "--set", format_vecset(out)]))
"""


def assert_check_fires_under_optimize(patch):
    """Run OPTIMIZED_CLASSIFY with `patch` under python -O: classify raises
    the check and the CLI exits with code 2."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_CLASSIFY.format(patch=patch)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0].startswith("raised:") and "implementation bug" in lines[0]
    assert lines[-1] == "exit 2"
    assert "check failed" in run.stderr


def test_part_size_check_survives_optimize():
    # The row-sum check on the line part-size matrix is an explicit raise:
    # with one line lost from the line table it fires under python -O, and
    # the CLI maps it to exit code 2.
    assert_check_fires_under_optimize("vecset.line_bases = lambda p: full(p)[:-1]")


def test_line_parts_check_survives_optimize():
    # So is the check that one line's parts cover A: with line 0's entry made
    # singular (its row 0, which the part sizes read, kept) the parts the
    # matcher reads collide under python -O, and the CLI exits with code 2.
    assert_check_fires_under_optimize("""
def singular(p):
    table = full(p).copy()
    table[0] = [[1, 0], [0, 0]]
    return table
vecset.line_bases = singular""")


def test_witness_check_2d_survives_optimize():
    # A 2-D match whose witness matrix does not carry A onto the generator's
    # output raises, as a 1-D one does, rather than being dropped: with the
    # rows of every witness matrix swapped it fires under python -O, and the
    # CLI exits with code 2.
    assert_check_fires_under_optimize("""
cl = sys.modules["klsf.classify"]
right = cl._block_matrix
cl._block_matrix = lambda p, line, s, u: right(p, line, s, u)[::-1]""")


# ---------------------------------------------------------------------------
# Reference for the n = 2 matcher: the block-triangular search
# f(i*v + w) = s*i*e0 + (c*w + i*u)*e1 over every scalar c on K, with fibres
# named by kind ("full", "zero", "cozero", "P", "coP") and compared as ZpSets.


def reference_descriptors(params):
    """Per table variant: target axis index -> fibre kind, read off by size."""
    p = params.p
    by_size = {1: "zero", p - 1: "cozero", p: "full"}
    out = []
    for kind, fields, _ in reference_specs(params, TYPE_KINDS):
        bands = {}
        for x0, sym, fib in band_layout(kind, params, fields):
            if fib is None:
                bands[x0] = "P" if sym == P else "coP"
            elif fib.any():
                bands[x0] = by_size[int(fib.sum())]
        out.append({"kind": kind, "bands": bands})
    return out


def reference_fiber_sizes_ok(desc, parts_by_target, p):
    t = None
    for j, fk in desc["bands"].items():
        sz = len(parts_by_target[j])
        if fk == "full" and sz != p:
            return False
        if fk == "zero" and sz != 1:
            return False
        if fk == "cozero" and sz != p - 1:
            return False
        if fk == "P":
            t = sz
    if t is not None:
        cop = next(j for j, fk in desc["bands"].items() if fk == "coP")
        if len(parts_by_target[cop]) != p - t:
            return False
    return True


def reference_u_candidates(constrained, parts_by_target, c, s, p):
    if not constrained:
        return (0,)
    j, fk = constrained[0]
    part = parts_by_target[j]
    x = next(iter(part)) if fk == "zero" else next(iter(part.complement()))
    i = mod_inverse(s, p) * j % p
    # Solve c*x + i*u = 0 for u.
    if i == 0:
        return range(p) if c * x % p == 0 else ()
    return ((-c * x % p) * mod_inverse(i, p) % p,)


def reference_check_fibers(special, parts_by_target, c, u, s, p):
    sinv = mod_inverse(s, p)
    images = {}
    for j, fk in special:
        i = sinv * j % p
        part = parts_by_target[j]
        img = part if part.is_empty() else dilate(part, c).shift(i * u % p)
        images[j] = img
        if fk == "zero" and img != ZpSet(p, [0]):
            return None
        if fk == "cozero" and img != ZpSet(p, range(1, p)):
            return None
    pj = next((j for j, fk in special if fk == "P"), None)
    if pj is None:
        return ZpSet(p)
    cop = next(j for j, fk in special if fk == "coP")
    return images[pj] if images[cop] == images[pj].complement() else None


def reference_match_descriptor(desc, parts, supp, p):
    """First (s, c, u) in scan order carrying the parts (ZpSets, support
    `supp`) onto the descriptor, plus P."""
    target_support = ZpSet(p, list(desc["bands"]))
    if len(supp) != len(target_support):
        return None
    for s, image in enumerate((dilate(supp, c).mask for c in range(1, p)), 1):
        if image != target_support.mask:
            continue
        sinv = mod_inverse(s, p)
        parts_by_target = {j: parts[sinv * j % p] for j in desc["bands"]}
        if not reference_fiber_sizes_ok(desc, parts_by_target, p):
            continue
        special = [(j, fk) for j, fk in desc["bands"].items() if fk != "full"]
        constrained = [(j, fk) for j, fk in special if fk in ("zero", "cozero")]
        for c in range(1, p):
            for u in reference_u_candidates(constrained, parts_by_target, c, s, p):
                got = reference_check_fibers(special, parts_by_target, c, u, s, p)
                if got is not None:
                    return {"s": s, "c": c, "u": u, "pset": got}
    return None


MATCHER_PARAMS = {
    "type2": [(k, 1, p) for k in (2, 3, 4) for p in (11, 13, 17, 19, 23, 29)
              if Params(k, 1, p, 2).lambda_in_range() and Params(k, 1, p, 2).m >= 2],
    "type4": [(3, 2, 13), (3, 2, 23), (4, 1, 13), (4, 1, 23)],
    "type5": [(3, 1, p) for p in (11, 19, 23)],
    "rz": [(2, 1, p) for p in (11, 17, 23, 29)],
}


@st.composite
def matcher_inputs(draw):
    """(params, A, is_image): a type 2/4/5/rz output (random nonempty P) under a
    random GL_2 map, the same with one band's fibre changed inside the
    support, or a random set in F_p^2."""
    kind = draw(st.sampled_from(sorted(MATCHER_PARAMS)))
    params = Params(*draw(st.sampled_from(MATCHER_PARAMS[kind])), 2)
    p = params.p
    mode = draw(st.sampled_from(("image", "wrong fibre", "random")))
    if mode == "random":
        cells = draw(st.sets(st.integers(0, p * p - 1), min_size=1, max_size=4 * p))
        return params, VecSet.from_indices(p, 2, cells), False
    if kind in ("type5", "rz"):
        pset = draw(nonzero_free_pset(3 if kind == "type5" else 2)(p))
        spec = TypeSpec(kind, params, s=1, pset=pset)
    else:
        spec = TypeSpec(kind, params, vbasis=())
    vectors = list(gen_type(spec).vectors())
    if mode == "wrong fibre":
        x0 = draw(st.sampled_from(sorted({v[0] for v in vectors})))
        fibre = sorted(v[1] for v in vectors if v[0] == x0)
        how = draw(st.sampled_from(("shift", "dilate", "any")))
        if how == "any":
            new = draw(st.sets(st.integers(0, p - 1), min_size=1))
        else:
            t = draw(st.integers(1, p - 1))
            new = {(y + t) % p if how == "shift" else y * t % p for y in fibre}
        vectors = [v for v in vectors if v[0] != x0] + [(x0, y) for y in new]
    image = apply_automorphism(VecSet(p, 2, vectors), draw(gl2(p)))
    return params, image, mode == "image"


@given(matcher_inputs())
def test_mask_matcher_matches_scalar_scan_reference(case):
    params, a, is_image = case
    p = params.p
    pairs = list(zip(_descriptors_2d(params), reference_descriptors(params)))
    assert [d[0] for d, _ in pairs] == [r["kind"] for _, r in pairs]
    hits = 0
    for line in range(p + 1):
        parts, support = reference_line_profile(a, line)
        masks = [x.mask for x in parts]
        dilates = [dilate(support, c).mask for c in range(1, p)]
        for desc, ref_desc in pairs:
            ref = reference_match_descriptor(ref_desc, parts, support, p)
            got = _match_descriptor_2d(desc, masks, dilates, p)
            if ref is None:
                assert got is None
                continue
            hits += 1
            assert ref["c"] == 1
            open_p = "P" in ref_desc["bands"].values()
            assert got == (ref["s"], ref["u"], ref["pset"].mask if open_p else None)
    assert hits or not is_image
