"""Structure generators: frozen examples, parameter windows, distinctness."""

import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from klsf.zpset import ZpSet, dilate, ed_profile, is_kl_sumfree
from klsf.modmath import dilation_orbits, primes_in, word_array
from klsf.search import enumerate_second_level
from klsf.vecset import Params, VecSet, apply_automorphism, line_basis, vec_is_kl_sumfree
from klsf import constructions, search
from test_vecset import reference_line_profile
from klsf.constructions import (
    CuboidSpec,
    extremal_embeddings,
    ParameterError,
    TypeSpec,
    available_kinds,
    certify_type_distinctness,
    extremal_interval,
    extremal_intervals,
    gen_cuboid,
    gen_type,
    nontriviality_check,
    reference_specs,
    TYPE_KINDS,
    type1_a_values,
    type3_a,
    type3_support_profile,
    type5_a,
    type_support,
)


def test_cuboid_examples():
    spec = CuboidSpec(Params(2, 1, 11, 1), 0)
    assert spec.a_j == 4
    assert gen_cuboid(spec).to_zpset() == ZpSet.interval(11, 4, 4)
    spec31 = CuboidSpec(Params(3, 1, 23, 1), 0)
    assert spec31.a_j == 15  # -16 * inv(2) mod 23
    assert gen_cuboid(spec31).to_zpset() == ZpSet.interval(23, 15, 6)
    spec32 = CuboidSpec(Params(3, 2, 17, 1), 0)
    assert spec32.a_j == 7  # -10 mod 17
    assert gen_cuboid(spec32).to_zpset() == ZpSet.interval(17, 7, 4)


def test_cuboid_sizes_and_j_range():
    params = Params(3, 2, 19, 2)  # lam = 2, two orbits
    assert params.extremal_orbit_count() == 2
    for j in range(2):
        out = gen_cuboid(CuboidSpec(params, j))
        assert len(out) == (params.m + 1) * 19
    with pytest.raises(ParameterError):
        CuboidSpec(params, 2)
    with pytest.raises(ParameterError):
        CuboidSpec(Params(2, 1, 13, 1), 0)  # lam = 2 > k+l-3


def test_extremal_intervals_are_sumfree_and_mirrored():
    for k, l, p in ((2, 1, 11), (3, 1, 23), (3, 2, 29), (4, 1, 29)):
        params = Params(k, l, p)
        for iv in extremal_intervals(params):
            assert is_kl_sumfree(iv, k, l)
        # j and lam - j give the same orbit: negation maps one to the other
        lam = params.lam
        for j in range(params.extremal_orbit_count()):
            a_j = CuboidSpec(params, j).a_j
            mirrored = dilate(ZpSet.interval(p, a_j, params.m + 1), p - 1)
            other = -(params.k * params.m + 1 + (lam - j)) * pow(params.k - params.l, -1, p) % p
            assert mirrored == ZpSet.interval(p, other, params.m + 1)


def test_type1_examples():
    assert type1_a_values(Params(3, 1, 23)) == [5]
    out = gen_type(TypeSpec("type1", Params(3, 1, 23, 1), a=5))
    assert out.to_zpset() == ZpSet.interval(23, 5, 5)
    assert type1_a_values(Params(2, 1, 11)) == [6]  # m + 3
    with pytest.raises(ParameterError, match="type 1 requires"):
        TypeSpec("type1", Params(3, 1, 23, 1), a=6)


def test_type3_structure():
    params = Params(3, 2, 23, 1)  # p = 5m+3, m = 4... m=4 < 5 fine for generation
    a = type3_a(params)
    out = gen_type(TypeSpec("type3", params))
    want = {(a - 1) % 23, (a + params.m) % 23} | {(a + i) % 23 for i in range(1, params.m - 1)}
    assert set(out.to_zpset().elements()) == want
    with pytest.raises(ParameterError, match="type 3 requires"):
        TypeSpec("type3", Params(2, 1, 11, 1))


def test_type5_example_p23():
    params = Params(3, 1, 23, 2)
    assert type5_a(params) == (params.m + 2) * pow(2, -1, 23) % 23
    out = gen_type(TypeSpec("type5", params, s=1, pset=((1,),)))
    assert len(out) == params.m * 23
    assert vec_is_kl_sumfree(out, 3, 1)
    a = type5_a(params)
    # five bands: start {0}; co-P; full middle; co-{0}; P
    assert (a - 1, 0) in out and (a - 1, 1) not in out
    assert (a, 1) not in out and (a, 2) in out
    assert all((a + 1, y) in out for y in range(23))
    assert (a + params.m - 1, 0) not in out and (a + params.m - 1, 3) in out
    assert (a + params.m, 1) in out and (a + params.m, 2) not in out


def test_rz_slices():
    out = gen_type(TypeSpec("rz", Params(2, 1, 11, 1), s=0, pset=()))
    assert out.to_zpset() == ZpSet(11, [3, 4, 5])  # the [m, 2m-1] slice
    spec = TypeSpec("rz", Params(2, 1, 11, 2), s=0, pset=())
    assert any("s=0" in note for note in spec.notes)
    full = gen_type(TypeSpec("rz", Params(2, 1, 17, 2), s=1, pset=((3,),)))
    assert len(full) == 5 * 17 and vec_is_kl_sumfree(full, 2, 1)


def test_degenerate_parameter_rejections():
    p5 = Params(3, 1, 23, 2)
    with pytest.raises(ParameterError, match="nonempty P"):
        TypeSpec("type5", p5, s=1, pset=())
    with pytest.raises(ParameterError, match="s = 0 admits no valid P"):
        TypeSpec("type5", p5, s=0, pset=((),))
    with pytest.raises(ParameterError, match="0 not in 3P"):
        TypeSpec("type5", p5, s=1, pset=((0,),))
    with pytest.raises(ParameterError, match="proper subspace"):
        TypeSpec("type4", Params(3, 2, 13, 2), vbasis=((1,),))
    with pytest.raises(ParameterError, match="0 not in P\\+P"):
        TypeSpec("rz", Params(2, 1, 11, 2), s=1, pset=((0,),))
    with pytest.raises(ParameterError, match="type 2 requires l = 1"):
        TypeSpec("type2", Params(3, 2, 23, 2), vbasis=())
    with pytest.raises(ParameterError, match="n >= 2"):
        TypeSpec("type4", Params(3, 2, 13, 1), vbasis=())
    # V lives in F_p^(n-1): a basis vector of any other length is refused
    with pytest.raises(ParameterError, match="\\(1, 2, 3\\) does not live in F_p\\^2"):
        TypeSpec("type2", Params(2, 1, 17, 3), vbasis=((1, 2, 3),))
    with pytest.raises(ParameterError, match="\\(1,\\) does not live in F_p\\^2"):
        TypeSpec("type2", Params(2, 1, 17, 3), vbasis=((1,),))
    # a field that the kind never reads is refused, not ignored
    for which, fields, unread in [
        ("type2", {"vbasis": (), "a": 5, "pset": ((1,),)}, "a, pset"),
        ("type1", {"a": 5, "vbasis": ()}, "vbasis"),
        ("type3", {"s": 0}, "s"),
        ("type4", {"vbasis": (), "pset": ()}, "pset"),
        ("type5", {"s": 1, "pset": ((1,),), "a": 5}, "a"),
        ("rz", {"s": 1, "pset": ((1,),), "vbasis": ()}, "vbasis"),
    ]:
        with pytest.raises(ParameterError, match=f"{which} does not read {unread}$"):
            TypeSpec(which, p5, **fields)


def test_generator_sizes_and_verifier():
    # every kind at a representative parameter point has size m*p^{n-1}
    cases = [
        TypeSpec("type1", Params(3, 1, 23, 2), a=5),
        TypeSpec("type2", Params(3, 1, 23, 2), vbasis=()),
        TypeSpec("type3", Params(4, 1, 23, 2)),
        TypeSpec("type4", Params(4, 1, 23, 2), vbasis=()),
        TypeSpec("type5", Params(3, 1, 23, 2), s=1, pset=((1,), (5,))),
        TypeSpec("rz", Params(2, 1, 23, 2), s=1, pset=((1,), (4,))),
    ]
    for spec in cases:
        out = gen_type(spec)
        params = spec.params
        assert len(out) == params.m * params.p ** (params.n - 1)
        assert vec_is_kl_sumfree(out, params.k, params.l)


def _catalogue_bands(kind, params):
    """Axis index -> fibre name, straight from the structure catalogue."""
    k, l, p, m = params.k, params.l, params.p, params.m
    if kind == "type2":
        a = m * k * pow(l - k, -1, p) % p
        bands = {a: "W-V", a + m: "V"} | {a + i: "W" for i in range(1, m)}
    elif kind == "type4":
        bands = {2 * m + 1: "V", 3 * m + 2: "V", 2 * m + 2: "W-V", 3 * m + 1: "W-V"}
        bands |= {x: "W" for x in range(2 * m + 3, 3 * m + 1)}
    else:  # type 5 starts at (m+2)/2 - 1, rz at m; both are pinched bands
        start = (m + 2) * pow(2, -1, p) - 1 if kind == "type5" else m
        bands = {start: "V", start + 1: "W-P", start + m: "W-V", start + m + 1: "P"}
        bands |= {start + i: "W" for i in range(2, m)}
    return {x % p: fib for x, fib in bands.items()}


def _catalogue_member(spec, x):
    """x in A iff x_0 lies in a band and the rest of x lies in that band's fibre."""
    p = spec.params.p
    fib = _catalogue_bands(spec.which, spec.params).get(x[0])
    y = tuple(x[1:])
    if spec.which in ("type2", "type4"):
        span = {tuple(sum(c * b[i] for c, b in zip(cs, spec.vbasis)) % p for i in range(len(y)))
                for cs in product(range(p), repeat=len(spec.vbasis))}
        in_v, in_p = y in span, None
    else:  # V = {0}^s x F_p^(n-1-s), P means P x F_p^(n-1-s)
        in_v = all(c == 0 for c in y[:spec.s])
        in_p = y[:spec.s] in spec.pset
    return {None: False, "W": True, "V": in_v, "W-V": not in_v,
            "P": in_p, "W-P": not in_p}[fib]


def test_generators_n3_match_the_catalogue():
    specs = [
        TypeSpec("type2", Params(2, 1, 17, 3), vbasis=((2, 3),)),
        TypeSpec("type2", Params(3, 1, 11, 3), vbasis=((1, 0),)),
        TypeSpec("type4", Params(4, 1, 23, 3), vbasis=((1, 3),)),
        TypeSpec("type5", Params(3, 1, 19, 3), s=2, pset=((1, 0), (0, 1))),
        TypeSpec("rz", Params(2, 1, 17, 3), s=2, pset=((1, 2), (3, 0))),
        TypeSpec("rz", Params(2, 1, 11, 3), s=1, pset=((1,),)),
    ]
    for spec in specs:
        p = spec.params.p
        want = VecSet(p, 3, [x for x in product(range(p), repeat=3) if _catalogue_member(spec, x)])
        assert gen_type(spec) == want, spec
        assert type_support(spec) == ZpSet(p, _catalogue_bands(spec.which, spec.params))


def test_type_supports_and_weights():
    params = Params(4, 1, 43, 2)
    assert len(type_support(TypeSpec("type1", params, a=type1_a_values(params)[0]))) == params.m
    assert len(type_support(TypeSpec("type2", params, vbasis=()))) == params.m + 1
    assert len(type_support(TypeSpec("type3", params))) == params.m
    assert len(type_support(TypeSpec("type4", params, vbasis=()))) == params.m + 2
    p31 = Params(3, 1, 23, 2)
    assert len(type_support(TypeSpec("type5", p31, s=1, pset=((1,),)))) == p31.m + 2


def test_nontriviality_examples():
    p21 = Params(2, 1, 11, 1)
    r = nontriviality_check(VecSet.from_zpset(ZpSet(11, [2, 7, 10])), p21)
    assert r.status == "nontrivial"
    r2 = nontriviality_check(VecSet.from_zpset(ZpSet(11, [2, 3, 8])), p21)
    assert r2.status == "trivial"
    assert dilate(ZpSet(11, [2, 3, 8]), r2.witness["dilation"]).issubset(
        extremal_interval(p21, r2.witness["j"])
    )
    cub = gen_cuboid(CuboidSpec(Params(2, 1, 11, 2), 0))
    assert nontriviality_check(cub, Params(2, 1, 11, 2)).status == "trivial"
    with pytest.raises(Exception, match="unsupported dimension"):
        nontriviality_check(VecSet(5, 3, [(1, 2, 3)]), Params(2, 1, 5, 3))


def test_nontriviality_of_generated_types():
    specs = [
        TypeSpec("type1", Params(3, 1, 23, 1), a=5),
        TypeSpec("type2", Params(3, 1, 23, 2), vbasis=()),
        TypeSpec("type3", Params(3, 2, 23, 1)),
        TypeSpec("type4", Params(3, 2, 23, 2), vbasis=()),
        TypeSpec("type5", Params(3, 1, 23, 2), s=1, pset=((1,),)),
        TypeSpec("rz", Params(2, 1, 17, 2), s=1, pset=((1,),)),
    ]
    for spec in specs:
        out = gen_type(spec)
        assert nontriviality_check(out, spec.params).status == "nontrivial", spec.which


def scalar_extremal_embedding(s, intervals):
    """The first (c, j), scanning c = 1..p-1 and for each c every j, with
    c*S inside intervals[j], one `zpset.dilate` at a time: the reference for
    the batched `extremal_embeddings`."""
    for c in range(1, s.p):
        image = dilate(s, c)
        for j, iv in enumerate(intervals):
            if image.issubset(iv):
                return c, j
    return None


def per_line_nontriviality(a, params):
    """The n = 2 scan with the brute-force parts of each line: (status, witness)."""
    intervals = extremal_intervals(params)
    for line in range(params.p + 1):
        hit = scalar_extremal_embedding(reference_line_profile(a, line)[1], intervals)
        if hit is not None:
            s, j = hit
            v, k = line_basis(params.p, line)
            return "trivial", {"line": line, "dilation": s, "j": j, "v": v, "kbasis": (k,)}
    return "nontrivial", None


# (k, l, p) with k + l <= 8 and p <= 31 whose second level exists: m >= 1
# and lam inside the window.
SECOND_LEVEL_CASES = [(k, l, p) for k in range(2, 8) for l in range(1, k) if k + l <= 8
                      for p in primes_in(2, 31)
                      if Params(k, l, p).m >= 1 and Params(k, l, p).lambda_in_range()]


def test_extremal_embeddings_match_scalar_scan_on_second_level_orbits():
    # Every size-m orbit the second-level search meets, trivial or not, as
    # its canonical form and as every hit of the tree rooted at {1}, row by
    # row against the scalar scan; the nontrivial canonical forms are then
    # exactly the orbits `enumerate_second_level` reports.
    assert len(SECOND_LEVEL_CASES) > 40
    for k, l, p in SECOND_LEVEL_CASES:
        params = Params(k, l, p)
        intervals = extremal_intervals(params)
        _, hits, _ = search._scan(p, k, l, params.m)
        orbits = sorted(set(dilation_orbits(p, hits)[0]))
        for masks in (orbits, hits):
            want = [scalar_extremal_embedding(ZpSet.from_mask(p, m), intervals) for m in masks]
            assert extremal_embeddings(p, masks, intervals) == want, (k, l, p)
            assert [extremal_embeddings(p, [m], intervals)[0] for m in masks] == want
        nontrivial = [m for m in orbits
                      if scalar_extremal_embedding(ZpSet.from_mask(p, m), intervals) is None]
        run = enumerate_second_level(params)
        assert [o.mask for o, _ in run.second_level_orbits] == nontrivial, (k, l, p)


@pytest.mark.parametrize("p", [2, 7, 29, 61, 67])
def test_extremal_embeddings_edge_cases(p, monkeypatch):
    # no rows, the empty set, no intervals, a word-array input, Python ints
    # above p = 61, and chunks of one row
    rng = random.Random(p)
    intervals = [ZpSet.interval(p, 1, max(1, p // 4)), ZpSet.interval(p, p // 2, max(1, p // 5))]
    masks = [0] + [rng.getrandbits(p) & ~1 for _ in range(30)]
    masks += [ZpSet(p, [c * x % p for x in range(1, p // 5 + 1)]).mask for c in (1, p - 1)]
    want = [scalar_extremal_embedding(ZpSet.from_mask(p, m), intervals) for m in masks]
    assert want[0] == (1, 0)
    if p > 2:
        assert None in want and any(want[1:])
    assert extremal_embeddings(p, masks, intervals) == want
    assert extremal_embeddings(p, word_array(p, masks), intervals) == want
    assert extremal_embeddings(p, [], intervals) == []
    assert extremal_embeddings(p, masks, []) == [None] * len(masks)
    monkeypatch.setattr(constructions, "_EMBED_CELLS", 1)
    assert extremal_embeddings(p, masks, intervals) == want


# (k, l, p) at n = 2 inside the lambda window, p <= 29.
WINDOW_2D = [(k, l, p) for k, l in ((2, 1), (3, 1), (3, 2), (4, 1))
             for p in (5, 7, 11, 13, 17, 19, 23, 29) if Params(k, l, p, 2).lambda_in_range()]


@st.composite
def gl2(draw, p):
    m = draw(st.lists(st.integers(0, p - 1), min_size=4, max_size=4)
             .filter(lambda e: (e[0] * e[3] - e[1] * e[2]) % p))
    return [m[:2], m[2:]]


@st.composite
def plane_sets(draw):
    """A set in F_p^2 with its parameters: a subset of a cuboid or of a
    generated structure under a random automorphism, or an arbitrary set,
    each possibly with a few extra points."""
    k, l, p = draw(st.sampled_from(WINDOW_2D))
    params = Params(k, l, p, 2)
    source = draw(st.sampled_from(("cuboid", "type", "random")))
    if source == "random":
        cells = draw(st.sets(st.integers(0, p * p - 1), max_size=3 * p))
        return params, VecSet.from_indices(p, 2, cells)
    if source == "cuboid":
        base = gen_cuboid(CuboidSpec(params, draw(st.integers(0, params.extremal_orbit_count() - 1))))
    else:
        specs = [spec for _, _, spec in reference_specs(params, TYPE_KINDS)]
        if not specs:
            return params, VecSet(p, 2)
        base = gen_type(draw(st.sampled_from(specs)))
    image = apply_automorphism(base, draw(gl2(p)))
    kept = draw(st.lists(st.booleans(), min_size=len(image), max_size=len(image)))
    extra = draw(st.sets(st.integers(0, p * p - 1), max_size=2))
    cells = [i for i, keep in zip(image.index_array().tolist(), kept) if keep]
    return params, VecSet.from_indices(p, 2, set(cells) | extra)


@given(plane_sets())
def test_nontriviality_2d_matches_per_line_scan(case):
    params, a = case
    report = nontriviality_check(a, params)
    assert (report.status, report.witness) == per_line_nontriviality(a, params)


def test_distinctness_certificates():
    params = Params(4, 1, 43, 2)
    assert set(available_kinds(params)) == {"type1", "type2", "type3", "type4"}
    certs = certify_type_distinctness(params)
    assert len(certs) == 6
    methods = {(c.kind_a, c.kind_b): c.method for c in certs}
    assert methods[("type1", "type3")] == "ed-profile"
    assert methods[("type1", "type2")] == "weight"
    with pytest.raises(ParameterError, match="m >= 5"):
        certify_type_distinctness(Params(4, 1, 13, 2))


def test_spot_checks_p103():
    # selected larger-p emissions: verifier and sizes at p = 103
    p41 = Params(4, 1, 103, 1)   # 103 = 5*20 + 3
    assert len(gen_type(TypeSpec("type3", p41))) == p41.m
    assert len(gen_cuboid(CuboidSpec(p41, 0))) == p41.m + 1
    p31 = Params(3, 1, 103, 2)   # 103 = 4*25 + 3
    out = gen_type(TypeSpec("type5", p31, s=1, pset=((1,), (2,))))
    assert len(out) == p31.m * 103


def test_case_table_sums_have_few_distinct_values():
    # The small-weight case analysis rests on: every (k,l)-sum inside the
    # support uses at most two distinct values when the weight is m+1, and at
    # most three when it is m+2 (for m large enough).
    from klsf.zpset import find_kl_sums

    checks = [
        (TypeSpec("type2", Params(3, 1, 23, 2), vbasis=()), 2),   # omega = m+1
        (TypeSpec("type2", Params(4, 1, 43, 2), vbasis=()), 2),
        (TypeSpec("type4", Params(4, 1, 43, 2), vbasis=()), 3),   # omega = m+2
        (TypeSpec("type4", Params(3, 2, 43, 2), vbasis=()), 3),
        (TypeSpec("type5", Params(3, 1, 103, 2), s=1, pset=((1,),)), 3),
    ]
    for spec, max_distinct in checks:
        params = spec.params
        supp = type_support(spec)
        sols = find_kl_sums(supp, params.k, params.l, params.k + params.l)
        worst = max((len(set(left) | set(right)) for left, right in sols), default=0)
        assert worst <= max_distinct, (spec.which, params.p, worst)


def test_type3_profile_exact():
    for k, l, p in ((4, 1, 43), (3, 2, 43), (6, 1, 47)):
        prof = type3_support_profile(Params(k, l, p, 1))
        assert prof[2] == 4
        assert all(prof[d] >= 6 for d in prof.counts if d != 2)
    # intervals carry e_1 = 2, so the type-3 profile (minimum 4) obstructs them
    m = Params(4, 1, 43).m
    interval_prof = ed_profile(ZpSet.interval(43, 0, m))
    assert min(interval_prof.multiset()) == 2
