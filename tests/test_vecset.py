"""F_p^n sets: sumsets vs naive oracle, decompositions, stabilizers, Kneser."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from klsf.zpset import ZpSet, hfold
from klsf.vecset import (
    CriterionError,
    Decomposition,
    Params,
    VecSet,
    VecSetError,
    apply_automorphism,
    decompose,
    decompositions_2d,
    format_vecset,
    kneser_gap,
    line_decomposition,
    line_part_sizes,
    parse_vecset,
    support_contained,
    sym_group,
    vhfold,
    vsumset,
)
from klsf.modmath import _sumset_fft, _sumset_rolls, _sumset_rotations


def naive_vsumset(a, b):
    return VecSet(a.p, a.n, {tuple((x + y) % a.p for x, y in zip(u, v)) for u in a for v in b})


def column(p, xs):
    return VecSet(p, 2, [(x, y) for x in xs for y in range(p)])


def test_vsumset_examples():
    v = column(5, [1, 2])
    assert vhfold(v, 2) == column(5, [2, 3, 4])
    assert vsumset(v, VecSet(5, 2, [(0, 0)])) == v
    assert vsumset(VecSet(3, 2, [(1, 0)]), VecSet(3, 2, [(0, 1)])) == VecSet(3, 2, [(1, 1)])
    with pytest.raises(VecSetError, match="incompatible spaces"):
        vsumset(VecSet(3, 2, [(1, 0)]), VecSet(3, 1, [(1,)]))


def test_sumset_paths_agree_with_oracle():
    rng = random.Random(31)
    for _ in range(40):
        p = rng.choice([3, 5, 7])
        n = rng.choice([1, 2])
        cells = p**n
        a = VecSet.from_indices(p, n, rng.sample(range(cells), rng.randrange(1, cells)))
        b = VecSet.from_indices(p, n, rng.sample(range(cells), rng.randrange(1, cells)))
        want = naive_vsumset(a, b)
        assert _sumset_fft(p, n, a.mask, b.mask) == want.mask
        assert _sumset_rolls(p, n, a.mask, b.mask) == want.mask
        if n == 1:
            assert _sumset_rotations(p, a.mask, b.mask) == want.mask
        assert vsumset(a, b) == want


def test_vhfold_matches_zp_hfold():
    rng = random.Random(37)
    for _ in range(25):
        p = rng.choice([11, 13])
        a = ZpSet(p, rng.sample(range(p), rng.randrange(1, p)))
        h = rng.choice([2, 3, 4])
        assert vhfold(VecSet.from_zpset(a), h).to_zpset() == hfold(a, h)


def test_automorphism_examples():
    v = column(5, [1, 2])
    n5 = VecSet(5, 2, [(i, 1) for i in range(5)] + [(i, 2) for i in range(5)])
    assert apply_automorphism(v, [[1, 0], [0, 1]]) == v
    assert apply_automorphism(v, [[0, 1], [1, 0]]) == n5
    z = VecSet.from_zpset(ZpSet(11, [3, 4, 5]))
    assert apply_automorphism(z, [[8]]).to_zpset() == ZpSet(11, [2, 7, 10])
    with pytest.raises(VecSetError, match="not an automorphism"):
        apply_automorphism(v, [[1, 2], [2, 4]])
    # h-fold sums commute with the action
    rng = random.Random(41)
    for _ in range(10):
        m = [[rng.randrange(5) for _ in range(2)] for _ in range(2)]
        from klsf.vecset import mat_det

        if mat_det(m, 5) == 0:
            continue
        assert apply_automorphism(vhfold(v, 2), m) == vhfold(apply_automorphism(v, m), 2)


def test_decompose_examples():
    v = column(5, [1, 2])
    natural = Decomposition(5, 2, (1, 0), ((0, 1),))
    prof = decompose(v, natural)
    assert prof.support == ZpSet(5, [1, 2]) and prof.weight == 2
    assert prof.part(1).is_full() and prof.part(2).is_full()
    other = Decomposition(5, 2, (0, 1), ((1, 0),))
    prof2 = decompose(v, other)
    assert prof2.weight == 5 and set(prof2.sizes) == {2}
    empty = decompose(VecSet(5, 2), natural)
    assert empty.weight == 0 and all(x.is_empty() for x in empty.parts)


def test_decompose_partition_identity_and_order():
    rng = random.Random(43)
    for _ in range(25):
        p = rng.choice([5, 7, 11])
        cells = p * p
        a = VecSet.from_indices(p, 2, rng.sample(range(cells), rng.randrange(1, cells)))
        for dec in decompositions_2d(p):
            prof = decompose(a, dec)
            assert sum(len(x) for x in prof.parts) == len(a)
            assert list(prof.sizes) == sorted(prof.sizes, reverse=True)
            sizes_by_res = [len(prof.parts[i]) for i in range(p)]
            for i in range(p - 1):
                b, nb = prof.order[i], prof.order[i + 1]
                assert sizes_by_res[b] > sizes_by_res[nb] or (
                    sizes_by_res[b] == sizes_by_res[nb] and b < nb
                )
            if prof.weight:
                assert prof.prefix(prof.weight) == prof.support


def assert_part_sizes_match_decompose(a):
    counts = line_part_sizes(a)
    assert counts.shape == (a.p + 1, a.p)
    for line, dec in enumerate(decompositions_2d(a.p)):
        prof = decompose(a, dec)
        assert counts[line].tolist() == [len(prof.part(i)) for i in range(a.p)], line


@given(st.sampled_from((2, 3, 5, 7, 11, 13)).flatmap(
    lambda p: st.tuples(st.just(p), st.sets(st.integers(0, p * p - 1)))))
def test_line_part_sizes_match_decompose(case):
    p, cells = case
    assert_part_sizes_match_decompose(VecSet.from_indices(p, 2, cells))


def test_line_part_sizes_edge_sets():
    for p in (2, 5, 13):
        assert_part_sizes_match_decompose(VecSet(p, 2))
        assert_part_sizes_match_decompose(VecSet.full(p, 2))
        for cell in range(p * p):
            assert_part_sizes_match_decompose(VecSet.from_indices(p, 2, [cell]))
    assert not line_part_sizes(VecSet(7, 2)).any()
    assert (line_part_sizes(VecSet.full(7, 2)) == 7).all()
    assert [line_decomposition(7, line) for line in range(8)] == list(decompositions_2d(7))
    with pytest.raises(VecSetError, match="n = 2"):
        line_part_sizes(VecSet(5, 3, [(1, 2, 3)]))


def test_beta_normalization():
    # n=2: beta = |B_i| exactly; n=1: denominators cleared as |B_i| * p
    a = column(5, [1, 2])
    prof = decompose(a, Decomposition(5, 2, (1, 0), ((0, 1),)))
    assert prof.beta[0] == Fraction(5)
    z = decompose(VecSet.from_zpset(ZpSet(5, [1, 3])), Decomposition(5, 1, (1,), ()))
    assert z.beta[0] == Fraction(5)
    assert z.weight == 2


def test_decompose_automorphism_compatibility():
    # decomposing M(A) along (Mv, MK) gives the same part-size profile
    rng = random.Random(47)
    from klsf.vecset import mat_det, mat_vec

    p = 7
    a = VecSet.from_indices(p, 2, rng.sample(range(49), 23))
    for _ in range(8):
        m = [[rng.randrange(p) for _ in range(2)] for _ in range(2)]
        if mat_det(m, p) == 0:
            continue
        dec = Decomposition(p, 2, (1, 0), ((0, 1),))
        img_dec = Decomposition(p, 2, mat_vec(m, (1, 0), p), (mat_vec(m, (0, 1), p),))
        prof = decompose(a, dec)
        prof_img = decompose(apply_automorphism(a, m), img_dec)
        assert prof.sizes == prof_img.sizes
        assert prof.support == prof_img.support


def test_sym_group_examples():
    h = VecSet(5, 2, [(0, i) for i in range(5)])
    assert sym_group(h.translate((2, 3))) == h
    assert sym_group(VecSet(5, 1, [(1,), (3,)])) == VecSet(5, 1, [(0,)])
    assert sym_group(VecSet.full(5, 2)) == VecSet.full(5, 2)
    assert sym_group(VecSet(5, 2)) == VecSet.full(5, 2)  # convention for the empty set


def test_sym_group_is_subspace_and_stabilizes():
    rng = random.Random(53)
    for _ in range(20):
        p = rng.choice([3, 5])
        cells = p * p
        a = VecSet.from_indices(p, 2, rng.sample(range(cells), rng.randrange(1, cells)))
        h = sym_group(a)
        elems = set(h.vectors())
        for u in elems:
            assert a.translate(u) == a
            for w in elems:
                assert tuple((x + y) % p for x, y in zip(u, w)) in elems
            for c in range(p):
                assert tuple(c * x % p for x in u) in elems


def test_kneser_examples():
    h = VecSet(5, 2, [(0, i) for i in range(5)])
    lhs, rhs = kneser_gap([h, h])
    assert lhs == rhs == 5
    v = column(5, [1, 2])
    lhs, rhs = kneser_gap([v, v])
    assert lhs >= rhs
    assert h.issubset(sym_group(vhfold(v, 2)))  # the stabilizer contains {0} x F_5
    a = VecSet.from_zpset(ZpSet.interval(11, 2, 3))
    b = VecSet.from_zpset(ZpSet.interval(11, 6, 4))
    lhs, rhs = kneser_gap([a, b])
    assert lhs == 6 and rhs == 6  # intervals meet Cauchy-Davenport with H = {0}


def test_kneser_random():
    rng = random.Random(59)
    for _ in range(120):
        p = rng.choice([5, 7, 11])
        sets = [VecSet.from_zpset(ZpSet(p, rng.sample(range(p), rng.randrange(1, p))))
                for _ in range(rng.choice([2, 3]))]
        lhs, rhs = kneser_gap(sets)
        assert lhs >= rhs


def test_support_contained():
    natural = Decomposition(11, 2, (1, 0), ((0, 1),))
    full_cols = lambda xs: decompose(column(11, xs), natural)  # noqa: E731
    assert support_contained(full_cols([4, 5, 6, 7]), full_cols([4, 5, 6, 7])) == 1
    assert support_contained(full_cols([3, 4, 5]), full_cols([2, 7, 10])) == 8
    # weight m+2 support cannot embed into a weight m+1 cuboid support
    assert support_contained(full_cols([1, 2, 3, 4, 5]), full_cols([4, 5, 6, 7])) is None
    with pytest.raises(CriterionError):
        thin = decompose(VecSet(11, 2, [(4, 0)]), natural)
        support_contained(thin, full_cols([4, 5, 6, 7]))
    with pytest.raises(CriterionError):
        support_contained(full_cols([1, 2]), decompose(VecSet.full(11, 2), natural))


def test_params():
    pr = Params(2, 1, 11)
    assert (pr.m, pr.lam, pr.theta) == (3, 0, 5)
    assert pr.lambda_in_range() and pr.extremal_orbit_count() == 1
    pr2 = Params(3, 1, 23)
    assert (pr2.m, pr2.lam, pr2.theta) == (5, 1, 7)
    pr3 = Params(3, 2, 19)
    assert pr3.lam == 2 and pr3.extremal_orbit_count() == 2
    assert Params(2, 1, 13).lambda_in_range() is False  # lam = 2 > k+l-3
    with pytest.raises(VecSetError):
        Params(1, 1, 11)
    with pytest.raises(VecSetError):
        Params(2, 1, 12)


def test_vec_literals_and_hex():
    v = VecSet(5, 2, [(1, 2), (0, 0), (4, 4)])
    assert parse_vecset(format_vecset(v)) == v
    assert parse_vecset("p=5;n=1;{1,3}") == VecSet(5, 1, [(1,), (3,)])
    assert parse_vecset("p=11;{4,5,6,7}").to_zpset() == ZpSet(11, [4, 5, 6, 7])
    assert len(v.mask_hex()) == 2 * ((25 + 7) // 8)
    assert VecSet.from_zpset(ZpSet(13, [1, 5])).to_zpset() == ZpSet(13, [1, 5])
    with pytest.raises(VecSetError):
        parse_vecset("p=5;n=2;{(1,2),(1,2)}")


def test_sumset_dual_routes_at_medium_scale():
    # The large spot checks lean on the FFT route; pin it against the
    # roll-and-OR route on a structured 2575-element set over F_103^2.
    from klsf.constructions import TypeSpec, gen_type

    out = gen_type(TypeSpec("type5", Params(3, 1, 103, 2), s=1, pset=((1,),))).mask
    two_fft = _sumset_fft(103, 2, out, out)
    assert two_fft == _sumset_rolls(103, 2, out, out)
    three_fft = _sumset_fft(103, 2, two_fft, out)
    assert three_fft == _sumset_rolls(103, 2, two_fft, out)
    assert three_fft & out == 0


def test_golden_mask_hex():
    # format stability for golden files: little-endian bytes of the mask
    from klsf.constructions import CuboidSpec, gen_cuboid

    cub = gen_cuboid(CuboidSpec(Params(2, 1, 11, 2), 0))
    assert cub.mask_hex() == "f080073ce0010f78c0031ef080073c00"
    assert VecSet.from_mask(11, 2, int.from_bytes(bytes.fromhex(cub.mask_hex()), "little")) == cub


def test_part_sum_bound_on_solved_index_equations():
    # For sum-free sets and any solved index equation, the involved part
    # sizes obey sum |B| <= p^(n-1) + (k+l-2) p^(n-2); exhaustive over the
    # small-weight decompositions (where the bound carries the case analysis),
    # sampled on the full-weight ones.
    import itertools

    from klsf.constructions import TypeSpec, gen_type

    rng = random.Random(61)
    for p, k, l in ((11, 2, 1), (23, 3, 1)):
        params = Params(k, l, p, 2)
        spec = (TypeSpec("rz", params, s=1, pset=((1,),)) if k == 2
                else TypeSpec("type5", params, s=1, pset=((1,),)))
        a = gen_type(spec)
        bound = p + (k + l - 2)
        for dec in decompositions_2d(p):
            prof = decompose(a, dec)
            supp = sorted(prof.support.elements())
            if prof.weight <= params.m + 2:
                pairs = (
                    (left, right)
                    for left in itertools.combinations_with_replacement(supp, k)
                    for right in itertools.combinations_with_replacement(supp, l)
                )
            else:
                pairs = (
                    (tuple(rng.choice(supp) for _ in range(k)),
                     tuple(rng.choice(supp) for _ in range(l)))
                    for _ in range(300)
                )
            for left, right in pairs:
                if sum(left) % p == sum(right) % p:
                    total = sum(len(prof.parts[i]) for i in left) + sum(
                        len(prof.parts[i]) for i in right
                    )
                    assert total <= bound


def test_beta_sum_bound_on_large_index_sums():
    # Prefix-count bound: indices from [1, omega] with total >= p+k+l-1 give
    # sum beta <= p+k+l-2 for sum-free inputs.
    import itertools

    from klsf.constructions import TypeSpec, gen_type

    for p, k, l in ((11, 2, 1), (19, 3, 1)):
        params = Params(k, l, p, 2)
        spec = (TypeSpec("rz", params, s=1, pset=((1,),)) if k == 2
                else TypeSpec("type5", params, s=1, pset=((1,),)))
        a = gen_type(spec)
        for dec in decompositions_2d(p):
            prof = decompose(a, dec)
            w = prof.weight
            if w > params.m + 2:
                continue
            for idx in itertools.combinations_with_replacement(range(1, w + 1), k + l):
                if sum(idx) >= p + k + l - 1:
                    total = sum(prof.beta[i - 1] for i in idx)
                    assert total <= p + k + l - 2
