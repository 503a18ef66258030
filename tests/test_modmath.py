"""The bit-mask kernel: conversions, sumsets, folds, sum-freeness, stabilizers,
dilation orbits.

Every property is checked against an oracle written here from the
definitions (cells as digit tuples, sums digit by digit), sharing no code
with the kernel.  Masks are drawn on both sides of the kernel's cut-overs:
the popcount above which mask -> indices stops peeling bits, and the
smaller-operand size above which a sumset leaves the roll route.  Large sets
in F_p^2 (generated structures, cuboids and random sets under random GL_2
maps or left unmoved) also pin the row-class and FFT routes to the roll
route, and the FFT route's transforms are counted.  Unions of products
T x F in F_p^2 and F_p^3 check the sumsets, and the row-class route under
drawn pair budgets, against pair sums.  Batched dilation orbits are checked
against `zpset.dilate` one dilate at a time, on uint64 words and on Python
ints, with cosets of multiplicative subgroups for nontrivial stabilizers.
Batched doubling sizes are checked against `sumset_mask` and pair sums on
both sides of the pair-table cut-over.
"""

import math
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, strategies as st

from klsf import modmath
from klsf.modmath import (
    GeneratorCheckError,
    bits_to_mask,
    fold_masks,
    indices_to_mask,
    indices_to_rows,
    is_kl_sumfree_mask,
    is_prime,
    mask_to_bits,
    mask_to_indices,
    rows_to_indices,
    stabilizer_mask,
    sumset_mask,
)
from klsf.constructions import TypeSpec, gen_cuboid, gen_type, reference_specs
from klsf.zpset import ZpSet, dilate
from klsf.vecset import (
    Params, VecSet, apply_automorphism, sym_group, vec_is_kl_sumfree, vhfold, vsumset,
)

PRIMES = (2, 3, 5, 7, 11, 13)
# Sizes just below and just above each cut-over, plus small and mid sizes.
CUT_SIZES = sorted({1, 2, 3, 8, modmath._SPARSE_POPCOUNT, modmath._SPARSE_POPCOUNT + 1,
                    modmath._FFT_THRESHOLD, modmath._FFT_THRESHOLD + 1, 90})


# ---------------------------------------------------------------------------
# Oracles


def digits(i, p, n):
    out = []
    for _ in range(n):
        out.append(i % p)
        i //= p
    return tuple(out)


def index(v, p):
    return sum(c * p**j for j, c in enumerate(v))


def cells_of(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def naive_sum(a, b, p, n):
    out = set()
    for i in cells_of(a):
        u = digits(i, p, n)
        for j in cells_of(b):
            out.add(index(tuple((x + y) % p for x, y in zip(u, digits(j, p, n))), p))
    return sum(1 << c for c in out)


def naive_stabilizer(a, p, n):
    members = set(cells_of(a))
    out = 0
    for g in range(p**n):
        gv = digits(g, p, n)
        shifted = {index(tuple((x + y) % p for x, y in zip(digits(i, p, n), gv)), p) for i in members}
        if shifted == members:
            out |= 1 << g
    return out


# ---------------------------------------------------------------------------
# Strategies


@st.composite
def space(draw, max_cells=13**3):
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.sampled_from([k for k in (1, 2, 3) if p**k <= max_cells]))
    return p, n


@st.composite
def cut_mask(draw, cells, cap=None):
    """A nonempty mask over `cells` cells whose size sits near a cut-over."""
    sizes = [s for s in CUT_SIZES if s <= min(cells, cap or cells)] or [cells]
    size = draw(st.sampled_from(sizes))
    chosen = draw(st.lists(st.integers(0, cells - 1), min_size=size, max_size=size, unique=True))
    return sum(1 << i for i in chosen)


# ---------------------------------------------------------------------------
# Conversions


@given(st.data())
def test_mask_index_round_trips(data):
    p, n = data.draw(space())
    cells = p**n
    mask = data.draw(cut_mask(cells))
    idx = mask_to_indices(mask)
    assert idx.dtype == np.int64 and idx.tolist() == cells_of(mask)
    assert indices_to_mask(idx) == mask
    assert indices_to_mask(idx.tolist() * 2) == mask  # repeated indices are one member
    bits = mask_to_bits(mask, cells)
    assert bits.shape == (cells,) and np.flatnonzero(bits).tolist() == cells_of(mask)
    assert bits_to_mask(bits) == mask
    rows = indices_to_rows(idx, p, n)
    assert [tuple(r) for r in rows.tolist()] == [digits(i, p, n) for i in cells_of(mask)]
    assert rows_to_indices(rows, p).tolist() == idx.tolist()


def test_conversion_edge_cases():
    assert mask_to_indices(0).tolist() == [] and indices_to_mask([]) == 0
    assert bits_to_mask(mask_to_bits(0, 9)) == 0
    rows = np.array([[1, 0, 1], [0, 0, 0], [1, 1, 1]], dtype=bool)
    assert bits_to_mask(rows) == [0b101, 0, 0b111]
    assert rows_to_indices(np.zeros((3, 0), dtype=np.int64), 5).tolist() == [0, 0, 0]


# ---------------------------------------------------------------------------
# Sumsets, folds, sum-freeness


@given(st.data())
def test_sumset_mask_matches_oracle(data):
    p, n = data.draw(space())
    cells = p**n
    a = data.draw(cut_mask(cells, cap=100))
    b = data.draw(cut_mask(cells, cap=100))
    want = naive_sum(a, b, p, n)
    assert sumset_mask(p, n, a, b) == want
    assert sumset_mask(p, n, b, a) == want
    assert sumset_mask(p, n, a, 0) == 0 == sumset_mask(p, n, 0, b)
    assert modmath._sumset_fft(p, n, a, b) == want
    assert modmath._sumset_rolls(p, n, a, b) == want
    if n == 1:
        assert modmath._sumset_rotations(p, a, b) == want


@given(st.data(), st.integers(1, 4))
def test_folds_and_sumfreeness_match_oracle(data, h):
    p, n = data.draw(space(max_cells=343))
    a = data.draw(cut_mask(p**n, cap=80))
    folds = fold_masks(p, n, a, h)
    want = [a]
    for _ in range(h - 1):
        want.append(naive_sum(want[-1], a, p, n))
    assert folds == want
    for k in range(2, h + 1):
        for l in range(1, k):
            assert is_kl_sumfree_mask(p, n, a, k, l) == (want[k - 1] & want[l - 1] == 0)


def test_vsumset_n1_takes_the_rotation_route(monkeypatch):
    # Z_p sets inside F_p^1 share the int-rotation route with ZpSet.sumset.
    def refuse(*_):
        raise AssertionError("n = 1 below the FFT threshold must not roll arrays")

    monkeypatch.setattr(modmath, "_sumset_rolls", refuse)
    a, b = VecSet(13, 1, [(1,), (4,)]), VecSet(13, 1, [(0,), (9,), (12,)])
    assert vsumset(a, b) == VecSet(13, 1, [(0,), (1,), (3,), (4,), (10,)])


# ---------------------------------------------------------------------------
# The row-class route: unions of products T x F

# Spaces with enough cells for the FFT-route domain (more than 64 elements).
ROW_SPACES = ((11, 2), (13, 2), (5, 3), (7, 3), (11, 3), (13, 3))


def pair_sum(a, b, p, n):
    """A + B from every pair of cells, digit by digit, as naive_sum does, with
    the loop over B done by numpy so that sets of 13^3 cells stay quick."""
    weights = p ** np.arange(n)
    other = np.array([digits(j, p, n) for j in cells_of(b)]).reshape(-1, n)
    hit = np.zeros(p**n, dtype=bool)
    for i in cells_of(a):
        hit[(other + digits(i, p, n)) % p @ weights] = True
    return sum(1 << int(c) for c in np.flatnonzero(hit))


def rows_of(a, p, n):
    """The p rows of A: row x is the p^(n-1)-bit block of last coordinate x."""
    width = p ** (n - 1)
    return [a >> (x * width) & ((1 << width) - 1) for x in range(p)]


def products_mask(terms, p, n):
    """The union of the products T x F."""
    width = p ** (n - 1)
    return sum_masks(f << (x * width) for t, f in terms for x in range(p) if t >> x & 1)


def sum_masks(masks):
    out = 0
    for m in masks:
        out |= m
    return out


@st.composite
def product_union(draw, p, n):
    """A nonempty union of up to three products T x F over F_p^n, T a set of
    last coordinates and F a subset of F_p^(n-1): rows outside every T are
    empty, and overlapping T's give extra classes.  Also a single product,
    and the whole space."""
    shape = draw(st.sampled_from(("union", "single", "full")))
    if shape == "full":
        return (1 << p**n) - 1
    rng = draw(st.randoms(use_true_random=False))

    def subset(cells):
        return sum_masks(1 << i for i in rng.sample(range(cells), draw(st.integers(1, cells))))

    count = 1 if shape == "single" else draw(st.integers(1, 3))
    return products_mask([(subset(p), subset(p ** (n - 1))) for _ in range(count)], p, n)


@given(st.data(), st.integers(0, 40))
def test_row_route_matches_pair_sums(data, budget):
    # Sumsets take the roll or FFT route.  The pair budget is drawn, so at
    # every p and n here the chains are summed by rows, refused at A's class
    # count or at the chain's estimate, or left mid-chain; at n = 3 only a
    # drawn budget opens the route.
    p, n = data.draw(st.sampled_from(ROW_SPACES))
    a, b = data.draw(product_union(p, n)), data.draw(product_union(p, n))
    want = [a]
    for _ in range(2):
        want.append(pair_sum(want[-1], a, p, n))
    assert sumset_mask(p, n, a, b) == pair_sum(a, b, p, n)
    with patch.object(modmath, "_row_pair_budget", lambda *_: budget):
        assert fold_masks(p, n, a, 3) == want
        for k, l in ((2, 1), (3, 1), (3, 2)):
            assert is_kl_sumfree_mask(p, n, a, k, l) == (want[k - 1] & want[l - 1] == 0)
        classes = modmath._row_classes(p, n, a)
        chain = modmath._row_folds(p, n, a, 3)
    rows = rows_of(a, p, n)
    distinct = {row for row in rows if row}
    assert (classes is None) == (len(distinct) > math.isqrt(budget))
    if classes is not None:
        assert sorted(f for _, f in classes) == sorted(distinct)
        for t, f in classes:
            assert t == sum_masks(1 << x for x, row in enumerate(rows) if row == f)
    if chain is not None:
        assert [products_mask(terms, p, n) for terms in chain] == want


def test_row_route_edge_cases(monkeypatch):
    inverses = []
    exact = modmath._inverse_fft
    monkeypatch.setattr(modmath, "_inverse_fft", lambda *args: inverses.append(1) or exact(*args))
    p = 13
    # The whole space is one class, and so is every sum of it.
    full = (1 << p * p) - 1
    assert modmath._row_classes(p, 2, full) == [((1 << p) - 1, (1 << p) - 1)]
    assert fold_masks(p, 2, full, 3) == [full] * 3
    assert not is_kl_sumfree_mask(p, 2, full, 2, 1)
    # The band {0..5} x F_p: every row is {0..5}.
    band = products_mask([((1 << p) - 1, 0b111111)], p, 2)
    assert modmath._row_classes(p, 2, band) == [((1 << p) - 1, 0b111111)]
    # Rows 0..5 carry {0..11}; the empty rows 6..12 carry no class.
    single = products_mask([(0b111111, (1 << 12) - 1)], p, 2)
    assert modmath._row_classes(p, 2, single) == [(0b111111, (1 << 12) - 1)]
    for a in (band, single):
        want = [a, pair_sum(a, a, p, 2)]
        want.append(pair_sum(want[-1], a, p, 2))
        assert fold_masks(p, 2, a, 3) == want
        assert is_kl_sumfree_mask(p, 2, a, 3, 1) == (want[2] & a == 0)
    assert not inverses
    # Two classes whose 2A has three terms: under a budget of 4 pairs, 2A
    # (2 x 2 pairs) is summed by rows, while 3A is expected to cost 3 x 2
    # more and goes to the FFT route before any pair is summed.
    a = products_mask([(0b1111111, 0b111111), (0b111111 << 7, 0b10101010101)], p, 2)
    assert a.bit_count() > modmath._FFT_THRESHOLD
    monkeypatch.setattr(modmath, "_row_pair_budget", lambda *_: 4)
    assert [len(terms) for terms in modmath._row_folds(p, 2, a, 2)] == [2, 3]
    assert modmath._row_folds(p, 2, a, 3) is None
    want = [a, pair_sum(a, a, p, 2)]
    want.append(pair_sum(want[-1], a, p, 2))
    assert fold_masks(p, 2, a, 2) == want[:2] and not inverses
    assert fold_masks(p, 2, a, 3) == want and inverses
    # Three classes whose six pair sums all differ, one more than the
    # estimate: under a budget of 24 pairs the chain to 3A is started
    # (9 + 5 x 3 expected) and left at 2A (9 + 6 x 3 needed).
    p = 29
    a = products_mask([((1 << 10) - 1, 0b11111), (((1 << 10) - 1) << 10, 0b101010101),
                       (((1 << 9) - 1) << 20, 0b1001001001001)], p, 2)
    monkeypatch.setattr(modmath, "_row_pair_budget", lambda *_: 24)
    assert [len(terms) for terms in modmath._row_folds(p, 2, a, 2)] == [3, 6]
    assert modmath._row_folds(p, 2, a, 3) is None
    want = [a, pair_sum(a, a, p, 2)]
    want.append(pair_sum(want[-1], a, p, 2))
    inverses.clear()
    assert fold_masks(p, 2, a, 3) == want and inverses
    assert is_kl_sumfree_mask(p, 2, a, 3, 1) == (want[2] & a == 0)
    # Over F_p^3 the kernel's budget is 0: even the whole space, one class,
    # takes the FFT route.
    monkeypatch.undo()
    full = (1 << 7**3) - 1
    assert modmath._row_pair_budget(7, 3) == 0 and modmath._row_folds(7, 3, full, 3) is None


# ---------------------------------------------------------------------------
# Stabilizers


@st.composite
def coset_union(draw):
    """B + H with H the span of a few random vectors, so that stabilizers are
    often nontrivial; the stabilizer must contain H and may be larger."""
    p, n = draw(space(max_cells=343))
    gens = draw(st.lists(st.integers(0, p**n - 1), max_size=n))
    h = {tuple([0] * n)}
    for g in gens:
        gv = digits(g, p, n)
        h = {tuple((x + c * y) % p for x, y in zip(v, gv)) for v in h for c in range(p)}
    base = draw(cut_mask(p**n, cap=12))
    cells = {index(tuple((x + y) % p for x, y in zip(digits(i, p, n), v)), p)
             for i in cells_of(base) for v in h}
    return p, n, sum(1 << c for c in cells), sum(1 << index(v, p) for v in h)


@given(coset_union())
def test_stabilizer_is_every_stabilizing_translate(case):
    p, n, a, h = case
    stab = stabilizer_mask(p, n, a)
    assert stab == naive_stabilizer(a, p, n)
    assert stab & h == h
    assert sym_group(VecSet.from_mask(p, n, a)).mask == stab


def test_stabilizer_of_empty_and_full_sets():
    assert stabilizer_mask(5, 2, 0) == (1 << 25) - 1
    assert stabilizer_mask(5, 2, (1 << 25) - 1) == (1 << 25) - 1
    assert stabilizer_mask(7, 0, 1) == 1


# ---------------------------------------------------------------------------
# Dilation orbits over Z_p

# Every prime up to 31 takes uint64 words; 67 and 101 take Python ints.
ORBIT_PRIMES = [p for p in range(2, 32) if is_prime(p)] + [67, 101]


def naive_orbit(p, mask):
    """(least dilate, |Stab(A)|) of a subset of Z_p, from zpset.dilate."""
    a = ZpSet.from_mask(p, mask)
    images = [dilate(a, c).mask for c in range(1, p)]
    return min(images), images.count(mask)


def primitive_root(p):
    return next(g for g in range(1, p) if len({pow(g, e, p) for e in range(p - 1)}) == p - 1)


@st.composite
def orbit_batch(draw):
    """A prime and a batch of equal-size subsets of Z_p: unions of j cosets of
    the order-d subgroup H of Z_p^* (each stabilized by H), and random sets
    of the same size, with or without 0.  j = 0 gives empty sets or {0}."""
    p = draw(st.sampled_from(ORBIT_PRIMES))
    d = draw(st.sampled_from([d for d in range(1, p) if (p - 1) % d == 0]))
    g = primitive_root(p)
    cosets = [{pow(g, i + e * ((p - 1) // d), p) for e in range(d)} for i in range((p - 1) // d)]
    j = draw(st.integers(0, min(len(cosets), max(1, 12 // d))))
    zero = draw(st.booleans())
    size = j * d + zero
    masks = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            picked = draw(st.lists(st.sampled_from(range(len(cosets))), min_size=j, max_size=j,
                                   unique=True))
            elems = set().union(*(cosets[i] for i in picked)) | ({0} if zero else set())
        else:
            elems = draw(st.sets(st.integers(0, p - 1), min_size=size, max_size=size))
        masks.append(indices_to_mask(sorted(elems)))
    return p, masks


@given(orbit_batch())
def test_dilation_orbits_match_brute_force(case):
    p, masks = case
    least, stabs = modmath.dilation_orbits(p, masks)
    assert list(zip(least, stabs)) == [naive_orbit(p, m) for m in masks]
    assert modmath.dilation_masks(p, masks[0]) == [
        dilate(ZpSet.from_mask(p, masks[0]), c).mask for c in range(1, p)]


def test_dilation_orbits_edge_cases(monkeypatch):
    assert modmath.dilation_orbits(7, []) == ([], [])
    assert modmath.dilation_orbits(2, [0b10, 0b01]) == ([0b10, 0b01], [1, 1])
    assert modmath.dilation_orbits(3, [0b100, 0b010]) == ([0b010, 0b010], [1, 1])
    assert modmath.dilation_orbits(3, [0b110, 0b011]) == ([0b110, 0b011], [2, 1])
    assert modmath.dilation_orbits(3, [0b111]) == ([0b111], [2])
    assert modmath.dilation_orbits(11, [0, 0]) == ([0, 0], [10, 10])
    assert modmath.dilation_orbits(101, [1]) == ([1], [100])
    # the quadratic residues mod 13 are the subgroup of order 6, and its
    # orbit is it and the nonresidues
    squares = indices_to_mask(sorted({x * x % 13 for x in range(1, 13)}))
    nonsquares = (1 << 13) - 2 - squares
    assert modmath.dilation_orbits(13, [squares, nonsquares]) == ([min(squares, nonsquares)] * 2, [6, 6])
    with pytest.raises(ValueError, match="one size"):
        modmath.dilation_orbits(13, [0b11, 0b111])
    # a batch split over several chunks gives the same lists
    rng = random.Random(5)
    for p in (29, 67):
        masks = [indices_to_mask(sorted(rng.sample(range(p), 6))) for _ in range(40)]
        want = modmath.dilation_orbits(p, masks)
        monkeypatch.setattr(modmath, "_ORBIT_CELLS", 7 * (p - 1) * 6)
        assert modmath.dilation_orbits(p, masks) == want
        assert want == tuple(map(list, zip(*(naive_orbit(p, m) for m in masks))))
        monkeypatch.undo()


# ---------------------------------------------------------------------------
# The FFT route: large sets in F_p^2

# Past the cut-over at p <= 19 the pairs (5,1), (5,2) and (4,3) only reject:
# their extremal cuboids have (m+1)p <= 57 points.
KL_PAIRS = ((2, 1), (3, 1), (3, 2), (4, 1), (5, 1), (5, 2), (4, 3))
# Generated structures above the FFT cut-over: at p = 17 the (2,1) cuboid,
# types 1 and 2 and rz, and the (3,2) and (4,1) cuboids (68 points); type 5
# first exceeds the cut-over at (3,1,19), with 76 points.
LARGE_PARAMS = (Params(2, 1, 17, 2), Params(3, 2, 17, 2), Params(4, 1, 17, 2), Params(3, 1, 19, 2))


def generate(kind, spec):
    return gen_cuboid(spec) if kind == "cuboid" else gen_type(spec)


# A cuboid has (m+1)p points, a type m*p.
LARGE_SPECS = [(kind, spec) for pr in LARGE_PARAMS for kind, _, spec in reference_specs(pr)
               if (pr.m + (kind == "cuboid")) * pr.p > modmath._FFT_THRESHOLD]


@st.composite
def gl2(draw, p):
    m = draw(st.lists(st.integers(0, p - 1), min_size=4, max_size=4)
             .filter(lambda e: (e[0] * e[3] - e[1] * e[2]) % p))
    return [m[:2], m[2:]]


@st.composite
def large_plane_set(draw):
    """(p, mask) for a subset of F_p^2 above the FFT cut-over, under a random
    GL_2 map: a generated structure (sum-free for its own (k,l)), possibly
    with a few points dropped; a cuboid I x F_p over a random interval I of
    Z_p, p in {11, 13, 17}; or a random set of any size past the cut-over.
    An unmoved source is a whole structure or cuboid under the identity map:
    it has at most three row classes, so its fold chains and (k,l) checks
    take the row-class route while they stay within the pair budget."""
    source = draw(st.sampled_from(("structure", "cuboid", "random", "unmoved")))
    unmoved = source == "unmoved"
    if unmoved:
        source = draw(st.sampled_from(("structure", "cuboid")))
    if source == "structure":
        kind, spec = draw(st.sampled_from(LARGE_SPECS))
        p = spec.params.p
        if kind in ("type5", "rz") and spec.pset:
            spec = TypeSpec(kind, spec.params, s=spec.s, pset=((draw(st.integers(1, p - 1)),),))
        cells = cells_of(generate(kind, spec).mask)
        if not unmoved:
            drop = draw(st.integers(0, len(cells) - modmath._FFT_THRESHOLD - 1))
            cells = draw(st.permutations(cells))[drop:]
    else:
        p = draw(st.sampled_from((11, 13, 17)))
        lo = modmath._FFT_THRESHOLD // p + 1
        if source == "cuboid":
            start, length = draw(st.integers(0, p - 1)), draw(st.integers(lo, p))
            cells = [(start + i) % p + p * y for i in range(length) for y in range(p)]
        else:
            size = draw(st.integers(modmath._FFT_THRESHOLD + 1, p * p))
            cells = draw(st.permutations(range(p * p)))[:size]
    matrix = [[1, 0], [0, 1]] if unmoved else draw(gl2(p))
    return p, apply_automorphism(VecSet.from_indices(p, 2, cells), matrix).mask


def rolled_stabilizer(a, p):
    """{g : A + g = A} over F_p^2 by trying every translate of the p x p grid."""
    grid = np.zeros((p, p), dtype=bool)
    for c in cells_of(a):
        grid[c // p, c % p] = True
    out = 0
    for g1 in range(p):
        for g0 in range(p):
            if (np.roll(grid, (g1, g0), axis=(0, 1)) == grid).all():
                out |= 1 << (g0 + p * g1)
    return out


@given(large_plane_set())
def test_fft_route_matches_roll_chain(case):
    p, a = case
    assert a.bit_count() > modmath._FFT_THRESHOLD
    rolls = [a]
    for _ in range(4):
        rolls.append(modmath._sumset_rolls(p, 2, a, rolls[-1]))
    assert fold_masks(p, 2, a, 5) == rolls
    for k, l in KL_PAIRS:
        assert is_kl_sumfree_mask(p, 2, a, k, l) == (rolls[k - 1] & rolls[l - 1] == 0)
    assert stabilizer_mask(p, 2, a) == rolled_stabilizer(a, p)


def test_fft_route_gives_both_verdicts():
    # The balanced split must accept sum-free sets, not only reject.
    matrix = [[2, 5], [1, 3]]
    for kind, spec in LARGE_SPECS:
        pr = spec.params
        a = apply_automorphism(generate(kind, spec), matrix)
        assert is_kl_sumfree_mask(pr.p, 2, a.mask, pr.k, pr.l)
    dense = VecSet.from_indices(17, 2, range(0, 289, 3)).mask
    assert not any(is_kl_sumfree_mask(17, 2, dense, k, l) for k, l in KL_PAIRS)


def test_fft_route_transform_counts(monkeypatch):
    # Deterministic work counters: A is transformed once per chain, a fold
    # step is one inverse transform, and a support is transformed only when
    # a later step needs it.
    p = 53
    a = indices_to_mask(random.Random(53).sample(range(p * p), 800))
    big = TypeSpec("type5", Params(3, 1, 503, 2), s=1, pset=((1,),))
    calls = {"forward": 0, "inverse": 0}

    def counted(name, transform):
        def wrapper(*args):
            calls[name] += 1
            return transform(*args)
        return wrapper

    monkeypatch.setattr(modmath, "_forward_fft", counted("forward", modmath._forward_fft))
    monkeypatch.setattr(modmath, "_inverse_fft", counted("inverse", modmath._inverse_fft))

    def spent(fn, *args):
        calls.update(forward=0, inverse=0)
        fn(*args)
        return calls["forward"], calls["inverse"]

    # (3,1) is 2A against A - A; (4,1) and (5,1) are 3A against A - A and A - 2A.
    for (k, l), want in {(2, 1): (1, 1), (3, 1): (1, 2), (3, 2): (2, 2), (4, 1): (2, 3),
                         (5, 1): (2, 3), (4, 3): (3, 3)}.items():
        assert spent(is_kl_sumfree_mask, p, 2, a, k, l) == want, (k, l)
    for h in range(2, 6):
        assert spent(fold_masks, p, 2, a, h) == (h - 1, h - 1)
    assert spent(stabilizer_mask, p, 2, a) == (1, 1)
    assert spent(modmath._sumset_fft, p, 2, a, a) == (1, 1)
    # The p = 503 type-5 generator's own (3,1) check: three row classes, so
    # it takes the row-class route and no transform at all.
    assert spent(gen_type, big) == (0, 0)


# ---------------------------------------------------------------------------
# FFT exactness


def test_fft_counts_off_an_integer_raise(monkeypatch):
    exact = modmath._inverse_fft
    a = VecSet.from_indices(11, 2, random.Random(11).sample(range(121), 70))
    assert len(a) > modmath._FFT_THRESHOLD and modmath._row_classes(11, 2, a.mask) is None
    want_sum, want_stab = vsumset(a, a), sym_group(a)
    want_free, want_fold = vec_is_kl_sumfree(a, 3, 1), vhfold(a, 3)
    monkeypatch.setattr(modmath, "_inverse_fft", lambda spectrum, shape: exact(spectrum, shape) + 0.3)
    with pytest.raises(GeneratorCheckError, match="FFT count off an integer"):
        vsumset(a, a)
    with pytest.raises(GeneratorCheckError, match="FFT count off an integer"):
        sym_group(a)
    with pytest.raises(GeneratorCheckError, match="FFT count off an integer"):
        vec_is_kl_sumfree(a, 3, 1)
    with pytest.raises(GeneratorCheckError, match="FFT count off an integer"):
        vhfold(a, 3)
    monkeypatch.setattr(modmath, "_inverse_fft", lambda spectrum, shape: exact(spectrum, shape) + 0.2)
    assert vsumset(a, a) == want_sum and sym_group(a) == want_stab
    assert vec_is_kl_sumfree(a, 3, 1) == want_free and vhfold(a, 3) == want_fold


def test_fft_exactness_check_survives_optimize():
    # The check is an explicit raise: with every inverse transform off by
    # 0.3 it fires under python -O, and `klsf verify` exits 2.  The set is
    # the band {3..8} x F_11 sheared by (x, y) -> (x + y, y), so each of its
    # 11 rows is a different interval and it stays on the FFT route.
    script = """
import sys
from klsf import cli, modmath
from klsf.vecset import parse_vecset

if not sys.flags.optimize:
    sys.exit("not running under -O")
literal = "p=11;n=2;{" + ",".join(f"({(x + y) % 11},{y})" for x in range(3, 9) for y in range(11)) + "}"
if modmath._row_classes(11, 2, parse_vecset(literal).mask) is not None:
    sys.exit("the set takes the row-class route")
argv = ["verify", "--k", "3", "--l", "1", "--set", literal]
print("exit", cli.main(argv))
exact = modmath._inverse_fft
modmath._inverse_fft = lambda spectrum, shape: exact(spectrum, shape) + 0.3
print("exit", cli.main(argv))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = [line for line in run.stdout.splitlines() if line.startswith("exit")]
    assert lines == ["exit 0", "exit 2"]
    assert "FFT count off an integer" in run.stderr


@pytest.mark.parametrize("p", [2, 3, 61, 67, 101])
def test_word_helpers_match_the_scalar_mask_functions(p):
    # uint64 words up to WORD_P_LIMIT = 61, object arrays of Python ints above
    rng = random.Random(p)
    masks = [0, (1 << p) - 1] + [rng.getrandbits(p) for _ in range(30)]
    words = modmath.word_array(p, masks)
    assert words.dtype == (np.uint64 if p <= modmath.WORD_P_LIMIT else object)
    assert modmath.word_array(p, words) is words
    assert words.tolist() == masks
    bits = modmath.words_to_bits(words, p)
    assert bits.shape == (len(masks), p)
    assert all((row == mask_to_bits(m, p)).all() for row, m in zip(bits, masks))
    assert modmath.words_popcount(words).tolist() == [m.bit_count() for m in masks]
    shifts = np.array([rng.randrange(p) for _ in masks]).astype(words.dtype)
    rotated = modmath.rotate_words(words, shifts, p)
    assert rotated.dtype == words.dtype
    assert rotated.tolist() == [modmath.rotate_mask(m, int(t), p) for m, t in zip(masks, shifts)]
    size = min(3, p)
    same = [indices_to_mask(sorted(rng.sample(range(p), size))) for _ in range(20)]
    residues = modmath.words_to_residues(modmath.word_array(p, same), p)
    assert residues.tolist() == [mask_to_indices(m).tolist() for m in same]
    assert modmath.words_to_residues(modmath.word_array(p, []), p).shape == (0, 0)
    if p > 2:
        with pytest.raises(ValueError, match="one size"):
            modmath.words_to_residues(modmath.word_array(p, [0b1, 0b11]), p)


@pytest.mark.parametrize("p", [2, 3, 13, 61, 67, 101, 1009])
def test_doubling_sizes_match_sumsets_on_both_routes(p, monkeypatch):
    # Sizes on both sides of the pair-table cut-over, s = 1 and s = p - 1;
    # each route is also forced on every size, in chunks of one row.
    rng = random.Random(p)
    cut = modmath._PAIR_TABLE_SIZE
    for size in sorted({1, 2, 5, cut, cut + 1, p - 1} & set(range(1, p))):
        rows = np.array([rng.sample(range(p), size) for _ in range(4)])
        want = [sumset_mask(p, 1, m, m).bit_count() for m in map(indices_to_mask, rows.tolist())]
        if size <= 40:
            assert want == [len({(x + y) % p for x in r for y in r}) for r in rows.tolist()]
        got = modmath.doubling_sizes(p, rows)
        assert got.dtype == np.int64 and got.tolist() == want
        for forced in (0, p):
            monkeypatch.setattr(modmath, "_PAIR_TABLE_SIZE", forced)
            monkeypatch.setattr(modmath, "_PAIR_TABLE_CELLS", 1)
            assert modmath.doubling_sizes(p, rows).tolist() == want
            monkeypatch.undo()
    assert modmath.doubling_sizes(p, np.zeros((3, 0), dtype=np.int64)).tolist() == [0, 0, 0]
    assert modmath.doubling_sizes(p, np.zeros((0, 1), dtype=np.int64)).shape == (0,)


@pytest.mark.parametrize("p", [13, 61, 67])
def test_dilation_orbits_take_a_list_or_a_word_array(p):
    rng = random.Random(p)
    masks = [indices_to_mask(sorted(rng.sample(range(p), 5))) for _ in range(25)]
    assert modmath.dilation_orbits(p, modmath.word_array(p, masks)) == modmath.dilation_orbits(p, masks)


def _set_algebra_cases():
    rng = random.Random(11)
    for p in (2, 5, 7):
        for _ in range(6):
            a, b = rng.getrandbits(p), rng.getrandbits(p)
            yield ZpSet.from_mask(p, a), ZpSet.from_mask(p, b), p
            yield VecSet.from_mask(p, 1, a), VecSet.from_mask(p, 1, b), p
        for _ in range(4):
            a, b = rng.getrandbits(p * p), rng.getrandbits(p * p)
            yield VecSet.from_mask(p, 2, a), VecSet.from_mask(p, 2, b), p * p


def test_shared_set_algebra_on_zpset_and_vecset():
    for a, b, cells in _set_algebra_cases():
        def members(s):
            return {i for i in range(cells) if s.mask >> i & 1}

        sa, sb = members(a), members(b)
        assert type(a.union(b)) is type(a)
        assert members(a.union(b)) == sa | sb
        assert members(a.intersection(b)) == sa & sb
        assert members(a.complement()) == set(range(cells)) - sa
        assert a.issubset(b) == (sa <= sb)
        assert a.issubset(a.union(b)) and a.intersection(b).issubset(b)
        assert len(a) == len(sa)
        assert a.is_empty() == (not sa) and a.is_full() == (len(sa) == cells)
        assert a.union(a.complement()).is_full() and a.intersection(a.complement()).is_empty()
        twin = a.complement().complement()
        assert twin == a and hash(twin) == hash(a) and twin is not a
        assert (a == b) == (sa == sb) and len({a, twin, b}) == (1 if sa == sb else 2)
        with pytest.raises(AttributeError, match=f"{type(a).__name__} is immutable"):
            a.mask = 0


def test_set_algebra_refuses_other_spaces_with_each_class_error():
    from klsf.vecset import VecSetError
    from klsf.zpset import ZpSetError, sumset

    for op in ("union", "intersection", "issubset"):
        with pytest.raises(ZpSetError, match="incompatible moduli"):
            getattr(ZpSet(7, [1]), op)(ZpSet(11, [1]))
        for other in (VecSet(7, 2, [(1, 0)]), VecSet(11, 1, [(1,)])):
            with pytest.raises(VecSetError, match="incompatible spaces"):
                getattr(VecSet(7, 1, [(1,)]), op)(other)
    with pytest.raises(ZpSetError, match="incompatible moduli"):
        sumset(ZpSet(7, [1]), ZpSet(11, [1]))
    with pytest.raises(VecSetError, match="incompatible spaces"):
        vsumset(VecSet(7, 1, [(1,)]), VecSet(7, 2, [(1, 0)]))
    for p, elems in ((7, [1, 3]), (11, []), (5, range(5))):
        z = ZpSet(p, elems)
        v = VecSet.from_zpset(z)
        assert z != v and v != z and v.to_zpset() == z
        assert z == ZpSet(p, elems) and v == VecSet(p, 1, [(e,) for e in elems])


def test_word_format_lives_in_modmath():
    # The search and the covering lab hold batched masks only through the
    # word helpers of klsf.modmath.
    src = Path(modmath.__file__).parent
    for name in ("search.py", "covering.py"):
        text = (src / name).read_text()
        for token in ("unpackbits", "bitwise_count", "WORD_P_LIMIT", "to_bytes"):
            assert token not in text, f"{name} uses {token}"
