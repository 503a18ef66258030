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
drawn pair budgets, against pair sums.  The routes each fold chain and
(k,l) check calls are pinned: the row-class route for the p = 11 generator
outputs below the FFT threshold, the rolls for a random set of their size,
never the row-class route in F_p^3, and no route at all once 2|A| > p^n.
Batched dilation orbits are checked against `zpset.dilate` one dilate at a
time, on uint64 words and on Python ints, with cosets of multiplicative
subgroups for nontrivial stabilizers, and the dilation images of both routes (the cached bit table up to
p = 61, packed bit arrays above) against Python products c*x % p.
Batched doubling sizes are checked against `sumset_mask` and pair sums on
both sides of the pair-table cut-over, and the block trees' fold step
`child_folds` against `fold_masks` of each child.  The Z_p route's single
wrap is checked at p = 2 and 3, on both sides of the 64-bit word (61, 67), at
p = 1019 and on the one-cell space.  Sumsets at the pigeonhole bound
|A| + |B| = p^n take each route and one element more takes none, and
stabilizers of sizes p does not divide take no transform.  Set operations on ZpSet and VecSet
build their results without re-testing p, and still refuse a mask out of
range, also under python -O.  The AP-cover scan stays in the kernel, with
products that fit their dtype at every p (its covers are checked against
scalar and brute-force scans in test_zpset.py).
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
    # Z_p sets inside F_p^1 share the shift-and-OR route with ZpSet.sumset.
    def refuse(*_):
        raise AssertionError("n = 1 below the FFT threshold must not roll arrays")

    monkeypatch.setattr(modmath, "_sumset_rolls", refuse)
    a, b = VecSet(13, 1, [(1,), (4,)]), VecSet(13, 1, [(0,), (9,), (12,)])
    assert vsumset(a, b) == VecSet(13, 1, [(0,), (1,), (3,), (4,), (10,)])


def _sparse_mask(rng, p, size):
    return sum(1 << x for x in rng.sample(range(p), size))


@pytest.mark.parametrize("p", [2, 3, 61, 67, 1019])
def test_one_wrap_sumset_edge_cases(p):
    # `_sumset_rotations` ORs the plain shifts of one operand into a 2p-bit
    # accumulator and wraps once: x + y <= 2p - 2, so one wrap is enough on
    # both sides of the 64-bit word size.  Checked against pair sums in both
    # argument orders, with singletons (a pure rotation), full operands and
    # the top residue p - 1, whose doubled shift is the largest.
    rng = random.Random(p)
    full, top = (1 << p) - 1, 1 << (p - 1)
    small = min(p, 12)
    cases = [(1, 1), (top, top), (1, top), (full, 1), (full, top), (full, _sparse_mask(rng, p, small))]
    if p <= 67:
        cases.append((full, full))
    for _ in range(6):
        cases.append((1 << rng.randrange(p), _sparse_mask(rng, p, rng.randint(1, min(p, 200)))))
        cases.append((_sparse_mask(rng, p, rng.randint(1, small)) | top,
                      _sparse_mask(rng, p, rng.randint(1, min(p, 60))) | top))
    for a, b in cases:
        want = naive_sum(a, b, p, 1)
        assert modmath._sumset_rotations(p, a, b) == want
        assert modmath._sumset_rotations(p, b, a) == want
        assert sumset_mask(p, 1, a, b) == want == sumset_mask(p, 1, b, a)
        if a.bit_count() == 1:
            assert want == modmath.rotate_mask(b, a.bit_length() - 1, p)
    assert modmath._sumset_rotations(p, full, full) == full


def test_one_wrap_sumset_on_the_one_cell_space():
    # F_p^0 is one cell, the zero vector: {0} + {0} = {0} at every p.
    for p in (2, 3, 61, 67):
        assert modmath._sumset_rotations(1, 1, 1) == 1 == naive_sum(1, 1, p, 0)
        assert sumset_mask(p, 0, 1, 1) == 1
        assert sumset_mask(p, 0, 1, 0) == 0 == sumset_mask(p, 0, 0, 1)
        zero = VecSet(p, 0, [()])
        assert vsumset(zero, zero) == zero and vhfold(zero, 3) == zero


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


def negated(mask, p, n):
    return sum(1 << index(tuple(-x % p for x in digits(i, p, n)), p) for i in cells_of(mask))


def counted_routes(monkeypatch):
    """Record the name of every route the kernel calls, in a list: the
    sumset routes, and the row-class and FFT routes of fold chains and
    (k,l) checks (whose roll fallback is one `_sumset_rolls` per step)."""
    calls = []
    for name in ("_sumset_rotations", "_sumset_rolls", "_sumset_fft", "_row_folds", "_fft_folds"):
        route = getattr(modmath, name)
        monkeypatch.setattr(modmath, name,
                            lambda *args, name=name, route=route: calls.append(name) or route(*args))
    return calls


# (p, n, |A|, the route of a pair of sizes |A| and p^n - |A|): the rotations
# at n = 1, the rolls at n = 2 and 3, and the FFT at p = 13, n = 2, the
# least p at which two operands above the FFT threshold leave room below
# the pigeonhole bound.
PIGEONHOLE_CASES = [(13, 1, 6, "_sumset_rotations"), (67, 1, 30, "_sumset_rotations"),
                    (7, 2, 20, "_sumset_rolls"), (13, 2, 84, "_sumset_fft"),
                    (3, 3, 13, "_sumset_rolls"), (5, 3, 60, "_sumset_rolls")]


@pytest.mark.parametrize("p, n, size, route", PIGEONHOLE_CASES)
def test_sumset_pigeonhole_boundary(p, n, size, route, monkeypatch):
    # B = -(complement of A) has |A| + |B| = p^n and 0 is not in A + B, so
    # the bound is tight, and that pair takes its route; one more element of
    # -A in B fills the space, which the sizes settle with no route at all.
    cells = p**n
    rng = random.Random(cells + size)
    a = indices_to_mask(rng.sample(range(cells), size))
    b = negated(a ^ ((1 << cells) - 1), p, n)
    more = b | 1 << rng.choice(cells_of(negated(a, p, n)))
    assert a.bit_count() + b.bit_count() == cells == more.bit_count() + a.bit_count() - 1
    calls = counted_routes(monkeypatch)
    for x, y in ((a, b), (b, a)):
        calls.clear()
        want = naive_sum(x, y, p, n)
        assert not want & 1
        assert sumset_mask(p, n, x, y) == want and calls == [route]
    for x, y in ((a, more), (more, a)):
        calls.clear()
        assert sumset_mask(p, n, x, y) == naive_sum(x, y, p, n) == (1 << cells) - 1
        assert calls == []
    # Whole-space results share one mask.
    assert sumset_mask(p, n, a, more) is sumset_mask(p, n, more, a)


# The p = 11 outputs of the (2,1) generators whose sets classify2d checks:
# rz with |P| = 3 (three row classes), type 1 (one) and type 2 with V = {0}
# (two), 33 points each, below the FFT threshold.  Each tuple carries the
# routes the 3-fold chain takes: one class fits the pair budget of 9, while
# the chain estimates of two and three classes (4 + 6 and 9 + 15 pairs) do
# not, and those chains fall back to one roll per step.
ROW_ROUTE = {"_row_folds", "_sumset_rotations"}
P11_SPECS = [
    (TypeSpec("rz", Params(2, 1, 11, 2), s=1, pset=((1,), (5,), (7,))), 3,
     ["_row_folds", "_sumset_rolls", "_sumset_rolls"]),
    (TypeSpec("type1", Params(2, 1, 11, 2), a=6), 1, ROW_ROUTE),
    (TypeSpec("type2", Params(2, 1, 11, 2), vbasis=()), 2,
     ["_row_folds", "_sumset_rolls", "_sumset_rolls"]),
]


def routes_of(calls):
    # Row-route calls are one `_row_folds` and its Z_p sumsets, in any number.
    return set(calls) if set(calls) == ROW_ROUTE else calls


@pytest.mark.parametrize("spec, classes, three_fold", P11_SPECS, ids=[s.which for s, *_ in P11_SPECS])
def test_structured_sets_below_the_fft_threshold_take_the_row_route(spec, classes, three_fold,
                                                                     monkeypatch):
    p = spec.params.p
    calls = counted_routes(monkeypatch)
    a = gen_type(spec).mask
    # The generator's own (2,1) self-check rolls no array.
    assert routes_of(calls) == ROW_ROUTE
    assert a.bit_count() <= modmath._FFT_THRESHOLD
    assert len(modmath._row_classes(p, 2, a)) == classes
    want = [a, naive_sum(a, a, p, 2)]
    want.append(naive_sum(want[-1], a, p, 2))
    calls.clear()
    assert is_kl_sumfree_mask(p, 2, a, 2, 1) and want[1] & a == 0
    assert routes_of(calls) == ROW_ROUTE
    calls.clear()
    assert fold_masks(p, 2, a, 3) == want
    assert routes_of(calls) == three_fold
    # A random set of the same size has more rows than the row-class route
    # admits, so it still rolls: 2A, and then 2A + A unless the sizes fill
    # the plane.
    other = indices_to_mask(random.Random(p).sample(range(p * p), a.bit_count()))
    assert modmath._row_classes(p, 2, other) is None
    want = [other, naive_sum(other, other, p, 2)]
    want.append(naive_sum(want[-1], other, p, 2))
    calls.clear()
    assert is_kl_sumfree_mask(p, 2, other, 2, 1) == (want[1] & other == 0)
    assert calls == ["_row_folds", "_sumset_rolls"]
    calls.clear()
    assert fold_masks(p, 2, other, 3) == want
    rolls = 1 + (want[1].bit_count() + other.bit_count() <= p * p)
    assert calls == ["_row_folds"] + ["_sumset_rolls"] * rolls


@pytest.mark.parametrize("p, rows, route", [(5, 2, "_sumset_rolls"), (7, 3, "_fft_folds")])
def test_no_set_in_three_dimensions_reaches_the_row_route(p, rows, route, monkeypatch):
    # A band of `rows` whole planes of F_p^3 has one row class, but the pair
    # budget is 0 at n = 3: below the FFT threshold (50 points at p = 5) it
    # rolls, above it (147 points at p = 7) it takes the FFT, and neither
    # calls `_row_folds`.  Both stay under half the space.
    a = products_mask([((1 << rows) - 1, (1 << p * p) - 1)], p, 3)
    assert 2 * a.bit_count() <= p**3
    want = [a, pair_sum(a, a, p, 3)]
    want.append(pair_sum(want[-1], a, p, 3))
    calls = counted_routes(monkeypatch)
    assert fold_masks(p, 3, a, 3) == want
    assert is_kl_sumfree_mask(p, 3, a, 3, 1) == (want[2] & a == 0)
    assert "_row_folds" not in calls and set(calls) == {route}


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


@pytest.mark.parametrize("p, n", [(7, 1), (2, 3), (3, 2), (5, 2), (3, 3)])
def test_stabilizer_settles_by_size_when_p_does_not_divide_it(p, n, monkeypatch):
    # Every size from the empty to the full set: a random set of each size,
    # and for each size that p divides a union of cosets of the line through
    # (1, 0, ..., 0), which that line stabilizes.  A size p does not divide
    # gives {0} with no transform.
    cells = p**n
    line = (1 << p) - 1
    rng = random.Random(cells)
    transforms = []
    forward = modmath._forward_fft
    monkeypatch.setattr(modmath, "_forward_fft", lambda bits: transforms.append(bits) or forward(bits))

    def checked(a):
        transforms.clear()
        stab = stabilizer_mask(p, n, a)
        assert stab == naive_stabilizer(a, p, n)
        if a.bit_count() % p:
            assert stab == 1 and not transforms
        return stab

    for size in range(cells + 1):
        checked(indices_to_mask(rng.sample(range(cells), size)))
        if size % p == 0:
            union = sum(line << p * t for t in rng.sample(range(cells // p), size // p))
            assert checked(union) & line == line


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


def naive_ratio_count(p, mask):
    """The number of c in 1..p-1 with 1 in cA whose least element of cA
    above 1 (0 if none) is the least over those c; p-1 when no cA holds 1."""
    elems = mask_to_indices(mask).tolist()
    keys = [min((y for y in images if y > 1), default=0) if 1 in images else p
            for images in ({c * x % p for x in elems} for c in range(1, p))]
    return keys.count(min(keys))


@given(orbit_batch())
def test_dilation_orbits_match_brute_force(case):
    p, masks = case
    least, stabs = modmath.dilation_orbits(p, masks)
    assert list(zip(least, stabs)) == [naive_orbit(p, m) for m in masks]
    ratios = [naive_ratio_count(p, m) for m in masks]
    assert modmath.dilation_orbits(p, masks, ratio_counts=True) == (least, stabs, ratios)
    assert modmath.dilation_images(p, masks).tolist() == [
        [dilate(ZpSet.from_mask(p, m), c).mask for c in range(1, p)] for m in masks]


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
        ratios = modmath.dilation_orbits(p, masks, ratio_counts=True)[2]
        assert ratios == [naive_ratio_count(p, m) for m in masks]
        monkeypatch.undo()
        assert modmath.dilation_orbits(p, masks, ratio_counts=True) == want + (ratios,)


@pytest.mark.parametrize("p", [7, 31, 61, 67, 101])
def test_ratio_counts_count_the_least_ratio_members(p):
    # For a set A of nonzero residues with two or more elements, the ratio
    # count is #{a in A : r*a in A}, r the least ratio y/a of two elements.
    rng = random.Random(p)
    for size in (2, 3, 5, min(9, p - 1)):
        masks = [indices_to_mask(sorted(rng.sample(range(1, p), size))) for _ in range(20)]
        got = modmath.dilation_orbits(p, masks, ratio_counts=True)[2]
        for mask, count in zip(masks, got):
            elems = mask_to_indices(mask).tolist()
            r = min(y * pow(a, -1, p) % p for a in elems for y in elems if y != a)
            assert count == sum(r * a % p in elems for a in elems), (p, elems)


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
    stab_case = indices_to_mask(random.Random(795).sample(range(p * p), 795))
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
    # Stab(A) is settled by size when p does not divide |A| (800 = 15*53 + 5),
    # and by one autocorrelation when it does (795 = 15*53).
    assert spent(stabilizer_mask, p, 2, a) == (0, 0)
    assert spent(stabilizer_mask, p, 2, stab_case) == (1, 1)
    assert spent(modmath._sumset_fft, p, 2, a, a) == (1, 1)
    # The p = 503 type-5 generator's own (3,1) check: three row classes, so
    # it takes the row-class route and no transform at all.
    assert spent(gen_type, big) == (0, 0)


# ---------------------------------------------------------------------------
# FFT exactness


def test_fft_counts_off_an_integer_raise(monkeypatch):
    exact = modmath._inverse_fft
    a = VecSet.from_indices(13, 2, random.Random(13).sample(range(169), 70))
    assert len(a) > modmath._FFT_THRESHOLD and modmath._row_classes(13, 2, a.mask) is None
    # Sizes settle everything about a 70-point set at p = 11 (140 > 121
    # cells): A + A, its fold chain and (k,l) checks, and Stab(A) (11 does
    # not divide 70), with no route and no transform.  The fold chain and
    # check take the p = 13 set above, whose rows are too varied for the
    # row-class route; the sumset takes a p = 13 pair above the FFT
    # threshold that does not fill the plane, and the stabilizer a set of
    # 66 = 6*11 points.
    filled = VecSet.from_indices(11, 2, random.Random(11).sample(range(121), 70))
    assert 2 * len(filled) > 121 and len(filled) % 11
    b, c = (VecSet.from_indices(13, 2, random.Random(size).sample(range(169), size)) for size in (70, 90))
    assert modmath._FFT_THRESHOLD < min(len(b), len(c)) and len(b) + len(c) <= 169
    s = VecSet.from_indices(11, 2, random.Random(66).sample(range(121), 66))
    want_sum, want_stab = vsumset(b, c), sym_group(s)
    want_free, want_fold = vec_is_kl_sumfree(a, 3, 1), vhfold(a, 3)
    filled_free, filled_fold = vec_is_kl_sumfree(filled, 3, 1), vhfold(filled, 3)
    assert not filled_free and filled_fold.is_full()
    monkeypatch.setattr(modmath, "_inverse_fft", lambda spectrum, shape: exact(spectrum, shape) + 0.3)
    with pytest.raises(GeneratorCheckError, match="FFT count off an integer"):
        vsumset(b, c)
    with pytest.raises(GeneratorCheckError, match="FFT count off an integer"):
        sym_group(s)
    with pytest.raises(GeneratorCheckError, match="FFT count off an integer"):
        vec_is_kl_sumfree(a, 3, 1)
    with pytest.raises(GeneratorCheckError, match="FFT count off an integer"):
        vhfold(a, 3)
    calls = counted_routes(monkeypatch)
    assert vec_is_kl_sumfree(filled, 3, 1) == filled_free and vhfold(filled, 3) == filled_fold
    assert vsumset(filled, filled) == filled_fold and sym_group(filled).mask == 1
    assert calls == []
    monkeypatch.setattr(modmath, "_inverse_fft", lambda spectrum, shape: exact(spectrum, shape) + 0.2)
    assert vsumset(b, c) == want_sum and sym_group(s) == want_stab
    assert vec_is_kl_sumfree(a, 3, 1) == want_free and vhfold(a, 3) == want_fold


def test_fft_exactness_check_survives_optimize():
    # The check is an explicit raise: with every inverse transform off by
    # 0.3 it fires under python -O, and `klsf verify` exits 2.  The set is
    # the band {3..8} x F_13 sheared by (x, y) -> (x + y, y), so each of its
    # 13 rows is a different interval and it stays on the FFT route, and its
    # 78 points leave room in the 169 cells, so its size settles nothing.
    script = """
import sys
from klsf import cli, modmath
from klsf.vecset import parse_vecset

if not sys.flags.optimize:
    sys.exit("not running under -O")
literal = "p=13;n=2;{" + ",".join(f"({(x + y) % 13},{y})" for x in range(3, 9) for y in range(13)) + "}"
if modmath._row_classes(13, 2, parse_vecset(literal).mask) is not None:
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


@pytest.mark.parametrize("p", [13, 61, 67])
def test_child_folds_match_fold_masks_of_each_child(p):
    # Every x outside each random parent A, h = 1..4: uint64 words at 13 and
    # 61, Python ints at 67.  A parent holding p - 1 makes rotations wrap.
    rng = random.Random(p)
    parents = [indices_to_mask(rng.sample(range(p), rng.randrange(1, 6))) for _ in range(4)]
    parents.append(indices_to_mask([1, p - 1]))
    pairs = [(i, x) for i, a in enumerate(parents) for x in range(p) if not a >> x & 1]
    parent = np.array([i for i, _ in pairs])
    for h in range(1, 5):
        chains = [fold_masks(p, 1, a, h) for a in parents]
        folds = [modmath.word_array(p, [chain[j] for chain in chains]) for j in range(h)]
        shifts = np.array([x for _, x in pairs]).astype(folds[0].dtype)
        got = modmath.child_folds(folds, parent, shifts, p)
        assert [f.dtype for f in got] == [folds[0].dtype] * h
        want = [fold_masks(p, 1, parents[i] | 1 << x, h) for i, x in pairs]
        assert [f.tolist() for f in got] == [list(fold) for fold in zip(*want)]
    assert any((parents[i] << x) >> p for i, x in pairs)  # some 1-fold rotation wraps


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


def direct_dilation_images(p, rows):
    """Entry (i, c-1) of `dilation_images` from Python products: the mask of
    c*A_i as the sum of the bits 1 << (c*x % p), x in A_i."""
    return [[sum(1 << (c * x % p) for x in row) for c in range(1, p)] for row in rows]


def random_rows(rng, p, size, count=5):
    """`count` random residue rows of `size` elements, and their masks."""
    rows = [sorted(rng.sample(range(p), size)) for _ in range(count)]
    return rows, [indices_to_mask(row) for row in rows]


@pytest.mark.parametrize("p", [p for p in range(2, 62) if is_prime(p)])
def test_dilation_table_matches_direct_products(p):
    # Every prime up to WORD_P_LIMIT takes the table route: sizes 0, 1, 2,
    # about p/2, p - 1 and p (0 included), and no rows at all.
    rng = random.Random(p)
    for size in sorted({0, 1, 2, p // 2, p - 1, p}):
        rows, masks = random_rows(rng, p, size)
        images = modmath.dilation_images(p, masks)
        assert images.dtype == np.uint64 and images.shape == (len(rows), p - 1)
        assert images.tolist() == direct_dilation_images(p, rows), size
    assert modmath.dilation_images(p, []).shape == (0, p - 1)


def test_dilation_images_above_the_word_limit_stay_python_ints():
    p = 67
    rng = random.Random(p)
    for size in (0, 1, 5, 33, 66, 67):
        rows, masks = random_rows(rng, p, size)
        images = modmath.dilation_images(p, masks)
        assert images.dtype == object and images.shape == (len(rows), p - 1)
        assert images.tolist() == direct_dilation_images(p, rows), size


@pytest.mark.parametrize("p", [67, 101, 1009])
def test_dilation_images_above_the_word_limit_match_direct_products_in_blocks(p, monkeypatch):
    # Above WORD_P_LIMIT the images are packed a block of (row, c) pairs at a
    # time; blocks that end inside a row, and blocks of one image, give the
    # same words.
    rng = random.Random(p)
    for size in (0, 1, 3, 40):
        rows, masks = random_rows(rng, p, size, count=3)
        want = direct_dilation_images(p, rows)
        assert modmath.dilation_images(p, masks).tolist() == want, size
        for cells in (p * 7, p):
            monkeypatch.setattr(modmath, "_ORBIT_CELLS", cells)
            assert modmath.dilation_images(p, masks).tolist() == want, (size, cells)
        monkeypatch.undo()
    assert modmath.dilation_images(p, []).shape == (0, p - 1)


def test_dilation_orbits_above_the_word_limit_bound_their_memory():
    # The bit array above WORD_P_LIMIT is built in blocks of at most
    # _ORBIT_CELLS cells, so a chunk of three-element sets at p = 1009 (the
    # 86 rows `dilation_orbits` takes at once) stays far below the 118 MB
    # of a single (86 * 1008, 1009) bit array.
    import tracemalloc

    p = 1009
    rng = random.Random(p)
    masks = [indices_to_mask(sorted(rng.sample(range(p), 3))) for _ in range(86)]
    tracemalloc.start()
    try:
        least, stabs = modmath.dilation_orbits(p, masks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, peak
    assert list(zip(least, stabs))[:8] == [naive_orbit(p, m) for m in masks[:8]]


@pytest.mark.parametrize("p", [p for p in range(2, 62) if is_prime(p)])
def test_dilation_orbits_match_least_dilates_at_every_word_prime(p):
    # Against `naive_orbit`'s minimum over every dilate, one zpset.dilate at
    # a time, on random sets and on the intervals [1, s] (s = p - 1 gives
    # the nonzero residues, which every dilation fixes).
    rng = random.Random(p)
    for size in sorted({0, 1, 2, 3, p // 3, p - 1, p} & set(range(p + 1))):
        masks = [indices_to_mask(sorted(rng.sample(range(p), size))) for _ in range(4)]
        masks.append(indices_to_mask(range(1, size + 1)) if size < p else (1 << p) - 1)
        least, stabs = modmath.dilation_orbits(p, masks)
        assert list(zip(least, stabs)) == [naive_orbit(p, m) for m in masks], size


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


def _set_operations():
    """(name, result, class, space, mask) for each set operation on ZpSet and
    VecSet: the result, and the class, space arguments and mask it must have."""
    from klsf.zpset import hfold, sumset

    rng = random.Random(41)
    for p in (2, 7, 61, 67):
        a = ZpSet(p, rng.sample(range(p), rng.randint(1, p)))
        b = ZpSet(p, rng.sample(range(p), rng.randint(1, p)))
        c = rng.randrange(1, p)
        yield "sumset", sumset(a, b), ZpSet, (p,), naive_sum(a.mask, b.mask, p, 1)
        yield "hfold", hfold(a, 3), ZpSet, (p,), naive_sum(naive_sum(a.mask, a.mask, p, 1), a.mask, p, 1)
        yield "dilate", dilate(a, c), ZpSet, (p,), sum(1 << (c * x % p) for x in a)
        yield "shift", a.shift(c), ZpSet, (p,), sum(1 << ((x + c) % p) for x in a)
        yield "complement", a.complement(), ZpSet, (p,), a.mask ^ ((1 << p) - 1)
    for p, n in ((7, 1), (5, 2), (3, 3)):
        cells = p**n
        a = VecSet.from_indices(p, n, rng.sample(range(cells), rng.randint(1, cells)))
        b = VecSet.from_indices(p, n, rng.sample(range(cells), rng.randint(1, cells)))
        g = tuple(rng.randrange(p) for _ in range(n))
        m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        m[0][-1] = (m[0][-1] + 1) % p  # a shear, or the dilation by 2 at n = 1
        yield "vsumset", vsumset(a, b), VecSet, (p, n), naive_sum(a.mask, b.mask, p, n)
        yield "vhfold", vhfold(a, 2), VecSet, (p, n), naive_sum(a.mask, a.mask, p, n)
        yield "translate", a.translate(g), VecSet, (p, n), naive_sum(a.mask, 1 << index(g, p), p, n)
        yield "apply_automorphism", apply_automorphism(a, m), VecSet, (p, n), sum(
            1 << index(tuple(sum(r[j] * v[j] for j in range(n)) % p for r in m), p) for v in a)
        yield "sym_group", sym_group(a), VecSet, (p, n), naive_stabilizer(a.mask, p, n)
        yield "union", a.union(b), VecSet, (p, n), a.mask | b.mask


def test_set_operations_build_their_result_in_the_operand_space():
    # Each result equals the validating `from_mask` build of the same mask,
    # with the same type, although `_with_mask` no longer re-tests p.
    for name, result, cls, space, mask in _set_operations():
        assert type(result) is cls, name
        assert result.mask == mask, name
        built = cls.from_mask(*space, mask)
        assert result == built and type(built) is type(result), name
        assert (result.p, result.n) == (built.p, built.n), name


def test_with_mask_skips_the_primality_test(monkeypatch):
    # The operand's modulus passed `is_prime` when it was built, so set
    # operations never run the trial division again; `from_mask` still does.
    from klsf import vecset, zpset
    from klsf.vecset import VecSetError
    from klsf.zpset import ZpSetError, hfold, sumset

    a, v = ZpSet(13, [1, 4, 6]), VecSet(5, 2, [(1, 0), (2, 3)])

    def refuse(n):
        raise AssertionError(f"is_prime({n}) re-run on a checked modulus")

    monkeypatch.setattr(zpset, "is_prime", refuse)
    monkeypatch.setattr(vecset, "is_prime", refuse)
    assert sumset(a, a).mask == naive_sum(a.mask, a.mask, 13, 1)
    assert len(hfold(a, 2)) == len(sumset(a, a)) and a.shift(3).shift(10) == a
    assert dilate(dilate(a, 2), 7) == a and a.complement().complement() == a
    assert vsumset(v, v) == vhfold(v, 2) and v.translate((1, 1)).translate((4, 4)) == v
    assert sym_group(v).mask == 1
    with pytest.raises(AssertionError, match="is_prime"):
        ZpSet.from_mask(13, 1)
    monkeypatch.undo()
    for bad in (1 << 13, -1, (1 << 14) | 1):
        with pytest.raises(ZpSetError, match="mask has bits outside"):
            a._with_mask(bad)
    for bad in (1 << 25, -1):
        with pytest.raises(VecSetError, match="mask has bits outside"):
            v._with_mask(bad)
    with pytest.raises(ZpSetError, match="not prime"):
        ZpSet.from_mask(15, 1)
    with pytest.raises(VecSetError, match="not prime"):
        VecSet.from_mask(15, 1, 1)


def test_with_mask_range_check_survives_optimize():
    # The range check is an explicit raise, so it also holds under python -O.
    script = """
import sys
from klsf.vecset import VecSet, VecSetError
from klsf.zpset import ZpSet, ZpSetError

if not sys.flags.optimize:
    sys.exit("not running under -O")
for s, bad, err in ((ZpSet(7, [1]), 1 << 7, ZpSetError), (VecSet(5, 2, [(1, 1)]), 1 << 25, VecSetError),
                    (ZpSet(7, [1]), -1, ZpSetError), (VecSet(3, 0, [()]), 2, VecSetError)):
    try:
        s._with_mask(bad)
    except err as exc:
        print("raised:", exc)
    else:
        print("accepted", bad)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 4 and all(line.startswith("raised: mask has bits outside") for line in lines)


def test_word_format_lives_in_modmath():
    # The search and the covering lab hold batched masks only through the
    # word helpers of klsf.modmath, and take their fold step from it.
    src = Path(modmath.__file__).parent
    for name in ("search.py", "covering.py"):
        text = (src / name).read_text()
        for token in ("unpackbits", "bitwise_count", "WORD_P_LIMIT", "to_bytes", "rotate_words"):
            assert token not in text, f"{name} uses {token}"


def test_ap_cover_scan_lives_in_modmath():
    # The residue sets and the covering lab read shortest AP covers and cover
    # gaps only from the kernel's scan: neither computes per-difference
    # inverses or sorts dilated images itself.
    src = Path(modmath.__file__).parent
    for name in ("zpset.py", "covering.py"):
        text = (src / name).read_text()
        for token in ("pow(", "mod_inverse", "np.sort", "argsort", "_COVER_CELLS ="):
            assert token not in text, f"{name} uses {token}"


def test_ap_cover_products_fit_their_dtype():
    # int32 products while (p-1)^2 < 2^31 (every prime the covering lab's
    # scans reach), int64 above; 46337 and 46349 are the primes either side.
    for p, dtype in ((2, np.int32), (101, np.int32), (10_007, np.int32), (46_337, np.int32),
                     (46_349, np.int64), (65_537, np.int64)):
        inverses = modmath._ap_inverses(p)
        assert inverses.dtype == dtype and len(inverses) == max(1, (p - 1) // 2)
        assert (p - 1) ** 2 <= np.iinfo(dtype).max
    assert modmath._ap_inverses(13).tolist() == [pow(d, -1, 13) for d in range(1, 7)]
