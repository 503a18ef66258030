"""The bit-mask kernel: conversions, sumsets, folds, sum-freeness, stabilizers.

Every property is checked against an oracle written here from the
definitions (cells as digit tuples, sums digit by digit), sharing no code
with the kernel.  Masks are drawn on both sides of the kernel's cut-overs:
the popcount above which mask -> indices stops peeling bits, and the
smaller-operand size above which a sumset takes the FFT route.  Large sets
in F_p^2 (generated structures, cuboids and random sets under random GL_2
maps) also pin the FFT route to the roll route and count its transforms.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

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
    mask_to_bits,
    mask_to_indices,
    rows_to_indices,
    stabilizer_mask,
    sumset_mask,
)
from klsf.constructions import TypeSpec, gen_cuboid, gen_type, reference_specs
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
    Z_p, p in {11, 13, 17}; or a random set of any size past the cut-over."""
    source = draw(st.sampled_from(("structure", "cuboid", "random")))
    if source == "structure":
        kind, spec = draw(st.sampled_from(LARGE_SPECS))
        p = spec.params.p
        if kind in ("type5", "rz") and spec.pset:
            spec = TypeSpec(kind, spec.params, s=spec.s, pset=((draw(st.integers(1, p - 1)),),))
        cells = cells_of(generate(kind, spec).mask)
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
    image = apply_automorphism(VecSet.from_indices(p, 2, cells), draw(gl2(p)))
    return p, image.mask


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
    # The p = 503 type-5 generator's own (3,1) check.
    assert spent(gen_type, big) == (1, 2)


# ---------------------------------------------------------------------------
# FFT exactness


def test_fft_counts_off_an_integer_raise(monkeypatch):
    exact = modmath._inverse_fft
    a = VecSet.from_indices(11, 2, list(range(0, 121, 2)) + [1, 3, 5, 7, 9])
    assert len(a) > modmath._FFT_THRESHOLD
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
    # 0.3 it fires under python -O, and `klsf verify` exits 2.
    script = """
import sys
from klsf import cli, modmath

if not sys.flags.optimize:
    sys.exit("not running under -O")
literal = "p=11;n=2;{" + ",".join(f"({x},{y})" for x in range(3, 9) for y in range(11)) + "}"
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
