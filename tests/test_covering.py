"""Covering property: verdicts, scan exhaustiveness, monotone reports.

Exhaustive scans are checked against a scalar scan of the same tree and a
brute force over all subsets; sampled scans against a scan that draws and
judges one trial at a time, with every route and chunk split forced, and
with the sizes that no set can make meet a hypothesis left untested."""

import math
import os
import random
import subprocess
import sys
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from klsf import covering, modmath
from klsf.modmath import dilation_orbits, primes_in
from klsf.zpset import ApCover, ZpSet, ZpSetError, dilate, sumset
from klsf.covering import covering_verdict, covering_verdicts, default_grid, tau_scan
from test_zpset import scalar_min_ap_cover


def test_verdict_examples():
    v = covering_verdict(ZpSet(13, [0, 1, 2, 4]))
    assert (v.doubling, v.target_len, v.achieved_len, v.covered) == (8, 5, 5, True)
    iv = covering_verdict(ZpSet.interval(17, 3, 5))
    assert iv.covered and iv.target_len == len(iv.set) and iv.achieved_len == len(iv.set)
    with pytest.raises(ZpSetError):
        covering_verdict(ZpSet(13))


def test_verdict_complement_of_point():
    # |2A| = p so the target collapses to 2: by the definition taken to the
    # letter, F_p minus a point is *not* covered (it needs length p-1).
    v = covering_verdict(ZpSet(13, [x for x in range(13) if x != 5]))
    assert v.doubling == 13 and v.target_len == 2
    assert v.achieved_len == 12 and not v.covered


def test_verdict_dilation_invariance():
    rng = random.Random(83)
    for _ in range(25):
        p = rng.choice([11, 13, 17])
        a = ZpSet(p, rng.sample(range(p), rng.randrange(1, p)))
        base = covering_verdict(a)
        c = rng.randrange(2, p)
        img = covering_verdict(dilate(a, c))
        assert (img.doubling, img.target_len, img.achieved_len, img.covered) == (
            base.doubling, base.target_len, base.achieved_len, base.covered)


def scalar_verdict(a):
    """The covering verdict one set at a time, from a mask sumset and the
    scalar AP-cover scan of the tests (`test_zpset.scalar_min_ap_cover`),
    sharing no code with the batched verdict."""
    doubling = len(sumset(a, a))
    target = doubling - len(a) + 1
    length, d, start = scalar_min_ap_cover(a)
    covered = length <= target
    return covering.CoveringVerdict(a, doubling, target, length, covered,
                                    ApCover(a.p, start, d, length) if covered else None)


def brute_force_violations(p, c, grid):
    """Canonical mask -> tau_star of every set with |A| <= c*p that meets a
    grid hypothesis and fails the covering property, by trying every subset.

    A set of size s meets the hypothesis |2A| <= (2 + tau)*s - 3 exactly when
    tau >= (|2A| + 3)/s - 2, so the grid points it meets are those from the
    first one at or above that exact threshold on; each size's thresholds
    are found once per value of |2A|, by bisection of the sorted grid."""
    assert list(grid) == sorted(grid)
    want = {}
    for size in range(1, int(c * p) + 1):
        first = [bisect_left(grid, Fraction(doubling + 3, size) - 2) for doubling in range(p + 1)]
        for combo in combinations(range(p), size):
            a = ZpSet(p, combo)
            i = first[len(sumset(a, a))]
            if i == len(grid):
                continue
            v = scalar_verdict(a)
            if not v.covered:
                canon = min(dilate(a, cc).mask for cc in range(1, p))
                want[canon] = min(grid[i], want.get(canon, Fraction(2)))
    return want


def scalar_tau_scan(p, c, grid):
    """The pruned scan one set at a time on int masks: the same tree (every
    superset of {1}, plus {0} and {0, 1}), the same per-size cut and the
    same counters as `tau_scan`, with exact rational thresholds and every
    hypothesis set judged by `scalar_verdict`.  Returns
    (violations as canonical mask -> tau_star, tau_feasible, examined, hits)."""
    smax = int(c * p)
    tau_top = grid[-1]
    full = (1 << p) - 1

    def meets(doubling, size, tau):
        return doubling <= (2 + tau) * size - 3

    violations = {}

    def judge(mask, doubling, size):
        a = ZpSet.from_mask(p, mask)
        if scalar_verdict(a).covered:
            return
        canon = min(dilate(a, cc).mask for cc in range(1, p))
        violations[canon] = next(t for t in grid if meets(doubling, size, t))

    examined = hits = 0
    if smax >= 1:
        examined += 2                                   # {0} and {1}
        hits += 2 if meets(1, 1, tau_top) else 0
    stack = []
    if smax >= 2:
        examined += 1                                   # {0, 1}
        hits += 1 if meets(3, 2, tau_top) else 0
        stack = [(1, 0b11, 2, 0b111), (1, 0b10, 1, 0b100)]
    while stack:
        last, amask, size, two = stack.pop()
        if size >= smax:
            continue
        for x in range(last + 1, p):
            nmask = amask | (1 << x)
            ntwo = two | (((nmask << x) | (nmask >> (p - x))) & full)
            doubling = ntwo.bit_count()
            examined += 1
            if meets(doubling, size + 1, tau_top):
                hits += 1
                if size + 1 >= 3:
                    judge(nmask, doubling, size + 1)
            if meets(doubling, min(smax, size + 1 + (p - 1 - x)), tau_top):
                stack.append((x, nmask, size + 1, ntwo))
    first_bad = min(violations.values(), default=None)
    feasible = [t for t in grid if first_bad is None or t < first_bad]
    return violations, (feasible[-1] if feasible else None), examined, hits


def test_exhaustive_scan_matches_direct_enumeration():
    # Independent oracle: test every subset of Z_p with |A| <= c*p directly.
    p, c = 11, Fraction(1, 3)
    grid = default_grid()
    scan = tau_scan(p, c, mode="exhaustive", grid=grid)
    got = {v.verdict.set.mask: v.tau_star for v in scan.violations}
    assert got == brute_force_violations(p, c, grid)


@settings(max_examples=30)
@given(st.sampled_from(primes_in(2, 19)), st.sampled_from([Fraction(1, 3), Fraction(1, 4), Fraction(1, 5)]),
       st.integers(1, 20), st.sampled_from([3, covering._BLOCK_CHILDREN]),
       st.sampled_from([1, modmath._CHUNK_BYTES]))
def test_scan_matches_scalar_scan_and_brute_force(p, c, top, block, budget):
    # Small blocks force every frontier to be split across expansions; with a
    # budget of 1 byte, one-row batches split every size's hypothesis sets
    # between cover tests and one-row chunks its flagged sets between verdict
    # calls.
    # A bound with c*p < 1 (p = 2, or p = 3 and c < 1/3) admits no set.
    grid = tuple(t for t in default_grid() if t <= Fraction(top, 20))
    if c * p < 1:
        with pytest.raises(ZpSetError, match="admits no nonempty sets"):
            tau_scan(p, c, grid=grid)
        return
    with mock.patch.object(covering, "_BLOCK_CHILDREN", block), \
            mock.patch.object(modmath, "_CHUNK_BYTES", budget):
        scan = tau_scan(p, c, grid=grid)
    got = {v.verdict.set.mask: v.tau_star for v in scan.violations}
    violations, feasible, examined, hits = scalar_tau_scan(p, c, grid)
    assert (got, scan.tau_feasible, scan.sets_examined, scan.hypothesis_hits) == (
        violations, feasible, examined, hits)
    assert got == brute_force_violations(p, c, grid)


# (p, c, grid top) -> (sets_examined, hypothesis_hits, violation orbits, tau_feasible)
BENCHMARK_EXHAUSTIVE_CASES = {
    (29, Fraction(1, 3), Fraction(3, 5)): (948_149, 7_938, 0, Fraction(3, 5)),
    (31, Fraction(1, 3), Fraction(1, 4)): (889_561, 405, 0, Fraction(1, 4)),
    (29, Fraction(1, 4), Fraction(3, 4)): (206_968, 4_480, 0, Fraction(3, 4)),
    (29, Fraction(1, 5), Fraction(1)): (24_159, 5_782, 734, Fraction(19, 20)),
    (19, Fraction(1, 3), Fraction(1)): (12_617, 7_263, 439, Fraction(4, 5)),
    (23, Fraction(1, 4), Fraction(1)): (9_110, 3_487, 334, Fraction(19, 20)),
}


@pytest.mark.parametrize("case", list(BENCHMARK_EXHAUSTIVE_CASES))
def test_benchmark_exhaustive_counters(case):
    p, c, top = case
    scan = tau_scan(p, c, grid=tuple(t for t in default_grid() if t <= top))
    assert (scan.sets_examined, scan.hypothesis_hits, len(scan.violations),
            scan.tau_feasible) == BENCHMARK_EXHAUSTIVE_CASES[case]


def test_tree_expands_full_blocks():
    # A size is expanded before it holds a full block only once nothing
    # pending fills one, and then it is drained, so apart from at most one
    # partial block per size every expansion is full.
    p, c, top = 31, Fraction(1, 3), Fraction(1, 4)
    blocks = []

    def counted(folds, parent, x, p):
        blocks.append(len(x))
        return child_folds(folds, parent, x, p)

    child_folds = covering.child_folds
    with mock.patch.object(covering, "child_folds", counted):
        scan = tau_scan(p, c, grid=tuple(t for t in default_grid() if t <= top))
    assert sum(blocks) == scan.sets_examined - 3  # all but {0}, {1} and {0, 1}
    assert max(blocks) <= covering._BLOCK_CHILDREN
    assert len(blocks) <= -(-sum(blocks) // covering._BLOCK_CHILDREN) + int(c * p) == 228


@pytest.mark.parametrize("case", [case for case, counts in BENCHMARK_EXHAUSTIVE_CASES.items() if counts[2]])
def test_small_blocks_give_the_same_violations(case):
    # 64-child blocks merge and split every size's pending parts hundreds of
    # times on the benchmark's violation-heavy trees.
    p, c, top = case
    grid = tuple(t for t in default_grid() if t <= top)
    scans = [tau_scan(p, c, grid=grid)]
    with mock.patch.object(covering, "_BLOCK_CHILDREN", 64):
        scans.append(tau_scan(p, c, grid=grid))
    want, got = ((s.violations, s.tau_feasible, s.sets_examined, s.hypothesis_hits) for s in scans)
    assert got == want


# The benchmark's sampled scans (p = 101, c = 10/107, grid (2/5,), 1000
# trials) under the first three scan seeds of its seed-1 covering workload,
# and one scan with hits and violations:
# (p, c, grid, seed, trials) -> (sets_examined, hypothesis_hits,
# violation count, first violation masks, tau_feasible).
BENCHMARK_SAMPLED_CASES = {
    (101, Fraction(10, 107), (Fraction(2, 5),), 288545018, 1000): (1000, 0, 0, [], Fraction(2, 5)),
    (101, Fraction(10, 107), (Fraction(2, 5),), 135520872, 1000): (1000, 0, 0, [], Fraction(2, 5)),
    (101, Fraction(10, 107), (Fraction(2, 5),), 547756574, 1000): (1000, 0, 0, [], Fraction(2, 5)),
    (101, Fraction(1, 10), default_grid(), 1, 2000): (2000, 433, 202, [0x83, 0x94, 0xa4, 0x112],
                                                      Fraction(19, 20)),
}


@pytest.mark.parametrize("case", list(BENCHMARK_SAMPLED_CASES))
def test_benchmark_sampled_counters(case):
    p, c, grid, seed, trials = case
    scan = tau_scan(p, c, mode="sampled", grid=grid, seed=seed, trials=trials)
    examined, hits, count, first, feasible = BENCHMARK_SAMPLED_CASES[case]
    assert (scan.sets_examined, scan.hypothesis_hits, len(scan.violations),
            [v.verdict.set.mask for v in scan.violations[:len(first)]],
            scan.tau_feasible) == (examined, hits, count, first, feasible)


def per_trial_sampled_scan(p, c, grid, seed, trials):
    """The sampled scan one trial at a time: the same draws (one
    rng.sample(range(p), s) per trial, sizes in increasing order, the first
    trials % smax sizes taking one trial more), |2A| from a mask sumset, the
    hypotheses as exact rationals and every hit judged by `scalar_verdict`.
    Returns (violation dicts in TauScan order, tau_feasible, examined, hits)."""
    smax = int(c * p)
    rng = random.Random(seed)
    violations = {}
    examined = hits = 0
    for s in range(1, smax + 1):
        for _ in range(trials // smax + (s <= trials % smax)):
            a = ZpSet(p, rng.sample(range(p), s))
            doubling = len(sumset(a, a))
            examined += 1
            taus = [t for t in grid if doubling <= (2 + t) * s - 3]
            if not taus:
                continue
            hits += 1
            if scalar_verdict(a).covered:
                continue
            canon = ZpSet.from_mask(p, min(dilate(a, cc).mask for cc in range(1, p)))
            violations[canon.mask] = covering.Violation(scalar_verdict(canon), taus[0])
    ordered = sorted(violations.values(), key=lambda v: (v.tau_star, v.verdict.set.mask))
    first_bad = min(violations.values(), key=lambda v: v.tau_star, default=None)
    feasible = [t for t in grid if first_bad is None or t < first_bad.tau_star]
    return [v.to_dict() for v in ordered], (feasible[-1] if feasible else None), examined, hits


# (p, c, grid, trials): a small p, the word limit, the benchmark's p and a
# p whose sizes pass the pair-table cut-over (smax = 42).
SAMPLED_CASES = [(13, Fraction(1, 3), default_grid(), 600),
                 (61, Fraction(1, 5), default_grid(), 800),
                 (101, Fraction(1, 10), default_grid(), 800),
                 (101, Fraction(10, 107), (Fraction(2, 5),), 1000),
                 (211, Fraction(1, 5), default_grid(), 300)]


@pytest.mark.parametrize("case", SAMPLED_CASES)
@settings(max_examples=6)
@given(seed=st.integers(0, 2**30), route=st.sampled_from(["auto", "table", "sumset"]),
       split=st.booleans())
def test_sampled_scan_matches_per_trial_scan(case, seed, route, split):
    # route forces the pair table or the per-row sumset on every size; split
    # cuts every batch of draws, pair-sum chunk and cover-test block to one
    # row or one difference.
    p, c, grid, trials = case
    cut = {"auto": modmath._PAIR_TABLE_SIZE, "table": p, "sumset": 0}[route]
    with mock.patch.multiple(modmath, _PAIR_TABLE_SIZE=cut, _CHUNK_BYTES=1 if split else modmath._CHUNK_BYTES):
        scan = tau_scan(p, c, mode="sampled", grid=grid, seed=seed, trials=trials)
    assert ([v.to_dict() for v in scan.violations], scan.tau_feasible, scan.sets_examined,
            scan.hypothesis_hits) == per_trial_sampled_scan(p, c, grid, seed, trials)
    assert scan.mode == {"kind": "sampled", "seed": seed, "trials": trials}


# (p, c, grid top, least size tested): the loosest bound
# floor((2 + top)s - 3) lies below min(p, 2s - 1), the least |2A| of a
# size-s set, for s < 2/top; at p = 23 some of the tested sizes have hits.
SKIPPING_CASES = [(101, Fraction(1, 5), Fraction(1, 5), 10),
                  (23, Fraction(1, 3), Fraction(1, 2), 4)]


@pytest.mark.parametrize("case", SKIPPING_CASES)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sampled_scan_skips_sizes_below_cauchy_davenport(case, seed):
    # The sizes below the least tested one are drawn but their |2A| is never
    # counted, and the scan still matches the per-trial scan.
    p, c, top, least = case
    trials = 600
    grid = tuple(t for t in default_grid() if t <= top)
    counted = []
    doubling = modmath.doubling_sizes

    def spy(p, rows):
        counted.append(rows.shape[1])
        return doubling(p, rows)

    with mock.patch.object(covering, "doubling_sizes", spy):
        scan = tau_scan(p, c, mode="sampled", grid=grid, seed=seed, trials=trials)
    assert min(counted) == least and scan.sets_examined == trials
    assert ([v.to_dict() for v in scan.violations], scan.tau_feasible, scan.sets_examined,
            scan.hypothesis_hits) == per_trial_sampled_scan(p, c, grid, seed, trials)


# (n, s) on both sides of each edge of Random.sample: it tracks the picks of
# a row when n > setsize and keeps a pool of the unpicked residues otherwise,
# with setsize 21 for s <= 5 and 21 + 4^ceil(log4(3s)) above (85 for s =
# 6..21); for n = 64 and 65 the pool mode's bound m crosses 64, where its
# draws narrow from 7 to 6 bits.
SAMPLE_ROW_CASES = ([(n, s) for n in (21, 22) for s in range(1, 6)]
                    + [(30, 5), (30, 6)]
                    + [(n, s) for n in (85, 86) for s in range(6, 10)]
                    + [(n, s) for n in (64, 65) for s in (1, 5, 6, 9, 40, n)]
                    + [(2, 1), (2, 2), (7, 7), (101, 1), (101, 101)])


@pytest.mark.parametrize("n, s", SAMPLE_ROW_CASES)
def test_sample_rows_match_random_sample(n, s):
    for seed in [*range(40), 2**30 + 7, 2**64 + 1]:
        rng, ref = random.Random(seed), random.Random(seed)
        for count in (1, 3, 17):
            rows = covering._sample_rows(rng, n, s, count)
            assert rows.shape == (count, s)
            assert rows.tolist() == [ref.sample(range(n), s) for _ in range(count)]
            assert rng.getstate() == ref.getstate()


def test_scan_refuses_seeds_and_trial_counts_it_cannot_honour():
    # None would seed from OS entropy that the manifest cannot record, True
    # would run as one trial, and a float or a string would fail deep in the
    # draws.
    for mode in ("exhaustive", "sampled"):
        for seed in (None, True, False, 2.5, "7", Fraction(3)):
            with pytest.raises(ZpSetError, match="seed must be an int"):
                tau_scan(13, Fraction(1, 4), mode=mode, seed=seed, trials=100)
        for trials in (None, True, 2.5, "100", Fraction(100)):
            with pytest.raises(ZpSetError, match="trial count must be an int"):
                tau_scan(13, Fraction(1, 4), mode=mode, seed=1, trials=trials)


def test_cover_test_hands_dilation_orbits_at_most_one_chunk():
    # dilation_orbits builds a (rows, p-1, s) image array, so the cover test
    # must not pass it a whole tree block's worth of flagged sets, but at most
    # the chunk_rows(8(p-1)s) rows of one chunk; the new orbits of a chunk get
    # one batched verdict call, never one per orbit.  The small budget takes
    # 7 five-element sets per chunk.
    p, c, top = 29, Fraction(1, 5), Fraction(1)
    for budget in (7 * 8 * (p - 1) * 5, modmath._CHUNK_BYTES):
        orbit_calls, verdict_calls, rows = [], [], []

        def counted_orbits(p, masks):
            orbit_calls.append(len(masks))
            rows.append(modmath.chunk_rows(8 * (p - 1) * int(masks[0]).bit_count()))
            return dilation_orbits(p, masks)

        def counted_verdicts(p, masks):
            verdict_calls.append(len(masks))
            return covering_verdicts(p, masks)

        with mock.patch.object(covering, "dilation_orbits", counted_orbits), \
                mock.patch.object(covering, "covering_verdicts", counted_verdicts), \
                mock.patch.object(modmath, "_CHUNK_BYTES", budget):
            scan = tau_scan(p, c, grid=tuple(t for t in default_grid() if t <= top))
        assert len(scan.violations) == BENCHMARK_EXHAUSTIVE_CASES[(p, c, top)][2]
        assert orbit_calls and all(n <= most for n, most in zip(orbit_calls, rows))
        assert len(verdict_calls) == len(orbit_calls) and all(n <= most for n, most in zip(verdict_calls, rows))
        # each orbit is judged once, by the first chunk that meets it
        assert sum(verdict_calls) == len(scan.violations) > len(verdict_calls)


def test_cover_test_sees_every_hypothesis_set_once():
    # Each orbit meets the tree in several sets, so a set lost between size
    # batches would rarely change a scan's violations; count the rows instead.
    # Every set of 3 or more elements containing 1 (with or without 0) that
    # meets the loosest hypothesis is a row of exactly one cover test.
    p, c, grid = 13, Fraction(1, 3), default_grid()
    seen, calls = [], []

    def counted(residues, doubling, p):
        calls.append(residues.size)
        seen.extend(map(tuple, residues.tolist()))
        return uncovered(residues, doubling, p)

    uncovered = covering._uncovered
    for budget in (80, modmath._CHUNK_BYTES):
        cells = budget // 8  # residues per batch, 8 bytes each
        seen.clear()
        calls.clear()
        with mock.patch.object(covering, "_uncovered", counted), \
                mock.patch.object(modmath, "_CHUNK_BYTES", budget):
            tau_scan(p, c, grid=grid)
        want = [combo for size in range(3, int(c * p) + 1) for combo in combinations(range(p), size)
                if 1 in combo and len(sumset(ZpSet(p, combo), ZpSet(p, combo))) <= (2 + grid[-1]) * size - 3]
        assert sorted(seen) == sorted(want)
        # one cover test per size (3 and 4), unless the batches are cut small
        assert max(calls) <= max(cells, 4)
        assert (len(calls) == 2) == (budget == modmath._CHUNK_BYTES)


def test_scan_reports_are_monotone_and_flag_small_tau_clean():
    for p in (13, 19, 23):
        scan = tau_scan(p, Fraction(1, 4), mode="exhaustive")
        counts = [len(scan.violations_at(t)) for t in scan.grid]
        assert counts == sorted(counts)
        assert not scan.violations_at(Fraction(1, 20))
        assert scan.tau_feasible >= Fraction(1, 20)


def test_scan_mode_and_parameter_errors():
    with pytest.raises(ZpSetError, match=r"density bound c"):
        tau_scan(13, Fraction(3, 2))
    with pytest.raises(ZpSetError, match="exhaustive scan limited"):
        tau_scan(37, Fraction(1, 4))
    with pytest.raises(ZpSetError, match="unknown mode"):
        tau_scan(13, Fraction(1, 4), mode="guess")
    for trials in (0, -5):
        with pytest.raises(ZpSetError, match="at least one trial"):
            tau_scan(101, Fraction(10, 107), mode="sampled", trials=trials)
    # c*p < 1 admits no nonempty set in either mode; c*p = 1 admits one size
    for mode in ("exhaustive", "sampled"):
        for p, c in ((5, Fraction(1, 10)), (5, Fraction(199, 1000)), (2, Fraction(1, 3))):
            with pytest.raises(ZpSetError, match="density bound admits no nonempty sets"):
                tau_scan(p, c, mode=mode)
        scan = tau_scan(5, Fraction(1, 5), mode=mode, trials=10)
        assert scan.tau_feasible == 1 and not scan.violations and scan.sets_examined > 0
    for step in (Fraction(0), Fraction(-1, 20)):
        with pytest.raises(ZpSetError, match="grid step must be positive"):
            default_grid(step)
    # an empty grid is refused, not read as "use the default grid"
    for mode in ("exhaustive", "sampled"):
        with pytest.raises(ZpSetError, match="tau grid is empty"):
            tau_scan(13, Fraction(1, 4), mode=mode, grid=())
    assert tau_scan(13, Fraction(1, 4), grid=None).grid == default_grid()


def test_scan_reads_c_and_the_grid_as_exact_fractions():
    # A float is read as its exact value, so its thresholds are exact too.
    scan = tau_scan(13, 0.25, grid=(0.5, Fraction(1, 4)))
    assert scan.c == Fraction(1, 4) and scan.grid == (Fraction(1, 4), Fraction(1, 2))
    assert all(type(t) is Fraction for t in scan.grid)
    assert scan == tau_scan(13, Fraction(1, 4), grid=(Fraction(1, 4), Fraction(1, 2)))
    grid = (Fraction(-7, 3), Fraction(0), Fraction(2, 5), Fraction(19, 20), Fraction(3))
    assert covering._doubling_limits(12, grid) == [
        [math.floor((2 + t) * s - 3) for t in grid] for s in range(13)]
    for mode in ("exhaustive", "sampled"):
        for bad in (float("nan"), float("inf"), -float("inf"), "x", "1/3", None, [1]):
            with pytest.raises(ZpSetError, match="tau grid entry must be a finite real number"):
                tau_scan(13, Fraction(1, 4), mode=mode, grid=(Fraction(1, 2), bad))
            with pytest.raises(ZpSetError, match="density bound c must be a finite real number"):
                tau_scan(13, bad, mode=mode)


def test_cli_refuses_non_finite_scan_parameters(capsys):
    from klsf.cli import main

    for flags in (["--c", "nan"], ["--c", "1/4", "--tau", "inf"], ["--c", "1/4", "--tau-top", "x"]):
        assert main(["covering", "--p", "13", *flags]) == 1
        captured = capsys.readouterr()
        assert not captured.out and "parameter error" in captured.err


def test_cli_refuses_a_density_bound_below_one_set(capsys):
    from klsf.cli import main

    for mode in ("exhaustive", "sampled"):
        assert main(["covering", "--p", "5", "--c", "1/10", "--mode", mode]) == 1
        captured = capsys.readouterr()
        assert not captured.out and "density bound admits no nonempty sets" in captured.err


def test_cli_refuses_an_empty_tau_grid(capsys):
    from klsf.cli import main

    assert main(["covering", "--p", "13", "--c", "1/4", "--tau-top", "0"]) == 1
    captured = capsys.readouterr()
    assert not captured.out and "tau grid is empty" in captured.err


def test_sampled_scan_is_seeded_and_reproducible():
    a = tau_scan(101, Fraction(10, 107), mode="sampled", grid=(Fraction(2, 5),),
                 seed=7, trials=2000)
    b = tau_scan(101, Fraction(10, 107), mode="sampled", grid=(Fraction(2, 5),),
                 seed=7, trials=2000)
    assert a.sets_examined == b.sets_examined == 2000
    assert a.hypothesis_hits == b.hypothesis_hits
    assert [v.verdict.set.mask for v in a.violations] == [v.verdict.set.mask for v in b.violations]
    assert a.mode == {"kind": "sampled", "seed": 7, "trials": 2000}


def test_tiny_density_trivially_feasible():
    # |A| <= 2 forces APs, so every grid point is violation-free.
    scan = tau_scan(31, Fraction(10, 107), mode="exhaustive")
    assert scan.tau_feasible == 1 and not scan.violations


def test_violation_self_check_survives_optimize():
    # A batched cover test that wrongly reports "not covered" must be caught by
    # the exact verdict, in the exhaustive and the sampled scan, also under
    # python -O, and map to CLI exit code 2.
    script = """
import sys
from fractions import Fraction
from klsf import cli, covering
from klsf.constructions import GeneratorCheckError
import numpy as np

if not sys.flags.optimize:
    sys.exit("not running under -O")
covering._uncovered = lambda residues, doubling, p: np.ones(len(residues), dtype=bool)
for mode in ("exhaustive", "sampled"):
    try:
        covering.tau_scan(13, Fraction(1, 3), mode=mode, trials=500)
    except GeneratorCheckError as exc:
        print(mode, "raised:", exc)
    print(mode, "exit", cli.main(["covering", "--p", "13", "--c", "1/3", "--mode", mode,
                                  "--trials", "500"]))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 4
    for mode, raised, exited in zip(("exhaustive", "sampled"), lines[0::2], lines[1::2]):
        assert raised.startswith(f"{mode} raised:") and "implementation bug" in raised
        assert exited == f"{mode} exit 2"
    assert run.stderr.count("check failed") == 2


def test_scans_leave_numpy_random_unimported():
    # Importing numpy.random lifts resident memory after `import klsf` from
    # about 29.6 to 35.2 MB, which the covering benchmark would read as a
    # peak RSS regression; the sampled scan draws with random.Random.
    script = """
import sys
from fractions import Fraction
import klsf

klsf.tau_scan(19, Fraction(1, 3))
scan = klsf.tau_scan(101, Fraction(1, 10), mode="sampled", seed=1, trials=2000)
assert scan.violations, "the sampled scan should reach the verdicts"
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "random"]))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_scans_draw_without_random_sample():
    # A call of Random.sample per trial was most of a sampled scan;
    # `_sample_rows` draws the same rows from getrandbits.
    assert ".sample(" not in Path(covering.__file__).read_text()
