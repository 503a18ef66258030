"""Covering property: verdicts, scan exhaustiveness, monotone reports."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from klsf import covering
from klsf.modmath import dilation_orbits, primes_in
from klsf.zpset import ZpSet, ZpSetError, dilate, sumset
from klsf.covering import covering_verdict, default_grid, tau_scan


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


def brute_force_violations(p, c, grid):
    """Canonical mask -> tau_star of every set with |A| <= c*p that meets a
    grid hypothesis and fails the covering property, by trying every subset."""
    want = {}
    for size in range(1, int(c * p) + 1):
        for combo in combinations(range(p), size):
            a = ZpSet(p, combo)
            doubling = len(sumset(a, a))
            hyp_taus = [t for t in grid if doubling <= (2 + t) * size - 3]
            if not hyp_taus:
                continue
            v = covering_verdict(a)
            if not v.covered:
                canon = min(dilate(a, cc).mask for cc in range(1, p))
                want[canon] = min(hyp_taus + [want.get(canon, Fraction(2))])
    return want


def scalar_tau_scan(p, c, grid):
    """The pruned scan one set at a time on int masks: the same tree (every
    superset of {1}, plus {0} and {0, 1}), the same per-size cut and the
    same counters as `tau_scan`, with exact rational thresholds and every
    hypothesis set judged by `covering_verdict`.  Returns
    (violations as canonical mask -> tau_star, tau_feasible, examined, hits)."""
    smax = int(c * p)
    tau_top = grid[-1]
    full = (1 << p) - 1

    def meets(doubling, size, tau):
        return doubling <= (2 + tau) * size - 3

    violations = {}

    def judge(mask, doubling, size):
        a = ZpSet.from_mask(p, mask)
        if covering_verdict(a).covered:
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
       st.sampled_from([1, covering._COVER_ROWS]))
def test_scan_matches_scalar_scan_and_brute_force(p, c, top, block, rows):
    # Small blocks force every frontier to be split across expansions, and
    # one-row chunks split every size's hypothesis sets in the cover test.
    grid = tuple(t for t in default_grid() if t <= Fraction(top, 20))
    with mock.patch.object(covering, "_BLOCK_CHILDREN", block), \
            mock.patch.object(covering, "_COVER_ROWS", rows):
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


def test_cover_test_hands_dilation_orbits_at_most_one_chunk():
    # dilation_orbits builds a (rows, p-1, s) image array, so the cover test
    # must not pass it a whole tree block's worth of flagged sets.
    calls = []

    def counted(p, masks):
        calls.append(len(masks))
        return dilation_orbits(p, masks)

    p, c, top = 29, Fraction(1, 5), Fraction(1)
    with mock.patch.object(covering, "dilation_orbits", counted):
        scan = tau_scan(p, c, grid=tuple(t for t in default_grid() if t <= top))
    assert len(scan.violations) == BENCHMARK_EXHAUSTIVE_CASES[(p, c, top)][2]
    assert calls and max(calls) <= covering._COVER_ROWS


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
    for step in (Fraction(0), Fraction(-1, 20)):
        with pytest.raises(ZpSetError, match="grid step must be positive"):
            default_grid(step)
    # an empty grid is refused, not read as "use the default grid"
    for mode in ("exhaustive", "sampled"):
        with pytest.raises(ZpSetError, match="tau grid is empty"):
            tau_scan(13, Fraction(1, 4), mode=mode, grid=())
    assert tau_scan(13, Fraction(1, 4), grid=None).grid == default_grid()


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
    # the exact verdict, also under python -O, and map to CLI exit code 2.
    script = """
import sys
from fractions import Fraction
from klsf import cli, covering
from klsf.constructions import GeneratorCheckError
import numpy as np

if not sys.flags.optimize:
    sys.exit("not running under -O")
covering._uncovered = lambda residues, doubling, p: np.ones(len(residues), dtype=bool)
try:
    covering.tau_scan(13, Fraction(1, 3))
except GeneratorCheckError as exc:
    print("raised:", exc)
print("exit", cli.main(["covering", "--p", "13", "--c", "1/3"]))
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
