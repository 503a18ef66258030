"""Covering property: verdicts, scan exhaustiveness, monotone reports."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

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


def test_exhaustive_scan_matches_direct_enumeration():
    # Independent oracle: test every subset of Z_p with |A| <= c*p directly.
    p, c = 11, Fraction(1, 3)
    grid = default_grid()
    scan = tau_scan(p, c, mode="exhaustive", grid=grid)
    from itertools import combinations

    want = {}
    smax = int(c * p)
    for size in range(1, smax + 1):
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
    got = {v.verdict.set.mask: v.tau_star for v in scan.violations}
    assert got == want


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
        tau_scan(37, Fraction(1, 4), exhaustive_limit=31)
    with pytest.raises(ZpSetError, match="unknown mode"):
        tau_scan(13, Fraction(1, 4), mode="guess")


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
    # An early-exit scan that wrongly reports "not covered" must be caught by
    # the exact verdict, also under python -O, and map to CLI exit code 2.
    script = """
import sys
from fractions import Fraction
from klsf import cli, covering
from klsf.constructions import GeneratorCheckError

if not sys.flags.optimize:
    sys.exit("not running under -O")
covering._covers_within = lambda elems, p, target: False
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
