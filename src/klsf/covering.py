"""Short-progression covering laboratory for subsets of Z_p.

A set has the covering property when some arithmetic progression of length
|2A| - |A| + 1 contains it.  For a density bound c, a slack tau is feasible
when every A with |A| <= c*p and |2A| <= (2+tau)|A| - 3 has the covering
property; the scan estimates the largest feasible tau on a grid empirically.
All threshold comparisons run in exact rational arithmetic.

Exhaustive mode enumerates every set up to dilation: apart from {0}, each
dilation orbit has a representative containing the residue 1, and the
covering verdict is dilation-invariant, so scanning supersets of {1} (with
and without 0) is complete.  The tree is cut at subtrees that can no longer
meet the loosest doubling hypothesis on the declared grid: 2A only grows
along a branch, so |2A| > (2 + tau_top)*s - 3 for every reachable size s
certifies that nothing below satisfies any grid hypothesis.

A scan violation is a first-class data point, not an assertion failure: the
conjecture the scan explores is open, so violations are reported with stored
witnesses for manual audit (the CLI maps them to exit code 3).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .modmath import GeneratorCheckError, is_prime
from .zpset import ZpSet, ZpSetError, ap_cover_scan, min_ap_cover, sumset
from .search import canonical_form

DEFAULT_EXHAUSTIVE_LIMIT = 31
DEFAULT_SAMPLED_LIMIT = 10_000
DEFAULT_GRID_STEP = Fraction(1, 20)


@dataclass(frozen=True)
class CoveringVerdict:
    set: ZpSet
    doubling: int
    target_len: int
    achieved_len: int
    covered: bool
    witness: object | None  # ApCover when covered

    def to_dict(self) -> dict:
        return {
            "set": sorted(self.set.elements()),
            "p": self.set.p,
            "doubling": self.doubling,
            "target_len": self.target_len,
            "achieved_len": self.achieved_len,
            "covered": self.covered,
            "witness": None
            if self.witness is None
            else {"start": self.witness.start, "diff": self.witness.diff, "length": self.witness.length},
        }


def covering_verdict(a: ZpSet) -> CoveringVerdict:
    """Exact verdict: can A sit inside an AP of length |2A| - |A| + 1?"""
    if a.is_empty():
        raise ZpSetError("covering property is defined for nonempty sets")
    doubling = len(sumset(a, a))
    target = doubling - len(a) + 1
    cover = min_ap_cover(a)
    covered = cover.length <= target
    return CoveringVerdict(a, doubling, target, cover.length, covered, cover if covered else None)


def default_grid(step: Fraction = DEFAULT_GRID_STEP) -> tuple[Fraction, ...]:
    out = []
    t = step
    while t <= 1:
        out.append(t)
        t += step
    return tuple(out)


@dataclass(frozen=True)
class Violation:
    verdict: CoveringVerdict
    tau_star: Fraction  # smallest grid tau whose hypothesis the set meets

    def to_dict(self) -> dict:
        d = self.verdict.to_dict()
        d["tau_star"] = str(self.tau_star)
        return d


@dataclass(frozen=True)
class TauScan:
    p: int
    c: Fraction
    grid: tuple[Fraction, ...]
    tau_feasible: Fraction | None     # largest grid tau with zero violations
    violations: tuple[Violation, ...]
    mode: dict
    sets_examined: int
    hypothesis_hits: int
    wall_time: float = field(compare=False, default=0.0)

    def violations_at(self, tau: Fraction) -> list[Violation]:
        return [v for v in self.violations if v.tau_star <= tau]

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "c": str(self.c),
            "grid": [str(t) for t in self.grid],
            "tau_feasible": None if self.tau_feasible is None else str(self.tau_feasible),
            "violations": [v.to_dict() for v in self.violations],
            "mode": self.mode,
            "sets_examined": self.sets_examined,
            "hypothesis_hits": self.hypothesis_hits,
        }


def _doubling_ok(doubling: int, size: int, tau: Fraction) -> bool:
    return doubling <= (2 + tau) * size - 3


def _finish_scan(p, c, grid, mode, violations, examined, hyp_hits, t0) -> TauScan:
    violations = tuple(sorted(violations, key=lambda v: (v.tau_star, v.verdict.set.mask)))
    tau_feasible = None
    for tau in grid:
        if any(v.tau_star <= tau for v in violations):
            break
        tau_feasible = tau
    # Violation sets only gain members as tau grows; guard the report on it.
    counts = [len([v for v in violations if v.tau_star <= tau]) for tau in grid]
    if counts != sorted(counts):
        raise GeneratorCheckError("violation monotonicity broken: implementation bug")
    return TauScan(p, c, grid, tau_feasible, violations, mode, examined, hyp_hits,
                   time.perf_counter() - t0)


def tau_scan(
    p: int,
    c: Fraction,
    mode: str = "exhaustive",
    grid: tuple[Fraction, ...] | None = None,
    seed: int = 0,
    trials: int = 100_000,
    exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
) -> TauScan:
    if not is_prime(p):
        raise ZpSetError(f"modulus {p} is not prime")
    c = Fraction(c)
    if not 0 < c < 1:
        raise ZpSetError("density bound c must lie in (0, 1)")
    grid = tuple(sorted(grid)) if grid else default_grid()
    if mode == "exhaustive":
        if p > exhaustive_limit:
            raise ZpSetError(f"exhaustive scan limited to p <= {exhaustive_limit}")
        return _tau_scan_exhaustive(p, c, grid)
    if mode == "sampled":
        if p > DEFAULT_SAMPLED_LIMIT:
            raise ZpSetError(f"sampled scan limited to p <= {DEFAULT_SAMPLED_LIMIT}")
        return _tau_scan_sampled(p, c, grid, seed, trials)
    raise ZpSetError(f"unknown mode {mode!r}")


def _covers_within(elems: list[int], p: int, target: int) -> bool:
    """Early exit: does some AP of length <= target cover the sorted residues?"""
    if len(elems) <= 2 or target >= p:
        return True
    for _, length, _ in ap_cover_scan(elems, p):
        if length <= target:
            return True
    return False


def _record_violation(mask: int, doubling: int, p: int, grid, violations: dict) -> bool:
    """Covering-check a hypothesis-satisfying set; dedupe by dilation orbit.

    Returns True when the set fails the covering property; the stored witness
    is the orbit's canonical form (the verdict is dilation-invariant).
    """
    a = ZpSet.from_mask(p, mask)
    target = doubling - len(a) + 1
    if _covers_within(a.elements(), p, target):
        return False
    canon = canonical_form(a)
    if canon.mask not in violations:
        verdict = covering_verdict(canon)
        if verdict.covered:
            raise GeneratorCheckError(
                f"early-exit scan and covering_verdict disagree on {sorted(canon.elements())}: "
                "implementation bug"
            )
        tau_star = next(t for t in grid if _doubling_ok(verdict.doubling, len(verdict.set), t))
        violations[canon.mask] = Violation(verdict, tau_star)
    return True


def _tau_scan_exhaustive(p: int, c: Fraction, grid) -> TauScan:
    t0 = time.perf_counter()
    smax = int(c * p)  # |A| <= c*p with c*p never an integer for prime p
    tau_top = grid[-1]
    full = (1 << p) - 1
    violations: dict[int, Violation] = {}
    examined = 0
    hyp_hits = 0
    hyp_sets: list[tuple[int, int]] = []  # (mask, doubling) for sizes >= 3
    # Exact rational thresholds folded into an integer lookup per size.
    top_doubling = [0] + [_max_doubling(s, tau_top) for s in range(1, smax + 1)]

    if smax >= 1:
        examined += 2  # {0} (the lone orbit without nonzero elements) and {1}
        hyp_hits += 2 if 1 <= top_doubling[1] else 0
        # size 1: the 1-point AP always covers; never a violation
    stack = []
    if smax >= 2:
        stack.append((1, 0b11, 2, 0b111))               # {0,1}, 2A = {0,1,2}
        stack.append((1, 0b10, 1, 0b100))               # {1},   2A = {2}
        examined += 1
        hyp_hits += 1 if 3 <= top_doubling[2] else 0
        # size 2: always a 2-term AP with target >= 2; never a violation
    while stack:
        last, amask, size, two = stack.pop()
        if size >= smax:
            continue
        nsize = size + 1
        top = top_doubling[nsize]
        check = nsize >= 3
        for x in range(last + 1, p):
            nmask = amask | (1 << x)
            ntwo = two | (((nmask << x) | (nmask >> (p - x))) & full)
            examined += 1
            ndoub = ntwo.bit_count()
            if ndoub <= top:
                hyp_hits += 1
                if check:
                    hyp_sets.append((nmask, ndoub))
            reach = nsize + (p - 1 - x)
            if reach > smax:
                reach = smax
            if ndoub <= top_doubling[reach]:
                stack.append((x, nmask, nsize, ntwo))
            # else: 2A only grows, so no descendant meets any grid hypothesis
    for mask, doubling in hyp_sets:
        _record_violation(mask, doubling, p, grid, violations)
    mode = {"kind": "exhaustive", "normalization": "orbit representative contains 1"}
    return _finish_scan(p, c, grid, mode, violations.values(), examined, hyp_hits, t0)


def _max_doubling(size: int, tau: Fraction) -> int:
    """Largest doubling measure |2A| meeting |2A| <= (2 + tau)*size - 3."""
    bound = (2 + tau) * size - 3
    return int(bound) if bound >= 0 else -1


def _tau_scan_sampled(p: int, c: Fraction, grid, seed: int, trials: int) -> TauScan:
    t0 = time.perf_counter()
    smax = int(c * p)
    if smax < 1:
        raise ZpSetError("density bound admits no nonempty sets")
    rng = random.Random(seed)
    tau_top = grid[-1]
    violations: dict[int, Violation] = {}
    sizes = list(range(1, smax + 1))
    per = [trials // len(sizes)] * len(sizes)
    for i in range(trials - sum(per)):
        per[i] += 1
    examined = 0
    hyp_hits = 0
    for s, count in zip(sizes, per):
        for _ in range(count):
            a = ZpSet(p, rng.sample(range(p), s))
            examined += 1
            doubling = len(sumset(a, a))
            if _doubling_ok(doubling, s, tau_top):
                hyp_hits += 1
                _record_violation(a.mask, doubling, p, grid, violations)
    mode = {"kind": "sampled", "seed": seed, "trials": trials}
    return _finish_scan(p, c, grid, mode, violations.values(), examined, hyp_hits, t0)
