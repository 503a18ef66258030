"""Short-progression covering laboratory for subsets of Z_p.

A set has the covering property when some arithmetic progression of length
|2A| - |A| + 1 contains it.  For a density bound c, a slack tau is feasible
when every A with |A| <= c*p and |2A| <= (2+tau)|A| - 3 has the covering
property; the scan estimates the largest feasible tau on a grid empirically.
The hypothesis bounds (2+tau)*s - 3 are exact: each is rounded down to an
integer once per (size, grid point), so no per-set test uses fractions.

Exhaustive mode (p <= 31) enumerates every set up to dilation: apart from
{0}, each dilation orbit has a representative containing the residue 1, and
the covering verdict is dilation-invariant, so scanning supersets of {1}
(with and without 0) is complete.  Sets and their sumsets 2A are p-bit masks
held in numpy uint64 words.  2A grows by rotations within p bits, so a word
would hold any p <= 63; the limit p <= 31 bounds the run time instead (from
p = 29 to 31 the node count grows up to 7.2x, and no larger p has been
checked against an oracle).  The tree is expanded a block at a time: up to
_BLOCK_CHILDREN children of parents of one size are built, counted and
pruned in a few array operations, deepest size first, so at most one block
per size is pending.  The tree is cut at subtrees that can no longer meet
the loosest doubling hypothesis on the declared grid: 2A only grows along a
branch, so |2A| > (2 + tau_top)*s - 3 for every reachable size s certifies
that nothing below satisfies any grid hypothesis.

In both modes the sets meeting a hypothesis go, grouped by size, through one
batched AP-cover test (`_uncovered`); the exhaustive scan feeds it chunks
of _COVER_ROWS sets, smaller than the tree blocks.  The sets it flags in a
chunk are reduced to their dilation orbits by one `modmath.dilation_orbits`
call, and each orbit not seen before is re-checked with `covering_verdict`.

A scan violation is a first-class data point, not an assertion failure: the
conjecture the scan explores is open, so violations are reported with stored
witnesses for manual audit (the CLI maps them to exit code 3).
"""

from __future__ import annotations

import random
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .modmath import GeneratorCheckError, dilation_orbits, indices_to_mask, is_prime, sumset_mask
from .zpset import ZpSet, ZpSetError, min_ap_cover, sumset

# Run time, not the uint64 word (masks rotate within p bits), sets this limit.
EXHAUSTIVE_P_LIMIT = 31
DEFAULT_SAMPLED_LIMIT = 10_000
DEFAULT_GRID_STEP = Fraction(1, 20)
# Children built per block expansion of the exhaustive tree.  A block costs
# about 25 numpy calls whatever its size, and its arrays hold a few words per
# child, so 4096 runs the p = 29 and p = 31 benchmark trees about 4.7x faster
# than 256 (2048: 3.2x, 1024: 2.3x), while a whole scan's numpy and Python
# allocations still peak below 1 MB.
_BLOCK_CHILDREN = 4096
# Rows per batched cover test in the exhaustive scan.  The flagged rows of a
# chunk go to `dilation_orbits`, which builds a (rows, p-1, s) image array, so
# this stays small: at 4096 rows a lone p = 29, c = 1/5 scan peaks 5.5 MB
# higher in resident memory for about 15% less time on the violation-heavy
# benchmark scans.
_COVER_ROWS = 256


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
    if step <= 0:
        raise ZpSetError(f"grid step must be positive, got {step}")
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


def _finish_scan(p, c, grid, mode, violations, examined, hyp_hits, t0) -> TauScan:
    violations = tuple(sorted(violations, key=lambda v: (v.tau_star, v.verdict.set.mask)))
    # Compare grid positions, not fractions: v.tau_star <= grid[i] iff the
    # first position of v.tau_star in the sorted grid is at most i, so the
    # least such position over all violations is the first infeasible one.
    first: dict[Fraction, int] = {}
    for i, tau in enumerate(grid):
        first.setdefault(tau, i)
    bad = min((first[v.tau_star] for v in violations), default=len(grid))
    tau_feasible = grid[bad - 1] if bad else None
    return TauScan(p, c, grid, tau_feasible, violations, mode, examined, hyp_hits,
                   time.perf_counter() - t0)


def tau_scan(
    p: int,
    c: Fraction,
    mode: str = "exhaustive",
    grid: tuple[Fraction, ...] | None = None,
    seed: int = 0,
    trials: int = 100_000,
) -> TauScan:
    if not is_prime(p):
        raise ZpSetError(f"modulus {p} is not prime")
    c = Fraction(c)
    if not 0 < c < 1:
        raise ZpSetError("density bound c must lie in (0, 1)")
    if mode == "sampled" and trials < 1:
        raise ZpSetError(f"sampled scan needs at least one trial, got {trials}")
    grid = tuple(sorted(grid)) if grid else default_grid()
    if mode == "exhaustive":
        if p > EXHAUSTIVE_P_LIMIT:
            raise ZpSetError(f"exhaustive scan limited to p <= {EXHAUSTIVE_P_LIMIT}")
        return _tau_scan_exhaustive(p, c, grid)
    if mode == "sampled":
        if p > DEFAULT_SAMPLED_LIMIT:
            raise ZpSetError(f"sampled scan limited to p <= {DEFAULT_SAMPLED_LIMIT}")
        return _tau_scan_sampled(p, c, grid, seed, trials)
    raise ZpSetError(f"unknown mode {mode!r}")


def _max_doubling(size: int, tau: Fraction) -> int:
    """Largest doubling measure |2A| meeting |2A| <= (2 + tau)*size - 3."""
    bound = (2 + tau) * size - 3
    return int(bound) if bound >= 0 else -1


def _doubling_limits(smax: int, grid) -> list[list[int]]:
    """limits[s][i] = _max_doubling(s, grid[i]) for s = 0..smax; each row is
    nondecreasing because the grid is sorted, so its last entry is the
    loosest hypothesis for size s."""
    return [[_max_doubling(s, t) for t in grid] for s in range(smax + 1)]


def _uncovered(residues: np.ndarray, doubling: np.ndarray, p: int) -> np.ndarray:
    """Which rows of an (N, s) array of sets of s distinct residues mod p no
    AP of length |2A| - s + 1 covers, given |2A| per row (a bool array).

    The shortest AP of difference d containing A is the complement of the
    widest gap between cyclically consecutive members of d^(-1)*A (the scan
    of `zpset.ap_cover_scan`, here one array operation per d over the rows
    not yet covered); d and -d give the same length, so d <= (p-1)/2 will do.
    """
    rows, size = residues.shape
    left = np.arange(rows)
    wide = p - (np.asarray(doubling, dtype=np.int64) - size + 1)  # covered iff a gap is this wide
    for d in range(1, max(2, (p + 1) // 2)):
        if not len(left):
            break
        img = np.sort(residues * pow(d, -1, p) % p, axis=1)
        gap = np.diff(np.concatenate([img, img[:, :1] + p], axis=1), axis=1).max(axis=1) - 1
        keep = gap < wide
        left, residues, wide = left[keep], residues[keep], wide[keep]
    out = np.zeros(rows, dtype=bool)
    out[left] = True
    return out


def _record_violations(p: int, masks, limits, grid, violations: dict) -> None:
    """Reduce sets of one size that the batched test found uncovered to their
    dilation orbits and re-check each new orbit with the exact verdict; the
    stored witness is the orbit's canonical form (the verdict is
    dilation-invariant)."""
    for canon_mask in dict.fromkeys(dilation_orbits(p, masks)[0]):
        if canon_mask in violations:
            continue
        canon = ZpSet.from_mask(p, canon_mask)
        verdict = covering_verdict(canon)
        if verdict.covered:
            raise GeneratorCheckError(
                f"batched cover test and covering_verdict disagree on {sorted(canon.elements())}: "
                "implementation bug"
            )
        tau_star = grid[bisect_left(limits[len(canon)], verdict.doubling)]
        violations[canon.mask] = Violation(verdict, tau_star)


def _residues(masks: np.ndarray, size: int, p: int) -> np.ndarray:
    """(N, size) ascending residues of N uint64 masks with `size` bits each."""
    bits = np.unpackbits(masks.astype("<u8").view(np.uint8).reshape(-1, 8), axis=1,
                         bitorder="little")[:, :p]
    return np.nonzero(bits)[1].reshape(-1, size)


def _tau_scan_exhaustive(p: int, c: Fraction, grid) -> TauScan:
    t0 = time.perf_counter()
    smax = int(c * p)  # |A| <= c*p with c*p never an integer for prime p
    limits = _doubling_limits(smax, grid)
    top = np.array([row[-1] for row in limits])
    full = (1 << p) - 1
    examined = 0
    hyp_hits = 0
    found: dict[int, list] = {}  # size >= 3 -> [(masks, doublings)] meeting a hypothesis
    # Pending parents per size, as arrays (largest member, mask, mask of 2A).
    frontier: list[tuple | None] = [None] * (smax + 1)

    if smax >= 1:
        examined += 2  # {0} (the lone orbit without nonzero elements) and {1}
        hyp_hits += 2 if 1 <= top[1] else 0
        # size 1: the 1-point AP always covers; never a violation
    if smax >= 2:
        examined += 1  # {0, 1}
        hyp_hits += 1 if 3 <= top[2] else 0
        # size 2: always a 2-term AP with target >= 2; never a violation
        frontier[1] = _block(1, 0b10, 0b100)       # {1},   2A = {2}
        if smax > 2:
            frontier[2] = _block(1, 0b11, 0b111)   # {0,1}, 2A = {0,1,2}
    level = min(2, smax - 1)  # the deepest size with pending parents
    while level >= 1:
        if frontier[level] is None:
            level -= 1
            continue
        last, masks, twos = frontier[level]
        counts = (p - 1) - last
        ends = np.cumsum(counts)
        take = max(1, int(np.searchsorted(ends, _BLOCK_CHILDREN, side="right")))
        frontier[level] = None if take == len(last) else (last[take:], masks[take:], twos[take:])
        counts, total = counts[:take], int(ends[take - 1])
        # The children of parent i add x = last[i] + 1, ..., p - 1 in turn.
        x = np.arange(total) + np.repeat(last[:take] + 1 - (ends[:take] - counts), counts)
        bit = x.astype(np.uint64)
        nmasks = np.repeat(masks[:take], counts) | (np.uint64(1) << bit)
        ntwos = np.repeat(twos[:take], counts) | (((nmasks << bit) | (nmasks >> (p - bit))) & full)
        ndoub = np.bitwise_count(ntwos)
        size = level + 1
        examined += total
        hit = ndoub <= top[size]
        hits = int(np.count_nonzero(hit))
        hyp_hits += hits
        if hits and size >= 3:
            found.setdefault(size, []).append((nmasks[hit], ndoub[hit]))
        if size < smax:
            # 2A only grows, so no descendant of a child that misses the
            # loosest hypothesis at every reachable size meets any of them.
            reach = np.minimum(size + (p - 1) - x, smax)
            keep = (ndoub <= top[reach]) & (x < p - 1)
            if keep.any():
                frontier[size] = (x[keep], nmasks[keep], ntwos[keep])
                level = size

    violations: dict[int, Violation] = {}
    for size, parts in found.items():
        masks = np.concatenate([m for m, _ in parts])
        doubling = np.concatenate([d for _, d in parts])
        for lo in range(0, len(masks), _COVER_ROWS):
            part = slice(lo, lo + _COVER_ROWS)
            flagged = _uncovered(_residues(masks[part], size, p), doubling[part], p)
            _record_violations(p, masks[part][flagged].tolist(), limits, grid, violations)
    mode = {"kind": "exhaustive", "normalization": "orbit representative contains 1"}
    return _finish_scan(p, c, grid, mode, violations.values(), examined, hyp_hits, t0)


def _block(last: int, mask: int, two: int) -> tuple:
    return (np.array([last]), np.array([mask], dtype=np.uint64), np.array([two], dtype=np.uint64))


def _tau_scan_sampled(p: int, c: Fraction, grid, seed: int, trials: int) -> TauScan:
    t0 = time.perf_counter()
    smax = int(c * p)
    if smax < 1:
        raise ZpSetError("density bound admits no nonempty sets")
    rng = random.Random(seed)
    violations: dict[int, Violation] = {}
    sizes = list(range(1, smax + 1))
    per = [trials // len(sizes)] * len(sizes)
    for i in range(trials - sum(per)):
        per[i] += 1
    limits = _doubling_limits(min(smax, trials), grid)
    population = range(p)
    examined = 0
    hyp_hits = 0
    for s, count in zip(sizes, per):
        if not count:
            continue
        top = limits[s][-1]
        hits, masks, doublings = [], [], []
        for _ in range(count):
            elems = rng.sample(population, s)
            mask = indices_to_mask(elems)
            doubling = sumset_mask(p, 1, mask, mask).bit_count()
            if doubling <= top:
                hits.append(elems)
                masks.append(mask)
                doublings.append(doubling)
        examined += count
        hyp_hits += len(hits)
        if hits:
            flagged = _uncovered(np.array(hits), np.array(doublings), p)
            _record_violations(p, [m for m, f in zip(masks, flagged) if f], limits, grid, violations)
    mode = {"kind": "sampled", "seed": seed, "trials": trials}
    return _finish_scan(p, c, grid, mode, violations.values(), examined, hyp_hits, t0)
