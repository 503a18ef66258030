"""Short-progression covering laboratory for subsets of Z_p.

A set has the covering property when some arithmetic progression of length
|2A| - |A| + 1 contains it.  For a density bound c, a slack tau is feasible
when every A with |A| <= c*p and |2A| <= (2+tau)|A| - 3 has the covering
property; the scan estimates the largest feasible tau on a grid empirically.
The density bound and every grid point are read once as exact Fractions
(NaN, infinities and non-numbers are refused, and so is a bound with
c*p < 1, which admits no nonempty set), and each hypothesis bound
(2+tau)*s - 3 is rounded down to an integer once per (size, grid point) in
integer arithmetic, so no per-set test uses fractions or floats.

Exhaustive mode (p <= 31) enumerates every set up to dilation: apart from
{0}, each dilation orbit has a representative containing the residue 1, and
the covering verdict is dilation-invariant, so scanning supersets of {1}
(with and without 0) is complete.  Sets and their sumsets 2A are p-bit masks
held in `klsf.modmath` word arrays and counted by its word helpers; a
child's A and 2A come from the one fold step `modmath.child_folds`, which
the Z_p search shares (2A is its fold at h = 2).  The limit p <= 31 bounds
the run time, not the word (from p = 29 to 31 the node count grows up to
7.2x, and no larger p has been checked against an oracle).  The tree is
expanded a block at a time: up to _BLOCK_CHILDREN children of parents of
one size are built, counted and pruned in a few array operations, deepest
size first, so at most one block per size is pending.  The tree is cut at
subtrees that can no longer meet the loosest doubling hypothesis on the
declared grid: 2A only grows along a branch, so |2A| > (2 + tau_top)*s - 3
for every reachable size s certifies that nothing below satisfies any grid
hypothesis.

Sampled mode draws trials/smax sets of each size s = 1..smax (the first
sizes take the remainder), sizes in increasing order, from one
`random.Random(seed)`, so the seeded stream fixes every scan.  Each set is
the one `Random.sample` would draw from range(p): `_sample_rows` follows
CPython's algorithm on the same `getrandbits` words, without the per-call
overhead that made `Random.sample` most of a scan.  The draws of one size
form residue rows, up to _SAMPLE_CELLS residues per batch, whose |2A| come
from one `modmath.doubling_sizes` call; masks are built only for the rows
the cover test flags.  A size s whose loosest bound lies below
min(p, 2s - 1) is drawn but not tested: by the Cauchy-Davenport theorem no
set of that size meets a hypothesis.

In both modes the sets meeting a hypothesis go, grouped by size, through one
batched AP-cover test (`_uncovered`) on their residue rows, a batch of at
most _SAMPLE_CELLS residues per call (`modmath.words_to_residues` gives the
exhaustive scan's rows).  The test takes the differences d in blocks through
the kernel's widest-gap step (`modmath.ap_gaps`), and drops the rows a block
covers before the next.  The sets it flags in all batches of a size go on in
chunks of at most _COVER_ROWS rows: each chunk is reduced to its dilation
orbits by one `modmath.dilation_orbits` call, and the orbits not seen before
are re-checked by one `covering_verdicts` call, whose shortest AP covers come
from the kernel's AP-cover scan (`modmath.ap_covers`, the scan behind
`zpset.min_ap_cover`), every d for every row over the same gap step.

A scan violation is a first-class data point, not an assertion failure: the
conjecture the scan explores is open, so violations are reported with stored
witnesses for manual audit (the CLI maps them to exit code 3).
"""

from __future__ import annotations

import math
import numbers
import random
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .modmath import (
    GeneratorCheckError, ap_covers, ap_gaps, child_folds, dilation_orbits, doubling_sizes, indices_to_mask,
    is_prime, word_array, words_popcount, words_to_residues,
)
from .zpset import ApCover, ZpSet, ZpSetError

# Run time, not the word size, sets this limit.
EXHAUSTIVE_P_LIMIT = 31
DEFAULT_SAMPLED_LIMIT = 10_000
DEFAULT_GRID_STEP = Fraction(1, 20)
# Children built per block expansion of the exhaustive tree.  A block costs
# about 25 numpy calls whatever its size, and its arrays hold a few words per
# child, so 4096 runs the p = 29 and p = 31 benchmark trees about 4.7x faster
# than 256 (2048: 3.2x, 1024: 2.3x), while a whole scan's numpy and Python
# allocations still peak below 1 MB.
_BLOCK_CHILDREN = 4096
# Flagged sets per `dilation_orbits` call, and so at most as many new orbits
# per `covering_verdicts` call.  A verdict call costs a few dozen numpy
# operations whatever its size; 256 rows keep each of its (rows, D, s) image
# blocks within `modmath._COVER_CELLS` for sets of up to 64 elements.
_COVER_ROWS = 256
# Both scans run the cover test on the hypothesis sets of one size in batches
# of at most this many residues (a sampled scan also draws its trials in
# them, one `_sample_rows` call per batch).  A lone seed-1 benchmark
# covering pass peaks at 32.8-32.9 MB resident with 2^16 (24 exhaustive
# cover tests) and 32.1-32.2 MB with 2^14 (29 tests), but in the benchmark
# 2^14 reads item_p90_ms 25.6-26.2 against 23.4-23.7 and the same
# peak_rss_mb (4 alternating pairs), where the digests the harness keeps
# dominate.
_SAMPLE_CELLS = 1 << 16


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
    """Exact verdict: can A sit inside an AP of length |2A| - |A| + 1?  The
    witness is `zpset.min_ap_cover(A)`: both read the kernel's AP-cover scan
    (`modmath.ap_covers`), with its tie rules."""
    if a.is_empty():
        raise ZpSetError("covering property is defined for nonempty sets")
    return covering_verdicts(a.p, [a.mask])[0]


def covering_verdicts(p: int, masks) -> list[CoveringVerdict]:
    """`covering_verdict` of each of a batch of nonempty equal-size subsets of
    Z_p (p-bit masks, as a list or a word array), in the order of `masks`.

    |2A| comes from `modmath.doubling_sizes` and the shortest AP cover from
    `modmath.ap_covers`: ties go to the smallest d, then to the smallest
    start, as in `zpset.min_ap_cover`.
    """
    words = word_array(p, masks)
    residues = words_to_residues(words, p)
    rows, size = residues.shape
    if not rows:
        return []
    if not size:
        raise ZpSetError("covering property is defined for nonempty sets")
    doubling = doubling_sizes(p, residues)
    out = []
    for mask, two, d, start, length in zip(words.tolist(), doubling.tolist(),
                                           *(x.tolist() for x in ap_covers(p, residues))):
        target = two - size + 1
        covered = length <= target
        witness = ApCover(p, start, d, length) if covered else None
        out.append(CoveringVerdict(ZpSet.from_mask(p, mask), two, target, length, covered, witness))
    return out


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
    c = _exact(c, "density bound c")
    if not 0 < c < 1:
        raise ZpSetError("density bound c must lie in (0, 1)")
    if c * p < 1:
        raise ZpSetError("density bound admits no nonempty sets")
    for name, value in (("seed", seed), ("trial count", trials)):
        # A seed of None would draw from OS entropy, which the manifest
        # cannot record, and True would run as 1.
        if not isinstance(value, int) or isinstance(value, bool):
            raise ZpSetError(f"{name} must be an int, got {value!r}")
    if mode == "sampled" and trials < 1:
        raise ZpSetError(f"sampled scan needs at least one trial, got {trials}")
    grid = default_grid() if grid is None else tuple(sorted(_exact(t, "tau grid entry") for t in grid))
    if not grid:
        raise ZpSetError("tau grid is empty")
    if mode == "exhaustive":
        if p > EXHAUSTIVE_P_LIMIT:
            raise ZpSetError(f"exhaustive scan limited to p <= {EXHAUSTIVE_P_LIMIT}")
        return _tau_scan_exhaustive(p, c, grid)
    if mode == "sampled":
        if p > DEFAULT_SAMPLED_LIMIT:
            raise ZpSetError(f"sampled scan limited to p <= {DEFAULT_SAMPLED_LIMIT}")
        return _tau_scan_sampled(p, c, grid, seed, trials)
    raise ZpSetError(f"unknown mode {mode!r}")


def _exact(x, what: str) -> Fraction:
    """A real number as the Fraction of its exact value; NaN, infinities and
    non-numbers are refused."""
    if isinstance(x, numbers.Real):
        try:
            return Fraction(x)
        except (ValueError, OverflowError):
            pass
    raise ZpSetError(f"{what} must be a finite real number, got {x!r}")


def _doubling_limits(smax: int, grid) -> list[list[int]]:
    """limits[s][i] is the largest integer |2A| with |2A| <= (2 + tau)*s - 3,
    tau = grid[i] = a/b, that is ((2b + a)*s - 3b) // b, for s = 0..smax.
    Each row is nondecreasing because the grid is sorted, so its last entry
    is the loosest hypothesis for size s.  A negative bound admits no set."""
    ratios = [(t.numerator, t.denominator) for t in grid]
    return [[((2 * b + a) * s - 3 * b) // b for a, b in ratios] for s in range(smax + 1)]


def _uncovered(residues: np.ndarray, doubling: np.ndarray, p: int) -> np.ndarray:
    """Which rows of an (N, s) array of sets of s >= 1 distinct residues mod p
    no AP of length |2A| - s + 1 covers, given |2A| per row (a bool array).

    The differences go in blocks through `modmath.ap_gaps`, over the rows
    that no earlier block covered.
    """
    residues = np.asarray(residues, dtype=np.int32)
    rows, size = residues.shape
    left = np.arange(rows)
    wide = p - (np.asarray(doubling, dtype=np.int64) - size + 1)  # covered iff a gap is this wide
    lo = 0
    while lo < p // 2 and len(left):
        gap = ap_gaps(p, residues, lo)[1].max(axis=2)
        keep = (gap < wide[:, None]).all(axis=1)
        left, residues, wide = left[keep], residues[keep], wide[keep]
        lo += gap.shape[1]
    out = np.zeros(rows, dtype=bool)
    out[left] = True
    return out


def _record_violations(p: int, masks, limits, grid, violations: dict) -> None:
    """Reduce sets of one size that the batched test found uncovered to their
    dilation orbits and re-check the orbits not seen before with the exact
    verdict, one batched call per chunk of _COVER_ROWS sets; the stored
    witness is the orbit's canonical form (the verdict is
    dilation-invariant)."""
    for lo in range(0, len(masks), _COVER_ROWS):
        orbits = dict.fromkeys(dilation_orbits(p, masks[lo:lo + _COVER_ROWS])[0])
        for verdict in covering_verdicts(p, [m for m in orbits if m not in violations]):
            if verdict.covered:
                raise GeneratorCheckError(
                    f"batched cover test and covering_verdicts disagree on {sorted(verdict.set.elements())}: "
                    "implementation bug"
                )
            tau_star = grid[bisect_left(limits[len(verdict.set)], verdict.doubling)]
            violations[verdict.set.mask] = Violation(verdict, tau_star)


def _tau_scan_exhaustive(p: int, c: Fraction, grid) -> TauScan:
    t0 = time.perf_counter()
    smax = int(c * p)  # the largest size with |A| <= c*p, at least 1
    limits = _doubling_limits(smax, grid)
    top = np.array([row[-1] for row in limits])
    found: dict[int, list] = {}  # size >= 3 -> [(masks, doublings)] meeting a hypothesis
    # Pending parents per size, as arrays (largest member, mask, mask of 2A).
    frontier: list[tuple | None] = [None] * (smax + 1)

    examined = 2  # {0} (the lone orbit without nonzero elements) and {1}
    hyp_hits = 2 if 1 <= top[1] else 0
    # size 1: the 1-point AP always covers; never a violation
    if smax >= 2:
        examined += 1  # {0, 1}
        hyp_hits += 1 if 3 <= top[2] else 0
        # size 2: always a 2-term AP with target >= 2; never a violation
        frontier[1] = (np.array([1]), word_array(p, [0b10]), word_array(p, [0b100]))  # {1}, 2A = {2}
        if smax > 2:  # {0, 1}, 2A = {0, 1, 2}
            frontier[2] = (np.array([1]), word_array(p, [0b11]), word_array(p, [0b111]))
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
        parent = np.repeat(np.arange(take), counts)
        nmasks, ntwos = child_folds((masks, twos), parent, x.astype(masks.dtype), p)
        ndoub = words_popcount(ntwos)
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
        batch = max(1, _SAMPLE_CELLS // size)
        flagged = []
        for lo in range(0, len(masks), batch):
            part = slice(lo, lo + batch)
            flagged.append(masks[part][_uncovered(words_to_residues(masks[part], p), doubling[part], p)])
        _record_violations(p, np.concatenate(flagged), limits, grid, violations)
    mode = {"kind": "exhaustive", "normalization": "orbit representative contains 1"}
    return _finish_scan(p, c, grid, mode, violations.values(), examined, hyp_hits, t0)


def _sample_rows(rng: random.Random, n: int, s: int, count: int) -> np.ndarray:
    """`count` draws of s residues mod n as a (count, s) int array, each the
    row `Random.sample` would draw from range(n), from the same
    `rng.getrandbits` words, so `rng` ends in the same state.

    Like CPython's `Random.sample`, it tracks the picks of a row when n
    exceeds the size of a small set and a pool of the unpicked residues
    otherwise, and draws a residue below m as the first m.bit_length()-bit
    word below m.  A dict keeps the picks: a list lookup is quadratic in s.
    """
    getrandbits = rng.getrandbits
    setsize = 21 + (4 ** math.ceil(math.log(3 * s, 4)) if s > 5 else 0)
    out: list[int] = []
    if n > setsize:
        bits = n.bit_length()
        for _ in range(count):
            row = {}  # the picks so far, in order
            while len(row) < s:
                r = getrandbits(bits)
                if r < n:
                    row[r] = None
            out += row
    else:
        for _ in range(count):
            pool = list(range(n))
            for m in range(n, n - s, -1):
                bits = m.bit_length()
                r = getrandbits(bits)
                while r >= m:
                    r = getrandbits(bits)
                out.append(pool[r])
                pool[r] = pool[m - 1]
    return np.array(out, dtype=np.int64).reshape(count, s)


def _tau_scan_sampled(p: int, c: Fraction, grid, seed: int, trials: int) -> TauScan:
    t0 = time.perf_counter()
    smax = int(c * p)
    rng = random.Random(seed)
    violations: dict[int, Violation] = {}
    sizes = list(range(1, smax + 1))
    per = [trials // len(sizes)] * len(sizes)
    for i in range(trials - sum(per)):
        per[i] += 1
    limits = _doubling_limits(min(smax, trials), grid)
    examined = 0
    hyp_hits = 0
    for s, count in zip(sizes, per):
        if not count:
            continue
        top = limits[s][-1]
        # Cauchy-Davenport: |2A| >= min(p, 2s - 1), so below that no draw of
        # size s meets a hypothesis.  Its rows are still drawn, to keep the
        # seeded stream and the examined count.
        reachable = top >= min(p, 2 * s - 1)
        batch = max(1, _SAMPLE_CELLS // s)
        flagged = []
        for lo in range(0, count, batch):
            rows = _sample_rows(rng, p, s, min(batch, count - lo))
            examined += len(rows)
            if not reachable:
                continue
            doubling = doubling_sizes(p, rows)
            hit = doubling <= top
            hits = rows[hit]
            hyp_hits += len(hits)
            if len(hits):
                flagged += map(indices_to_mask, hits[_uncovered(hits, doubling[hit], p)].tolist())
        _record_violations(p, flagged, limits, grid, violations)
    mode = {"kind": "sampled", "seed": seed, "trials": trials}
    return _finish_scan(p, c, grid, mode, violations.values(), examined, hyp_hits, t0)
