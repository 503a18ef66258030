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
expanded a block at a time: up to _BLOCK_CHILDREN children of pending
parents of one size are built, counted and pruned in a few array
operations.  The deepest size whose pending parents have a full block of
children goes first; only when no size has one is the shallowest pending
size expanded, whole.  No shallower size can refill it, so each size has
at most one partial block, and a size never holds more than a block's
worth of parents plus one expansion's output (fewer than 2*_BLOCK_CHILDREN
parents).  The tree is cut at subtrees that can no longer meet the loosest
doubling hypothesis on the declared grid: 2A only grows along a branch, so
|2A| > (2 + tau_top)*s - 3 for every reachable size s certifies that
nothing below satisfies any grid hypothesis.  That bound depends only on a
child's size and largest member, so it is read from one per-scan table.

Sampled mode draws trials/smax sets of each size s = 1..smax (the first
sizes take the remainder), sizes in increasing order, from one
`random.Random(seed)`, so the seeded stream fixes every scan.  Each set is
the one `Random.sample` would draw from range(p): `_sample_rows` follows
CPython's algorithm on the same `getrandbits` words, without the per-call
overhead that made `Random.sample` most of a scan.  The draws of one size
form residue rows, a `modmath.chunk_rows` batch at a time (8 bytes a
residue), whose |2A| come from one `modmath.doubling_sizes` call; masks are
built only for the rows the cover test flags.  A size s whose loosest bound
lies below min(p, 2s - 1) is drawn but not tested: by the Cauchy-Davenport
theorem no set of that size meets a hypothesis.

In both modes the sets meeting a hypothesis go, grouped by size, through one
batched AP-cover test (`_uncovered`) on their residue rows, in batches of
the same size (`modmath.words_to_residues` gives the exhaustive scan's
rows).  The test takes the differences d in blocks through the kernel's
widest-gap step (`modmath.ap_gaps`), and drops the rows a block covers
before the next.  The sets it flags in all batches of a size go on in
`chunk_rows` chunks, a set's row its 8(p-1)s bytes of dilation table words:
each chunk is reduced to its dilation orbits by one
`modmath.dilation_orbits` call, and the orbits not seen before are
re-checked by one `covering_verdicts` call, whose shortest AP covers come
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
    GeneratorCheckError, ap_covers, ap_gaps, child_folds, chunk_rows, dilation_orbits, doubling_sizes,
    indices_to_mask, is_prime, word_array, words_popcount, words_to_residues,
)
from .zpset import ApCover, ZpSet, ZpSetError

# Run time, not the word size, sets this limit.
EXHAUSTIVE_P_LIMIT = 31
DEFAULT_SAMPLED_LIMIT = 10_000
DEFAULT_GRID_STEP = Fraction(1, 20)
# Children built per block expansion of the exhaustive tree.  A block costs
# about 25 numpy calls whatever its size, and its arrays hold a few words per
# child, so 4096 runs the five largest benchmark trees 3.0-4.3x faster than
# 256 (2048: 2.1-3.3x, 1024: 1.4-2.5x; best of 3 to 7, three runs on a
# shared 2-vCPU host).  A whole scan's numpy and Python allocations peak
# (tracemalloc) at 1.30, 0.70 and 0.85 MB on the three largest benchmark
# trees, (p, c, top of grid) = (29, 1/3, 3/5), (31, 1/3, 1/4) and
# (29, 1/4, 3/4).
_BLOCK_CHILDREN = 4096


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


def _record_violations(p: int, size: int, masks, limits, grid, violations: dict) -> None:
    """Reduce sets of one size that the batched test found uncovered to their
    dilation orbits and re-check the orbits not seen before with the exact
    verdict, one batched call per `chunk_rows` chunk of sets (a set's row is
    its 8(p-1)*size bytes of dilation table words); the stored witness is the
    orbit's canonical form (the verdict is dilation-invariant)."""
    chunk = chunk_rows(8 * (p - 1) * size)
    for lo in range(0, len(masks), chunk):
        orbits = dict.fromkeys(dilation_orbits(p, masks[lo:lo + chunk])[0])
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
    # 2A only grows along a branch, so no descendant of a child of size s
    # with largest member x meets any hypothesis once its |2A| exceeds the
    # loosest bound at every size it can reach: bound[s][x] is that bound,
    # -1 at x = p - 1, which has no children.
    bound = top[np.minimum(np.arange(smax + 1)[:, None] + (p - 1) - np.arange(p), smax)]
    bound[:, p - 1] = -1
    found: dict[int, list] = {}  # size >= 3 -> [(masks, doublings)] meeting a hypothesis
    # Pending parents per size, as parts (largest member, mask, mask of 2A),
    # and the number of their children.
    frontier: list[list[tuple]] = [[] for _ in range(smax + 1)]
    pending = [0] * (smax + 1)

    examined = 2  # {0} (the lone orbit without nonzero elements) and {1}
    hyp_hits = 2 if 1 <= top[1] else 0
    # size 1: the 1-point AP always covers; never a violation
    if smax >= 2:
        examined += 1  # {0, 1}
        hyp_hits += 1 if 3 <= top[2] else 0
        # size 2: always a 2-term AP with target >= 2; never a violation
        frontier[1].append((np.array([1]), word_array(p, [0b10]), word_array(p, [0b100])))  # {1}, 2A = {2}
        pending[1] = p - 2
        if smax > 2:  # {0, 1}, 2A = {0, 1, 2}
            frontier[2].append((np.array([1]), word_array(p, [0b11]), word_array(p, [0b111])))
            pending[2] = p - 2
    sizes = range(smax - 1, 0, -1)
    while True:
        # The deepest size with a full block, else the shallowest pending one.
        level = next((s for s in sizes if pending[s] >= _BLOCK_CHILDREN),
                     next((s for s in reversed(sizes) if pending[s]), 0))
        if not level:
            break
        last, masks, twos = (np.concatenate(a) for a in zip(*frontier[level]))
        counts = (p - 1) - last
        ends = np.cumsum(counts)
        take = max(1, int(np.searchsorted(ends, _BLOCK_CHILDREN, side="right")))
        counts, total = counts[:take], int(ends[take - 1])
        frontier[level] = [(last[take:], masks[take:], twos[take:])] if take < len(last) else []
        pending[level] -= total
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
            keep = ndoub <= bound[size][x]
            if keep.any():
                x = x[keep]
                frontier[size].append((x, nmasks[keep], ntwos[keep]))
                pending[size] += int((p - 1) * len(x) - x.sum())

    violations: dict[int, Violation] = {}
    for size, parts in found.items():
        masks = np.concatenate([m for m, _ in parts])
        doubling = np.concatenate([d for _, d in parts])
        batch = chunk_rows(8 * size)
        flagged = []
        for lo in range(0, len(masks), batch):
            part = slice(lo, lo + batch)
            flagged.append(masks[part][_uncovered(words_to_residues(masks[part], p), doubling[part], p)])
        _record_violations(p, size, np.concatenate(flagged), limits, grid, violations)
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
        batch = chunk_rows(8 * s)
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
        _record_violations(p, s, flagged, limits, grid, violations)
    mode = {"kind": "sampled", "seed": seed, "trials": trials}
    return _finish_scan(p, c, grid, mode, violations.values(), examined, hyp_hits, t0)
