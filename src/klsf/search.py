"""Exhaustive enumeration of (k,l)-sum-free subsets of Z_p, reduced by dilation.

The search is a depth-first scan adding residues in increasing order (residue
0 can never occur: k*0 = l*0).  Along the path it maintains the h-fold
sumset masks for h <= k incrementally: inserting x updates
new_h = old_h | ((new_(h-1)) + x), seeded with the 0-fold {0}.  A branch dies
as soon as the k-fold and l-fold masks meet (sumsets only grow) or when the
residues left cannot reach the current target size.  The maximum search is
warm-started with the longest sum-free interval, a legitimate lower bound
computed by the tool itself.

Results are reduced to dilation orbits via canonical_form (the least mask in
the orbit) and reported in sorted canonical order, so output is deterministic
and independent of any execution interleaving.  A no-pruning brute force over
all subsets of the target sizes backs the search in the test suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .zpset import ZpSet, is_kl_sumfree
from .vecset import Params, VecSet
from .constructions import extremal_embedding, extremal_intervals
from .classify import ClassReport, classify


class SearchLimitError(ValueError):
    """p exceeds the configured search limit."""


DEFAULT_P_LIMIT = 59


@dataclass(frozen=True)
class SearchResult:
    params: Params
    level: str                                   # "max" | "second"
    max_size: int
    extremal_orbits: tuple[ZpSet, ...]
    second_level_orbits: tuple = ()              # ((ZpSet, ClassReport), ...)
    findings: tuple[str, ...] = ()
    labeled_count: int = 0
    node_count: int = 0
    wall_time: float = field(default=0.0, compare=False)

    def to_dict(self) -> dict:
        return {
            "params": {"k": self.params.k, "l": self.params.l, "p": self.params.p},
            "level": self.level,
            "max_size": self.max_size,
            "extremal_orbits": [sorted(o.elements()) for o in self.extremal_orbits],
            "second_level_orbits": [
                {"set": sorted(o.elements()), "label": rep.label, "notes": rep.notes}
                for o, rep in self.second_level_orbits
            ],
            "findings": list(self.findings),
            "labeled_count": self.labeled_count,
            "node_count": self.node_count,
        }


def canonical_form(a: ZpSet) -> ZpSet:
    """The least bit mask among all dilations of A; constant on orbits."""
    p = a.p
    if len(a) <= 1:
        # {0} and {} are fixed; a nonzero singleton dilates onto {1}.
        if a.mask == 0 or a.mask == 1:
            return a
        return ZpSet(p, [1])
    best = min(_dilate_mask(a.mask, c, p) for c in range(1, p))
    return ZpSet.from_mask(p, best)


def _dilate_mask(mask: int, c: int, p: int) -> int:
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << (c * (low.bit_length() - 1) % p)
        mask ^= low
    return out


def _longest_sumfree_interval(p: int, k: int, l: int) -> int:
    best = 0
    for start in range(p):
        length = best  # only try to beat the record
        while length < p:
            cand = ZpSet.interval(p, start, length + 1)
            if not is_kl_sumfree(cand, k, l):
                break
            length += 1
            best = length
    return best


def _scan(p: int, k: int, l: int, target: int | None, collect_max: bool):
    """Core DFS.  target=None: find the maximum size and all sets attaining it.
    target=t: emit every sum-free set of size exactly t (no deeper descent).

    Each node carries the mask of residues still individually compatible:
    sumsets only grow along a branch, so a residue that collides once is dead
    for the entire subtree, and the remaining-candidate count gives a sharp
    reachable-size bound.  (A subset of a sum-free set is sum-free, so every
    element of a surviving extension stays individually compatible at every
    ancestor; dropping dead residues never loses a set.)
    """
    full = (1 << p) - 1
    best = target if target is not None else max(1, _longest_sumfree_interval(p, k, l))
    hits: list[int] = []
    node_count = 0
    seed_folds = [1] + [0] * k  # folds[h] = mask of the h-fold sumset
    root_cand = full & ~1      # residue 0 is never sum-free-compatible
    stack = [(0, 0, root_cand, seed_folds)]
    while stack:
        amask, size, cand, folds = stack.pop()
        node_count += 1
        if size == best:
            hits.append(amask)
            if target is not None:
                continue
        elif size > best and collect_max:
            best = size
            hits = [amask]
        if target is not None and size >= target:
            continue
        # One pass over the candidates: fold updates decide which survive.
        feasible = []
        c = cand
        while c:
            low = c & -c
            c ^= low
            x = low.bit_length() - 1
            nf = [1]
            prev = 1
            for h in range(1, k + 1):
                prev = folds[h] | (((prev << x) | (prev >> (p - x))) & full)
                nf.append(prev)
            if not nf[k] & nf[l]:
                feasible.append((low, nf))
        # Suffix candidate masks: child at position i may only use later bits.
        suffix = 0
        pushes = []
        for i in range(len(feasible) - 1, -1, -1):
            low, nf = feasible[i]
            if size + 1 + suffix.bit_count() >= best:
                pushes.append((amask | low, size + 1, suffix, nf))
            suffix |= low
        stack.extend(pushes)  # LIFO: smallest residue explored first
    return best, hits, node_count


def enumerate_max(params: Params, p_limit: int = DEFAULT_P_LIMIT) -> SearchResult:
    """Exact maximum size of a (k,l)-sum-free subset of Z_p plus every
    extremal dilation orbit (n = 1)."""
    p, k, l = params.p, params.k, params.l
    if p > p_limit:
        raise SearchLimitError(
            f"p={p} exceeds the search limit {p_limit}; "
            f"the state space holds on the order of 2^{p // 2} sum-free sets"
        )
    t0 = time.perf_counter()
    best, hits, nodes = _scan(p, k, l, target=None, collect_max=True)
    if not hits:
        best = 0  # p | k-l makes kx = lx for every x: nothing is sum-free
    labeled = [ZpSet.from_mask(p, m) for m in hits]
    orbits = sorted({canonical_form(s).mask for s in labeled})
    return SearchResult(
        params, "max", best,
        tuple(ZpSet.from_mask(p, m) for m in orbits),
        labeled_count=len(labeled), node_count=nodes,
        wall_time=time.perf_counter() - t0,
    )


def enumerate_second_level(params: Params, p_limit: int = DEFAULT_P_LIMIT) -> SearchResult:
    """All nontrivial (k,l)-sum-free dilation orbits of size exactly m, each
    labeled by the classifier; unexpected labels surface as findings."""
    p, k, l, m = params.p, params.k, params.l, params.m
    if p > p_limit:
        raise SearchLimitError(
            f"p={p} exceeds the search limit {p_limit}; "
            f"the state space holds on the order of 2^{p // 2} sum-free sets"
        )
    if m < 1:
        raise SearchLimitError("second-level search needs m >= 1")
    intervals = extremal_intervals(params)  # raises ParameterError outside the lam window
    t0 = time.perf_counter()
    _, hits, nodes = _scan(p, k, l, target=m, collect_max=False)
    labeled = (ZpSet.from_mask(p, mask) for mask in hits)
    nontrivial = [s for s in labeled if extremal_embedding(s, intervals) is None]
    orbit_masks = sorted({canonical_form(s).mask for s in nontrivial})
    labeled_orbits = []
    findings = []
    for om in orbit_masks:
        rep_set = ZpSet.from_mask(p, om)
        report = classify(VecSet.from_zpset(rep_set), k, l)
        labeled_orbits.append((rep_set, report))
        if report.label == "nontrivial-unknown":
            findings.append(
                f"unclassified nontrivial orbit of size {m}: {sorted(rep_set.elements())} "
                f"(expected below the large-m thresholds)"
            )
    return SearchResult(
        params, "second", m, (),
        second_level_orbits=tuple(labeled_orbits),
        findings=tuple(findings),
        labeled_count=len(nontrivial), node_count=nodes,
        wall_time=time.perf_counter() - t0,
    )
