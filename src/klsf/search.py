"""Exhaustive enumeration of (k,l)-sum-free subsets of Z_p, up to dilation.

Residue 0 can never occur (k*0 = l*0), so every set searched for is a
nonempty set of nonzero residues, and each such set has a dilate containing
1.  The search therefore scans only the tree rooted at {1}: a depth-first
scan adding residues in increasing order above 1.  Along the path it
maintains the h-fold sumset masks for h <= k incrementally: inserting x
updates new_h = old_h | ((new_(h-1)) + x), starting from the h-fold masks
{h} of the root.  A branch dies as soon as the k-fold and l-fold masks meet
(sumsets only grow) or when the residues left cannot reach the current
target size.  The maximum search is warm-started with the longest sum-free
interval, a legitimate lower bound computed by the tool itself.
`node_count` counts the nodes of this rooted tree.

Each hit is reduced to its dilation orbit: one pass over its p-1 dilations
gives both the canonical form (the least mask in the orbit) and the
stabilizer size |Stab(A)| = #{c : cA = A}.  The members of an orbit that
contain 1 are the sets a^(-1)A for a in A, so the tree must emit each orbit
exactly |A|/|Stab(A)| times; a different count raises GeneratorCheckError.
`labeled_count`, the number of labelled sets, follows by orbit-stabilizer as
the sum of (p-1)/|Stab(A)| over the orbits.  Orbits are reported in sorted
canonical order, so output is deterministic.  A no-pruning brute force over
all subsets of the target sizes backs the search in the test suite.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

from .modmath import GeneratorCheckError, dilation_masks
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
    return ZpSet.from_mask(a.p, _dilation_orbit(a.mask, a.p)[0])


def _dilation_orbit(mask: int, p: int) -> tuple[int, int]:
    """(least mask, stabilizer size) over the p-1 dilations of a mask."""
    images = dilation_masks(p, mask)
    return min(images), images.count(mask)


def _orbit_stabilizers(hits: list[int], p: int) -> dict[int, int]:
    """Canonical mask -> |Stab(A)| for the orbits of the hits of the tree
    rooted at {1}, after checking that each orbit was emitted |A|/|Stab(A)|
    times (once per member containing 1)."""
    stabs: dict[int, int] = {}
    emitted: Counter[int] = Counter()
    for mask in hits:
        canon, stab = _dilation_orbit(mask, p)
        stabs[canon] = stab
        emitted[canon] += 1
    for canon, stab in stabs.items():
        if emitted[canon] * stab != canon.bit_count():
            raise GeneratorCheckError(
                f"search emitted the orbit of {sorted(ZpSet.from_mask(p, canon).elements())} "
                f"{emitted[canon]} times, expected |A|/|Stab(A)| = "
                f"{canon.bit_count()}/{stab}: implementation bug"
            )
    return stabs


def _labeled_count(stabs, p: int) -> int:
    """Labelled sets in the orbits, by orbit-stabilizer: |orbit| = (p-1)/|Stab(A)|."""
    return sum((p - 1) // stab for stab in stabs)


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


def _scan(p: int, k: int, l: int, target: int | None):
    """Core DFS over the tree rooted at {1}.  target=None: find the maximum
    size and all sets containing 1 attaining it.  target=t: emit every
    sum-free set of size exactly t containing 1 (no deeper descent).

    Each node carries the mask of residues still individually compatible:
    sumsets only grow along a branch, so a residue that collides once is dead
    for the entire subtree, and the remaining-candidate count gives a sharp
    reachable-size bound.  (A subset of a sum-free set is sum-free, so every
    element of a surviving extension stays individually compatible at every
    ancestor; dropping dead residues never loses a set.)
    """
    full = (1 << p) - 1
    best = target if target is not None else max(1, _longest_sumfree_interval(p, k, l))
    if (k - l) % p == 0:
        return best, [], 0  # k*1 = l*1: the root {1}, and so every set, fails
    hits: list[int] = []
    node_count = 0
    root_folds = [1 << (h % p) for h in range(k + 1)]  # folds[h] = mask of h*{1} = {h}
    stack = [(0b10, 1, full & ~0b11, root_folds)]
    while stack:
        amask, size, cand, folds = stack.pop()
        node_count += 1
        if size == best:
            hits.append(amask)
            if target is not None:
                continue
        elif size > best and target is None:
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


def _check_p_limit(p: int, p_limit: int) -> None:
    if p > p_limit:
        raise SearchLimitError(
            f"p={p} exceeds the search limit {p_limit}; "
            f"the state space holds on the order of 2^{p // 2} sum-free sets"
        )


def enumerate_max(params: Params, p_limit: int = DEFAULT_P_LIMIT) -> SearchResult:
    """Exact maximum size of a (k,l)-sum-free subset of Z_p plus every
    extremal dilation orbit (n = 1)."""
    p, k, l = params.p, params.k, params.l
    _check_p_limit(p, p_limit)
    t0 = time.perf_counter()
    best, hits, nodes = _scan(p, k, l, target=None)
    if not hits:
        best = 0  # p | k-l makes kx = lx for every x: nothing is sum-free
    stabs = _orbit_stabilizers(hits, p)
    return SearchResult(
        params, "max", best,
        tuple(ZpSet.from_mask(p, m) for m in sorted(stabs)),
        labeled_count=_labeled_count(stabs.values(), p), node_count=nodes,
        wall_time=time.perf_counter() - t0,
    )


def enumerate_second_level(params: Params, p_limit: int = DEFAULT_P_LIMIT) -> SearchResult:
    """All nontrivial (k,l)-sum-free dilation orbits of size exactly m, each
    labeled by the classifier; unexpected labels surface as findings."""
    p, k, l, m = params.p, params.k, params.l, params.m
    _check_p_limit(p, p_limit)
    if m < 1:
        raise SearchLimitError("second-level search needs m >= 1")
    intervals = extremal_intervals(params)  # raises ParameterError outside the lam window
    t0 = time.perf_counter()
    _, hits, nodes = _scan(p, k, l, target=m)
    stabs = _orbit_stabilizers(hits, p)
    # Triviality is dilation-invariant, so one test per orbit decides it.
    nontrivial = {om: stab for om, stab in stabs.items()
                  if extremal_embedding(ZpSet.from_mask(p, om), intervals) is None}
    labeled_orbits = []
    findings = []
    for om in sorted(nontrivial):
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
        labeled_count=_labeled_count(nontrivial.values(), p), node_count=nodes,
        wall_time=time.perf_counter() - t0,
    )
