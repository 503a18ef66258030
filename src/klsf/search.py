"""Exhaustive enumeration of (k,l)-sum-free subsets of Z_p, up to dilation.

Residue 0 can never occur (k*0 = l*0), so every set searched for is a
nonempty set of nonzero residues, and each such set has a dilate containing
1.  The search therefore scans only the tree rooted at {1}: a depth-first
scan adding residues in increasing order above 1.  Along the path it
maintains the h-fold sumset masks for h <= k incrementally: inserting x
updates new_h = old_h | ((new_(h-1)) + x), starting from the h-fold masks
{h} of the root.  A branch dies as soon as the k-fold and l-fold masks meet
(sumsets only grow) or when the residues left cannot reach the current
target size.  The maximum search is warm-started with the size of the
longest sum-free interval, a lower bound read off a closed form: the
interval [a, a+L-1] is (k,l)-sum-free iff (k+l)(L-1) <= p-2 and
(l-k)a mod p lies in [k(L-1)+1, p-1-l(L-1)] (the gap between the arcs kI
and lI), so the longest has L = m+1, m = (p-2)//(k+l), and starts at
a = (km+1)(l-k)^(-1).  That interval is built and checked with
`is_kl_sumfree` before the bound is used.  When p | k-l nothing is
sum-free, and the scan returns before any of this.

The tree is expanded a block of up to _BLOCK_NODES same-size nodes at a
time: every (node, candidate) pair of a block goes through the fold updates
and both cuts in a few array operations, with no per-node Python loop.
A block keeps one flat word array per fold, h = 1..k (the 0-fold {0} stays
implicit), so a pair's 1-fold is its parent's with bit x set and each
higher fold is one gather and one rotation.  Masks are the word arrays of
`klsf.modmath` (uint64 words for p <= 61, Python ints above, which only a
raised p_limit reaches), unpacked, counted and rotated by its word helpers.
The tree is the same as a node-at-a-time scan's: `node_count` counts its
nodes, and `prunes_collision` and `prunes_size` the pairs cut by each test.

The hits are reduced to their dilation orbits in one batched
`modmath.dilation_orbits` call, which gives each hit's canonical form (the
least mask in its orbit) and stabilizer size |Stab(A)| = #{c : cA = A}
from its p-1 dilates.  The members of an orbit that
contain 1 are the sets a^(-1)A for a in A, so the tree must emit each orbit
exactly |A|/|Stab(A)| times; a different count raises GeneratorCheckError.
`labeled_count`, the number of labelled sets, follows by orbit-stabilizer as
the sum of (p-1)/|Stab(A)| over the orbits.  On the second level one
`constructions.extremal_embeddings` call decides the triviality of every
orbit, and only the nontrivial ones reach the classifier.  Orbits are
reported in sorted canonical order, so output is deterministic.  A
no-pruning brute force over all subsets of the target sizes backs the
search in the test suite, as does the raw hit list against every sum-free
set containing 1.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .modmath import (
    GeneratorCheckError, dilation_orbits, rotate_words, word_array, words_popcount, words_to_bits,
)
from .zpset import ZpSet, is_kl_sumfree
from .vecset import Params
from .constructions import extremal_embeddings, extremal_intervals
from .classify import ClassReport, _classify_1d


class SearchLimitError(ValueError):
    """p exceeds the configured search limit."""


DEFAULT_P_LIMIT = 59
# Nodes per block of the scan.  An expansion costs about 5 numpy calls per
# fold whatever the block's size; larger blocks run faster but hold more
# temporaries (2048 rows add about 2 MB to the benchmark's peak memory).
_BLOCK_NODES = 256


class ScanCounts(NamedTuple):
    """Work counters of one scan, each a SearchResult field of the same name."""
    node_count: int
    prunes_collision: int   # (node, candidate) pairs whose k-fold and l-fold masks meet
    prunes_size: int        # children cut because their candidates cannot reach `best`


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
    prunes_collision: int = 0
    prunes_size: int = 0
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
            "prunes_collision": self.prunes_collision,
            "prunes_size": self.prunes_size,
        }


def canonical_form(a: ZpSet) -> ZpSet:
    """The least bit mask among all dilations of A; constant on orbits."""
    return a._with_mask(dilation_orbits(a.p, [a.mask])[0][0])


def _orbit_stabilizers(hits: list[int], p: int) -> dict[int, int]:
    """Canonical mask -> |Stab(A)| for the orbits of the hits of the tree
    rooted at {1}, all of one size, from one `dilation_orbits` call over the
    whole hit list, after checking that each orbit was emitted |A|/|Stab(A)|
    times (once per member containing 1)."""
    least, stab_sizes = dilation_orbits(p, hits)
    stabs = dict(zip(least, stab_sizes))
    emitted = Counter(least)
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


def _warm_start(p: int, k: int, l: int) -> int:
    """The size m+1 of the longest (k,l)-sum-free interval of Z_p (p not
    dividing k-l), after checking the interval the closed form names."""
    m = (p - 2) // (k + l)
    start = (k * m + 1) * pow(l - k, -1, p) % p
    interval = ZpSet.interval(p, start, m + 1)
    if not is_kl_sumfree(interval, k, l):
        raise GeneratorCheckError(
            f"warm-start interval {sorted(interval.elements())} of Z_{p} is not "
            f"({k},{l})-sum-free: implementation bug"
        )
    return m + 1


def _scan(p: int, k: int, l: int, target: int | None):
    """Core DFS over the tree rooted at {1}.  target=None: find the maximum
    size and all sets containing 1 attaining it.  target=t: emit every
    sum-free set of size exactly t containing 1 (no deeper descent).
    Returns (best, hit masks, ScanCounts).

    Each node carries the mask of residues still individually compatible:
    sumsets only grow along a branch, so a residue that collides once is dead
    for the entire subtree, and the remaining-candidate count gives a sharp
    reachable-size bound.  (A subset of a sum-free set is sum-free, so every
    element of a surviving extension stays individually compatible at every
    ancestor; dropping dead residues never loses a set.)

    The stack holds blocks of at most _BLOCK_NODES nodes of one size: word
    arrays of set masks and candidate masks, and a tuple of k fold arrays,
    folds[h-1] the masks of the h-fold sumsets, h = 1..k.  One expansion
    builds every (node, candidate x) pair of a block and runs the fold
    updates on all pairs at once: the 1-fold is folds[0][parent] | (1 << x)
    and each higher fold is folds[h-1][parent] | (the pair's (h-1)-fold
    rotated by x).  It keeps the children whose k-fold and l-fold masks stay
    apart.
    A child may only add the feasible residues of its parent above x (every
    set is met once, in increasing order), and is cut when those cannot
    lift it to `best`.  Children are pushed so that the lowest-x block pops
    first.
    """
    if (k - l) % p == 0:
        # k*1 = l*1: the root {1}, and so every set, fails
        return (0 if target is None else target), [], ScanCounts(0, 0, 0)
    best = target if target is not None else _warm_start(p, k, l)
    hits: list[int] = []
    nodes = collisions = cuts = 0
    # folds[h-1] holds the h-fold masks of a block, h = 1..k; the root's are {h}
    folds = tuple(word_array(p, [1 << (h % p)]) for h in range(1, k + 1))
    stack = [(1, word_array(p, [0b10]), word_array(p, [(1 << p) - 4]), folds)]
    while stack:
        size, amask, cand, folds = stack.pop()
        nodes += len(amask)
        if size == best:
            hits.extend(amask.tolist())
            if target is not None:
                continue
        elif size > best and target is None:
            best = size
            hits = amask.tolist()
        if target is not None and size >= target:
            continue
        parent, x = np.nonzero(words_to_bits(cand, p))
        x = x.astype(amask.dtype)
        bit = 1 << x
        nf = [folds[0][parent] | bit]  # the children's fold masks, h = 1..k
        for fold in folds[1:]:
            nf.append(fold[parent] | rotate_words(nf[-1], x, p))
        ok = ((nf[k - 1] & nf[l - 1]) == 0).nonzero()[0]
        collisions += len(x) - len(ok)
        parent, x, bit = parent[ok], x[ok], bit[ok]
        feasible = np.zeros(len(amask), dtype=amask.dtype)
        np.bitwise_or.at(feasible, parent, bit)
        suffix = (feasible[parent] >> (x + 1)) << (x + 1)
        keep = (size + 1 + words_popcount(suffix) >= best).nonzero()[0]
        cuts += len(ok) - len(keep)
        child_masks = amask[parent[keep]] | bit[keep]
        child_cand = suffix[keep]
        rows = ok[keep]
        child_folds = tuple(f[rows] for f in nf)
        for lo in reversed(range(0, len(keep), _BLOCK_NODES)):
            part = slice(lo, lo + _BLOCK_NODES)
            stack.append((size + 1, child_masks[part], child_cand[part],
                          tuple(f[part] for f in child_folds)))
    return best, hits, ScanCounts(nodes, collisions, cuts)


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
    best, hits, counts = _scan(p, k, l, target=None)
    stabs = _orbit_stabilizers(hits, p)
    return SearchResult(
        params, "max", best,
        tuple(ZpSet.from_mask(p, m) for m in sorted(stabs)),
        labeled_count=_labeled_count(stabs.values(), p), **counts._asdict(),
        wall_time=time.perf_counter() - t0,
    )


def enumerate_second_level(params: Params, p_limit: int = DEFAULT_P_LIMIT) -> SearchResult:
    """All nontrivial (k,l)-sum-free dilation orbits of size exactly m, each
    labeled by the classifier; unexpected labels surface as findings.  The
    scan proves every orbit sum-free and `extremal_embeddings` decides its
    triviality, so each nontrivial orbit goes straight to the Z_p structure
    matcher, with the report `classify` would give."""
    p, k, l, m = params.p, params.k, params.l, params.m
    _check_p_limit(p, p_limit)
    intervals = extremal_intervals(params)  # raises ParameterError for m < 1 or outside the lam window
    t0 = time.perf_counter()
    _, hits, counts = _scan(p, k, l, target=m)
    stabs = _orbit_stabilizers(hits, p)
    # Triviality is dilation-invariant, so one test per orbit decides it.
    embedded = extremal_embeddings(p, list(stabs), intervals)
    nontrivial = {om: stab for (om, stab), hit in zip(stabs.items(), embedded) if hit is None}
    zp_params = Params(k, l, p)  # the classifier's parameters for a set in Z_p
    labeled_orbits = []
    findings = []
    for om in sorted(nontrivial):
        rep_set = ZpSet.from_mask(p, om)
        report = _classify_1d(rep_set, zp_params)
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
        labeled_count=_labeled_count(nontrivial.values(), p), **counts._asdict(),
        wall_time=time.perf_counter() - t0,
    )
