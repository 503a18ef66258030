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

The tree keeps only the members of each dilation orbit whose second
element is the orbit's least ratio.  Every member of an orbit that contains
1 is a^(-1)A for some a in A, and its elements other than 1 are ratios y/a
of two elements of A, so they are at least r, the least ratio of A; the
members whose second element is r are the a^(-1)A with r*a in A.  A node's
second element t is fixed once it has two elements, and a residue x leaves
a child's candidates when x/a or a/x lies in [2, t-1] for an element a of
the child: one gather from the cached (p, p) word table `_ratio_table`,
ANDed out before the size cut, which the smaller candidate masks sharpen.
The root's child {1, x} is made only when x^(-1) >= x, yet x stays feasible
for its siblings.  The rule is complete: every ratio of a kept member is a
ratio of A, so no sorted prefix of it ever loses a later element to the
rule (nor, with those elements among its candidates, to the size cut),
and the tree meets each orbit exactly #{a in A : r*a in A}/|Stab(A)| times
(a^(-1)A = b^(-1)A exactly when b/a is in Stab(A)), once for 665 of the 910
orbits of both levels with k+l <= 8, 7 <= p <= 47, where the uncut tree met
each |A|/|Stab(A)| times.

The tree is expanded a block of up to _BLOCK_NODES same-size nodes at a
time: every (node, candidate) pair of a block goes through the fold updates
and the cuts in a few array operations, with no per-node Python loop.
A block keeps one flat word array per fold, h = 1..k (the 0-fold {0} stays
implicit), so a pair's 1-fold is its parent's with bit x set and each
higher fold is one gather and one rotation: `modmath.child_folds`, the one
fold step, which the covering tree shares.  Masks are the word arrays of
`klsf.modmath` (uint64 words for p <= 61, Python ints above, which only a
raised p_limit reaches), unpacked and counted by its word helpers.
The tree is the same as a node-at-a-time scan's with the same rule:
`node_count` counts its nodes, `prunes_collision` and `prunes_size` the
pairs cut by each test, and `prunes_ratio` the pairs the ratio rule removes
(root children not made and candidates cleared from children).

The hits are reduced to their dilation orbits in one batched
`modmath.dilation_orbits` call, which gives each hit's canonical form (the
least mask in its orbit), its stabilizer size |Stab(A)| = #{c : cA = A}
and #{a in A : r*a in A} (the dilates that contain 1 and whose lowest
element above 1 is the least) from its p-1 dilates.  Two self-checks
follow, both explicit raises of GeneratorCheckError (CLI exit code 2):
- the emission count: each orbit must be emitted exactly
  #{a in A : r*a in A}/|Stab(A)| times;
- the completeness check: the hits must contain the orbit of every sum-free
  set the tool builds without the search at that size (`_built_orbits`):
  every sum-free interval of that length from the closed form, and on the
  second level every size-m subset of an extremal interval (so every
  trivial orbit) and every size-m support of the n = 1 structure table.
  It catches a lost orbit met once by the tree, which the count cannot see,
  such as the coset {1, -1} at (2,1,7), the orbit of the interval {3, 4}.
`labeled_count`, the number of labelled sets, follows by orbit-stabilizer as
the sum of (p-1)/|Stab(A)| over the orbits.  On the second level one
`constructions.extremal_embeddings` call decides the triviality of every
orbit, and only the nontrivial ones reach the classifier.  Orbits are
reported in sorted canonical order, so output is deterministic.  In the
test suite a no-pruning brute force over all subsets of the target sizes
backs the search, the scan without the ratio rule gives the same orbits,
stabilizers and labelled counts, and the raw hit list is compared with
every sum-free set containing 1 whose second element is its least ratio.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .modmath import (
    GeneratorCheckError, child_folds, dilation_orbits, word_array, words_popcount, words_to_bits,
)
from .zpset import ZpSet, is_kl_sumfree
from .vecset import Params
from .constructions import extremal_embeddings, extremal_intervals
from .classify import ClassReport, _classify_1d, _supports_1d


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
    prunes_ratio: int       # pairs removed because a ratio of the set falls below its second element


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
    prunes_ratio: int = 0
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
            "prunes_ratio": self.prunes_ratio,
        }


def canonical_form(a: ZpSet) -> ZpSet:
    """The least bit mask among all dilations of A; constant on orbits."""
    return a._with_mask(dilation_orbits(a.p, [a.mask])[0][0])


def _orbit_stabilizers(hits: list[int], p: int) -> dict[int, int]:
    """Canonical mask -> |Stab(A)| for the orbits of the hits of the tree
    rooted at {1}, all of one size, from one `dilation_orbits` call over the
    whole hit list, after checking that each orbit was emitted
    #{a in A : r*a in A}/|Stab(A)| times, r its least ratio (once per member
    whose second element is r)."""
    least, stab_sizes, ratio_counts = dilation_orbits(p, hits, ratio_counts=True)
    stabs = dict(zip(least, stab_sizes))
    members = dict(zip(least, ratio_counts))
    emitted = Counter(least)
    for canon, stab in stabs.items():
        if emitted[canon] * stab != members[canon]:
            raise GeneratorCheckError(
                f"search emitted the orbit of {sorted(ZpSet.from_mask(p, canon).elements())} "
                f"{emitted[canon]} times, expected #{{a in A : r*a in A}}/|Stab(A)| = "
                f"{members[canon]}/{stab}: implementation bug"
            )
    return stabs


def _check_complete(params: Params, size: int, stabs: dict[int, int], second: bool) -> None:
    """Raise GeneratorCheckError unless the hit orbits `stabs` include the
    orbit of every sum-free set of this size that the tool builds without
    the search (`_built_orbits`)."""
    for canon, source in _built_orbits(params, size, second):
        if canon not in stabs:
            raise GeneratorCheckError(
                f"search missed the orbit of {sorted(ZpSet.from_mask(params.p, canon).elements())} "
                f"({source}): implementation bug"
            )


@lru_cache(maxsize=256)
def _built_orbits(params: Params, size: int, second: bool) -> tuple[tuple[int, str], ...]:
    """(canonical mask, source) of each orbit of the sum-free size-`size`
    sets built from closed forms and the structure table: every sum-free
    interval of that length, and on the second level (`second`, size m)
    every size-m subset of an extremal interval (so every trivial orbit) and
    every size-m structure support at n = 1."""
    p, k, l = params.p, params.k, params.l
    sets = [(ZpSet.interval(p, start, size).mask, f"sum-free interval of length {size}")
            for start in _sumfree_interval_starts(p, k, l, size)]
    if second:
        for iv in extremal_intervals(params):
            sets += [(iv.mask ^ (1 << x), "subset of an extremal interval") for x in iv.elements()]
        sets += [(support, f"{kind} support") for kind, support, _ in _supports_1d(params)
                 if support.bit_count() == size]
    sets = [(mask, source) for mask, source in sets
            if is_kl_sumfree(ZpSet.from_mask(p, mask), k, l)]
    least, _ = dilation_orbits(p, [mask for mask, _ in sets])
    orbits: dict[int, str] = {}
    for canon, (_, source) in zip(least, sets):
        orbits.setdefault(canon, source)
    return tuple(orbits.items())


def _labeled_count(stabs, p: int) -> int:
    """Labelled sets in the orbits, by orbit-stabilizer: |orbit| = (p-1)/|Stab(A)|."""
    return sum((p - 1) // stab for stab in stabs)


def _sumfree_interval_starts(p: int, k: int, l: int, length: int) -> list[int]:
    """The starts a of the (k,l)-sum-free intervals [a, a+L-1] of Z_p of
    length L, by the closed form: (l-k)a mod p lies in [k(L-1)+1, p-1-l(L-1)],
    a range empty once (k+l)(L-1) > p-2.  No starts when p divides k-l."""
    if (k - l) % p == 0:
        return []
    inverse = pow(l - k, -1, p)
    return [v * inverse % p for v in range(k * (length - 1) + 1, p - l * (length - 1))]


def _warm_start(p: int, k: int, l: int) -> int:
    """The size m+1 of the longest (k,l)-sum-free interval of Z_p (p not
    dividing k-l), after checking the first interval the closed form names."""
    m = (p - 2) // (k + l)
    interval = ZpSet.interval(p, _sumfree_interval_starts(p, k, l, m + 1)[0], m + 1)
    if not is_kl_sumfree(interval, k, l):
        raise GeneratorCheckError(
            f"warm-start interval {sorted(interval.elements())} of Z_{p} is not "
            f"({k},{l})-sum-free: implementation bug"
        )
    return m + 1


@lru_cache(maxsize=None)
def _ratio_table(p: int) -> np.ndarray:
    """Read-only (p, p) words whose entry (t, a) is the mask of a*(J u J^(-1)),
    J = [2, t-1] (empty for t <= 2): the residues x with x/a or a/x in J.
    Row t ORs row t-1 with the bits a*(t-1) and a*(t-1)^(-1).  The diagonal
    entry (t, t) also holds J u J^(-1) itself (a = 1): a = t only when
    the root {1} gains its second element t."""
    y = np.arange(p)
    inverse = np.array([0] + [pow(v, -1, p) for v in range(1, p)])
    one = word_array(p, [1])
    bits = one << (np.outer(y, y) % p).astype(one.dtype)  # (y, a) -> the bit of a*y
    rows = bits[y - 1] | bits[inverse[y - 1]]
    rows[:3] = 0
    table = np.bitwise_or.accumulate(rows, axis=0)
    table[y, y] |= table[:, 1]
    table.setflags(write=False)
    return table


def _scan(p: int, k: int, l: int, target: int | None):
    """Core DFS over the tree rooted at {1}.  target=None: find the maximum
    size and every set containing 1 attaining it whose second element is
    its least ratio.  target=t: emit every such sum-free set of size exactly
    t (no deeper descent).  Returns (best, hit masks, ScanCounts).

    Each node carries the mask of residues still individually compatible:
    sumsets only grow along a branch, so a residue that collides once is dead
    for the entire subtree, and the remaining-candidate count gives a sharp
    reachable-size bound.  (A subset of a sum-free set is sum-free, so every
    element of a surviving extension stays individually compatible at every
    ancestor; dropping dead residues never loses a set.)  The same holds for
    the ratio rule: a node's second element t is fixed below it, and a
    residue x with x/a or a/x in [2, t-1] for an element a would give the
    set a ratio below t, so `_ratio_table(p)[t, a]` is cleared from the
    candidates of every node that gains a.

    The stack holds blocks of at most _BLOCK_NODES nodes of one size: word
    arrays of candidate masks, the nodes' second elements (None for the
    root) and a tuple of k fold arrays, folds[h-1] the masks of the h-fold
    sumsets, h = 1..k (folds[0] the set masks).  One expansion builds every
    (node, candidate x) pair of a block and runs the fold updates on all
    pairs at once through `child_folds`.  It keeps the children whose
    k-fold and l-fold masks stay apart.
    A child may only add the feasible residues of its parent above x (every
    set is met once, in increasing order) that the ratio rule leaves, and is
    cut when those cannot lift it to `best`.  The root's child {1, x} is made
    only when x^(-1) >= x, yet x stays feasible for its siblings.  Children
    are pushed so that the lowest-x block pops first.
    """
    if (k - l) % p == 0:
        # k*1 = l*1: the root {1}, and so every set, fails
        return (0 if target is None else target), [], ScanCounts(0, 0, 0, 0)
    best = target if target is not None else _warm_start(p, k, l)
    ratio = _ratio_table(p)
    hits: list[int] = []
    nodes = collisions = cuts = ratio_cuts = 0
    # folds[h-1] holds the h-fold masks of a block, h = 1..k; the root's are {h}
    folds = tuple(word_array(p, [1 << (h % p)]) for h in range(1, k + 1))
    stack = [(1, word_array(p, [(1 << p) - 4]), None, folds)]
    while stack:
        size, cand, second, folds = stack.pop()
        nodes += len(cand)
        if size == best:
            hits.extend(folds[0].tolist())
            if target is not None:
                continue
        elif size > best and target is None:
            best = size
            hits = folds[0].tolist()
        if target is not None and size >= target:
            continue
        parent, xi = np.nonzero(words_to_bits(cand, p))
        x = xi.astype(cand.dtype)
        nf = child_folds(folds, parent, x, p)  # the children's fold masks, h = 1..k
        ok = ((nf[k - 1] & nf[l - 1]) == 0).nonzero()[0]
        collisions += len(x) - len(ok)
        parent, xi, x = parent[ok], xi[ok], x[ok]
        feasible = np.zeros(len(cand), dtype=cand.dtype)
        np.bitwise_or.at(feasible, parent, 1 << x)
        second = xi if size == 1 else second[parent]
        lost = ratio[second, xi]
        if size == 1:
            # The root {1}: the child {1, x} has second element x, and its own
            # ratio x^(-1) lies in [2, x-1] exactly when bit 1 of x*(J u J^(-1)) is set.
            made = ((lost & 2) == 0).nonzero()[0]
            ratio_cuts += len(ok) - len(made)
            ok, parent, second = ok[made], parent[made], second[made]
            x, lost = x[made], lost[made]
        suffix = (feasible[parent] >> (x + 1)) << (x + 1)
        lost &= suffix
        ratio_cuts += int(words_popcount(lost).sum())
        suffix ^= lost
        keep = (size + 1 + words_popcount(suffix) >= best).nonzero()[0]
        cuts += len(ok) - len(keep)
        child_cand, child_second, rows = suffix[keep], second[keep], ok[keep]
        kept_folds = tuple(f[rows] for f in nf)
        for lo in reversed(range(0, len(keep), _BLOCK_NODES)):
            part = slice(lo, lo + _BLOCK_NODES)
            stack.append((size + 1, child_cand[part], child_second[part],
                          tuple(f[part] for f in kept_folds)))
    return best, hits, ScanCounts(nodes, collisions, cuts, ratio_cuts)


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
    _check_complete(params, best, stabs, second=False)
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
    _check_complete(params, m, stabs, second=True)
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
