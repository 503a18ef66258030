"""Place a (k,l)-sum-free set in the structure taxonomy, with checkable witnesses.

Labels: "trivial" (inside an extremal cuboid up to isomorphism), "type1" ..
"type5", "rz", "nontrivial-unknown" (honest fallback) and "not-sum-free".
Any label besides the last two carries a witness that regenerates the set:
for n = 1 a dilation onto a generator output, for n = 2 a full automorphism
matrix together with the matching TypeSpec.

The n = 2 matcher only searches block-triangular automorphisms that fix a
candidate hyperplane: f(i*v + w) = (s*i)*e0 + (c*w + i*u)*e1 in the basis of
the flagged decomposition.  Every generator structure is axis-aligned, so
this family is enough to recognize all of them while keeping the search at
O(p^2) per decomposition; sets outside it fall through to the honest
"nontrivial-unknown".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .modmath import GeneratorCheckError, dilation_masks, mod_inverse
from .zpset import ZpSet, dilate
from .vecset import (
    Decomposition,
    DecompProfile,
    Params,
    VecSet,
    VecSetError,
    apply_automorphism,
    beta_value,
    decompose,
    decompositions_2d,
    line_decomposition,
    line_part_sizes,
    mat_inverse,
    vec_is_kl_sumfree,
)
from .constructions import (
    ANY_P,
    P,
    TYPE_KINDS,
    ParameterError,
    TypeSpec,
    _nontriviality_2d,
    band_layout,
    extremal_intervals,
    gen_type,
    nontriviality_check,
    reference_specs,
    type_support,
)

LABEL_PRIORITY = ("type1", "type2", "type3", "type4", "type5", "rz")


@dataclass
class ClassReport:
    label: str
    params: Params
    witness: dict | None = None
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        w = None
        if self.witness is not None:
            w = {k: _plain(v) for k, v in self.witness.items()}
        return {
            "label": self.label,
            "params": {"k": self.params.k, "l": self.params.l, "p": self.params.p, "n": self.params.n},
            "witness": w,
            "notes": list(self.notes),
        }


def _plain(v):
    if isinstance(v, ZpSet):
        return sorted(v.elements())
    if isinstance(v, tuple):
        return [_plain(x) for x in v]
    if isinstance(v, TypeSpec):
        return {
            "which": v.which,
            "a": v.a,
            "vbasis": _plain(v.vbasis) if v.vbasis is not None else None,
            "s": v.s,
            "pset": _plain(v.pset) if v.pset is not None else None,
        }
    return v


# ---------------------------------------------------------------------------
# n = 1: complete decision by dilation scan


def _classify_1d(zp: ZpSet, params: Params) -> ClassReport:
    p = params.p
    matches = []
    images = dilation_masks(p, zp.mask)
    for kind, _, spec in reference_specs(params, TYPE_KINDS):
        target = type_support(spec)
        if target.mask in images:
            matches.append((kind, spec, images.index(target.mask) + 1))
    if not matches:
        return ClassReport("nontrivial-unknown", params,
                           notes=[f"size {len(zp)} vs m={params.m}; no generator matches"])
    matches.sort(key=lambda t: LABEL_PRIORITY.index(t[0]))
    kind, spec, s = matches[0]
    back = mod_inverse(s, p)
    regen = gen_type(spec).to_zpset()
    if dilate(regen, back) != zp:
        raise GeneratorCheckError("witness failed to regenerate the set")
    notes = [f"also matches {k} (dilation {sv})" for k, _, sv in matches[1:]]
    notes += list(spec.notes)
    return ClassReport(kind, params, {"spec": spec, "dilation_from_generator": back}, notes)


# ---------------------------------------------------------------------------
# n = 2: support match plus fiber solving on the axis decomposition

_FIBER_FULL, _FIBER_ZERO, _FIBER_COZERO, _FIBER_P, _FIBER_COP = "full", "zero", "cozero", "P", "coP"


def _descriptors_2d(params: Params) -> list[dict]:
    """Band descriptors of every structure variant, read off the table at n = 2.

    Each descriptor maps target axis index -> fiber kind over K = F_p.  The
    only proper subspace of F_p is {0}, so a fibre of size 1 is {0} and one
    of size p-1 is its complement; empty fibres leave the support.
    """
    p = params.p
    by_size = {1: _FIBER_ZERO, p - 1: _FIBER_COZERO, p: _FIBER_FULL}
    out = []
    for kind, fields, _ in reference_specs(params, TYPE_KINDS):
        bands = {}
        for x0, sym, fib in band_layout(kind, params, fields):
            size = None if fib is None else int(fib.sum())
            if size is None:
                bands[x0] = _FIBER_P if sym == P else _FIBER_COP
            elif size:
                bands[x0] = by_size[size]
        out.append({"kind": kind, "bands": bands, "fields": fields})
    return out


def _fiber_sizes_ok(desc: dict, parts_by_target: dict, p: int) -> bool:
    t = None
    for j, fk in desc["bands"].items():
        sz = len(parts_by_target[j])
        if fk == _FIBER_FULL and sz != p:
            return False
        if fk == _FIBER_ZERO and sz != 1:
            return False
        if fk == _FIBER_COZERO and sz != p - 1:
            return False
        if fk == _FIBER_P:
            t = sz
    if t is not None:
        cop = next(j for j, fk in desc["bands"].items() if fk == _FIBER_COP)
        if len(parts_by_target[cop]) != p - t:
            return False
    return True


def _match_descriptor_2d(desc: dict, profile: DecompProfile, params: Params):
    """Find (s, c, u) mapping the profile onto the descriptor, plus recovered P."""
    p = params.p
    target_support = ZpSet(p, list(desc["bands"].keys()))
    supp = profile.support
    if len(supp) != len(target_support):
        return None
    parts = [x.to_zpset() for x in profile.parts]
    for s, image in enumerate(dilation_masks(p, supp.mask), 1):
        if image != target_support.mask:
            continue
        sinv = mod_inverse(s, p)
        parts_by_target = {j: parts[sinv * j % p] for j in desc["bands"]}
        if not _fiber_sizes_ok(desc, parts_by_target, p):
            continue
        special = [(j, fk) for j, fk in desc["bands"].items() if fk != _FIBER_FULL]
        constrained = [(j, fk) for j, fk in special if fk in (_FIBER_ZERO, _FIBER_COZERO)]
        for c in range(1, p):
            for u in _u_candidates(constrained, parts_by_target, c, s, p):
                got = _check_fibers(special, parts_by_target, c, u, s, p)
                if got is not None:
                    return {"s": s, "c": c, "u": u, "pset": got}
    return None


def _u_candidates(constrained, parts_by_target, c: int, s: int, p: int):
    if not constrained:
        return (0,)
    j, fk = constrained[0]
    part = parts_by_target[j]
    x = next(iter(part)) if fk == "zero" else next(iter(part.complement()))
    i = mod_inverse(s, p) * j % p
    # Solve c*x + i*u = 0 for u.
    if i == 0:
        return range(p) if c * x % p == 0 else ()
    return ((-c * x % p) * mod_inverse(i, p) % p,)


def _check_fibers(special, parts_by_target, c, u, s, p):
    sinv = mod_inverse(s, p)
    pset = None
    images = {}
    for j, fk in special:
        i = sinv * j % p
        img = dilate(parts_by_target[j], c).shift(i * u % p) if not parts_by_target[j].is_empty() \
            else parts_by_target[j]
        images[j] = img
        if fk == "zero" and img != ZpSet(p, [0]):
            return None
        if fk == "cozero" and img != ZpSet(p, [x for x in range(1, p)]):
            return None
    pj = next((j for j, fk in special if fk == "P"), None)
    if pj is not None:
        pset = images[pj]
        cop = next(j for j, fk in special if fk == "coP")
        if images[cop] != pset.complement():
            return None
    return pset if pset is not None else ZpSet(p)


def _classify_2d(a: VecSet, params: Params, counts: np.ndarray) -> ClassReport:
    """Match every descriptor on every line of the part-size matrix `counts`.

    A descriptor matches only a line whose support has exactly its number of
    bands, so only proper, nonempty supports of such a weight are decomposed.
    """
    p = params.p
    matches = []
    descriptors = _descriptors_2d(params)
    widths = {len(desc["bands"]) for desc in descriptors}
    weights = (counts > 0).sum(axis=1)
    for line in np.flatnonzero(np.isin(weights, list(widths - {0, p}))).tolist():
        dec = line_decomposition(p, line)
        profile = decompose(a, dec)
        for desc in descriptors:
            found = _match_descriptor_2d(desc, profile, params)
            if found is None:
                continue
            spec = _build_spec(desc, found, params)
            matrix = _block_matrix(dec, found["s"], found["c"], found["u"], p)
            if apply_automorphism(a, matrix) == gen_type(spec):
                matches.append((desc["kind"], spec, line, matrix))
    if not matches:
        return ClassReport("nontrivial-unknown", params,
                           notes=[f"size {len(a)} vs m*p={params.m * p}; no generator matches"])
    matches.sort(key=lambda t: (LABEL_PRIORITY.index(t[0]), t[2]))
    kind, spec, line, matrix = matches[0]
    notes = sorted({f"also matches {k}" for k, _, _, _ in matches[1:] if k != kind})
    notes += list(spec.notes)
    return ClassReport(kind, params,
                       {"spec": spec, "line": line, "matrix": tuple(tuple(r) for r in matrix)},
                       notes)


def _build_spec(desc: dict, found: dict, params: Params) -> TypeSpec:
    fields = dict(desc["fields"])
    if fields.get("pset") is ANY_P:
        fields["pset"] = tuple((x,) for x in found["pset"])
    return TypeSpec(desc["kind"], params, **fields)


def _block_matrix(dec: Decomposition, s: int, c: int, u: int, p: int) -> list[list[int]]:
    """Matrix of f with f(v) = s*e0 + u*e1 and f(k1) = c*e1, in standard coordinates."""
    binv = mat_inverse(dec.basis_matrix(), p)
    tri = [[s, 0], [u, c]]
    return [[sum(tri[r][t] * binv[t][col] for t in range(2)) % p for col in range(2)]
            for r in range(2)]


# ---------------------------------------------------------------------------
# Public entry points


def classify(a: VecSet, k: int, l: int) -> ClassReport:
    """Label A (n <= 2) with a witness that regenerates it.

    n = 2 works from one `line_part_sizes` matrix, built once and shared by
    the triviality scan and the structure matcher: triviality reads every
    line support off it, and the matcher decomposes only the lines whose
    support weight some structure has.
    """
    params = Params(k, l, a.p, a.n)
    if not params.lambda_in_range():
        raise ParameterError(
            f"the trivial/nontrivial taxonomy needs lam in [0, k+l-3]; "
            f"(k,l,p)=({k},{l},{a.p}) has lam={params.lam}"
        )
    if a.is_empty():
        return ClassReport("trivial", params, {"reason": "empty set"}, [])
    if not vec_is_kl_sumfree(a, k, l):
        return ClassReport("not-sum-free", params, None, [])
    if a.n > 2:
        raise VecSetError("classification is complete only for n <= 2")
    if a.n == 1:
        triv = nontriviality_check(a, params)
    else:
        counts = line_part_sizes(a)
        triv = _nontriviality_2d(counts, extremal_intervals(params))
    if triv.status == "trivial":
        return ClassReport("trivial", params, triv.witness, [triv.detail])
    return _classify_1d(a.to_zpset(), params) if a.n == 1 else _classify_2d(a, params, counts)


@dataclass(frozen=True)
class WeightScanRow:
    line: int
    v: tuple[int, ...]
    kbasis: tuple[tuple[int, ...], ...]
    omega: int
    beta_head: tuple
    small_weight: bool
    cm_cover: object | None
    cm_holes: tuple[int, ...] | None


def weight_scan(a: VecSet, k: int, l: int) -> list[WeightScanRow]:
    """Per-decomposition weight summary over all p+1 hyperplanes (n = 2).

    A decomposition is flagged when m <= omega <= m+2; for those the
    shortest AP cover of C_m (best dilation) and its hole profile are
    reported, since the small-weight regime is where the structural case
    analysis lives.  Every row is read off one `line_part_sizes` matrix.
    """
    from .zpset import holes, min_ap_cover

    params = Params(k, l, a.p, a.n)
    if a.n != 2:
        raise VecSetError("weight_scan needs n = 2")
    p, m = params.p, params.m
    counts = line_part_sizes(a)
    # b_1..b_p of each line: residues by non-increasing part size, ties by residue.
    orders = np.argsort(-counts, axis=1, kind="stable")
    rows = []
    for line, dec in enumerate(decompositions_2d(p)):
        sizes = counts[line]
        order = orders[line].tolist()
        weight = int(np.count_nonzero(sizes))
        flag = m <= weight <= m + 2
        cover = hole_list = None
        if flag:
            if m < 1:
                raise VecSetError("prefix index out of range")
            cm = ZpSet(p, order[:m])
            cover = min_ap_cover(cm)
            hole_list = tuple(holes(cm, cover))
        beta_head = tuple(beta_value(int(sizes[i]), p, 2) for i in order[:4])
        rows.append(WeightScanRow(line, dec.v, dec.kbasis, weight, beta_head, flag,
                                  cover, hole_list))
    return rows


def balance_deviation(profile: DecompProfile, u: int) -> int:
    """Total deviation sum_i ||A_i| - u| over all p parts."""
    if u < 0:
        raise VecSetError("u must be nonnegative")
    return sum(abs(len(x) - u) for x in profile.parts)


@dataclass(frozen=True)
class BalanceCheck:
    u: int
    deviation: int
    bound: int
    applicable: bool
    holds: bool


def check_balance_bound(a: VecSet, k: int, l: int, profile: DecompProfile,
                        u: int | None = None) -> BalanceCheck:
    """Deviation against the (2 + theta) * p^(n-1) bound.

    The bound is asserted for (k,l)-sum-free sets with omega > p - theta and
    size at least m * p^(n-1); u defaults to the median part size
    |B_(p+1)/2|.  Outside those hypotheses the check is reported but flagged
    not applicable.
    """
    params = Params(k, l, a.p, a.n)
    if u is None:
        u = profile.sizes[(params.p + 1) // 2 - 1]
    dev = balance_deviation(profile, u)
    bound = (2 + params.theta) * params.p ** (params.n - 1)
    applicable = (
        profile.weight > params.p - params.theta
        and len(a) >= params.m * params.p ** (params.n - 1)
        and vec_is_kl_sumfree(a, k, l)
    )
    return BalanceCheck(u, dev, bound, applicable, dev <= bound)
