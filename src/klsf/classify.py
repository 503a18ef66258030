"""Place a (k,l)-sum-free set in the structure taxonomy, with checkable witnesses.

Labels: "trivial" (inside an extremal cuboid up to isomorphism), "type1" ..
"type5", "rz", "nontrivial-unknown" (honest fallback) and "not-sum-free".
Any label besides the last two carries a witness that regenerates the set:
for n = 1 a dilation onto a generator output, for n = 2 a full automorphism
matrix together with the matching TypeSpec.  Every witness spec comes from
`constructions.make_spec`, with the fields of a STRUCTURES variant (and, for
an open P, the P the matcher solved for), and a witness that does not
regenerate the set raises GeneratorCheckError.  Labels rank in TYPE_KINDS
order.

The n = 2 matcher only searches automorphisms that fix a candidate line:
f(i*v + w) = (s*i)*e0 + (w + i*u)*e1 in the basis (v, k) of one of the p+1
lines of F_p^2 (`vecset.line_basis`).  Every generator structure is axis
bands times fibres in K = F_p, each fibre {0}, its complement, F_p or the
open P of type 5 and rz, so this family recognizes all of them; sets outside
it fall through to the honest "nontrivial-unknown".  A scalar w -> c*w on K
needs no search: it fixes every fixed fibre and maps P to c*P, so (s, c, u)
matches exactly when (s, 1, u/c) matches the same kind with P scaled by 1/c.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .modmath import (
    GeneratorCheckError,
    bits_to_mask,
    dilation_masks,
    mask_to_indices,
    mod_inverse,
    rotate_mask,
)
from .zpset import ZpSet, dilate
from .vecset import (
    Params,
    VecSet,
    VecSetError,
    apply_automorphism,
    line_bases,
    line_part_sizes,
    line_parts,
    vec_is_kl_sumfree,
)
from .constructions import (
    CO_P,
    P,
    TYPE_KINDS,
    ParameterError,
    TypeSpec,
    _nontriviality_2d,
    band_layout,
    extremal_intervals,
    gen_type,
    make_spec,
    nontriviality_check,
    reference_specs,
    type_support,
)


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
        return {f: _plain(x) for f, x in vars(v).items() if f not in ("params", "notes")}
    return v


# ---------------------------------------------------------------------------
# n = 1: complete decision by dilation scan


@lru_cache(maxsize=16)
def _supports_1d(params: Params) -> tuple:
    """(kind, support mask, spec) of every structure variant at n = 1, in
    table order: the n = 1 counterpart of `_descriptors_2d`."""
    return tuple((kind, type_support(spec).mask, spec)
                 for kind, _, spec in reference_specs(params, TYPE_KINDS))


def _classify_1d(zp: ZpSet, params: Params) -> ClassReport:
    p = params.p
    matches = []
    images = dilation_masks(p, zp.mask)
    for kind, support, spec in _supports_1d(params):
        if support in images:
            matches.append((kind, spec, images.index(support) + 1))
    if not matches:
        return ClassReport("nontrivial-unknown", params,
                           notes=[f"size {len(zp)} vs m={params.m}; no generator matches"])
    matches.sort(key=lambda t: TYPE_KINDS.index(t[0]))
    kind, spec, s = matches[0]
    back = mod_inverse(s, p)
    regen = gen_type(spec).to_zpset()
    if dilate(regen, back) != zp:
        raise GeneratorCheckError("witness failed to regenerate the set")
    notes = [f"also matches {k} (dilation {sv})" for k, _, sv in matches[1:]]
    notes += list(spec.notes)
    return ClassReport(kind, params, {"spec": spec, "dilation_from_generator": back}, notes)


# ---------------------------------------------------------------------------
# n = 2: support match plus fibre solving on the parts along each line


@lru_cache(maxsize=16)
def _descriptors_2d(params: Params) -> tuple:
    """(kind, bands, fields) of every structure variant, read off the table at n = 2.

    `bands` pairs each target axis index with its fibre over K = F_p: a p-bit
    mask, or the table's symbol P / CO_P where P is left open.  Empty fibres
    leave the support.  Cached values are tuples and read-only mappings.
    """
    out = []
    for kind, fields, _ in reference_specs(params, TYPE_KINDS):
        bands = tuple((x0, sym if fib is None else bits_to_mask(fib))
                      for x0, sym, fib in band_layout(kind, params, fields)
                      if fib is None or fib.any())
        out.append((kind, bands, MappingProxyType(fields)))
    return tuple(out)


def _match_descriptor_2d(desc: tuple, parts: list[int], support: int, p: int):
    """Find (s, u, P) such that (i, x) -> (s*i, x + i*u) carries the part
    masks `parts` (A_i by axis index i, support mask `support`) onto the
    descriptor's bands; P is the image mask of an open P, else None.

    Dilations s are tried in ascending order.  For each, u is forced by the
    first band whose fibre is one point or all but one (every u is tried if
    that band sits at i = 0, and u = 0 if no band pins u).
    """
    _, bands, _ = desc
    target = sum(1 << j for j, _ in bands)
    if support.bit_count() != target.bit_count():
        return None
    full = (1 << p) - 1
    for s, image in enumerate(dilation_masks(p, support), 1):
        if image != target:
            continue
        sinv = mod_inverse(s, p)
        fibres = [(sinv * j % p, fib) for j, fib in bands]
        pin = next(((i, fib) for i, fib in fibres if fib in (1, full ^ 1)), None)
        if pin is None:
            shears = (0,)
        elif pin[0] == 0:
            shears = range(p)
        else:
            i, fib = pin
            x = (parts[i] if fib == 1 else full ^ parts[i]).bit_length() - 1
            shears = (-x * mod_inverse(i, p) % p,)
        for u in shears:
            images = {}
            for i, fib in fibres:
                img = rotate_mask(parts[i], i * u, p)
                if isinstance(fib, str):
                    images[fib] = img
                elif img != fib:
                    break
            else:
                if not images or images[CO_P] == full ^ images[P]:
                    return s, u, images.get(P)
    return None


def _classify_2d(a: VecSet, params: Params, counts: np.ndarray) -> ClassReport:
    """Match every descriptor on every line of the part-size matrix `counts`.

    A descriptor matches only a line whose support has exactly its number of
    bands, so only proper, nonempty supports of such a weight are split into parts.
    """
    p = params.p
    matches = []
    descriptors = _descriptors_2d(params)
    widths = {len(bands) for _, bands, _ in descriptors}
    weights = (counts > 0).sum(axis=1)
    for line in np.flatnonzero(np.isin(weights, list(widths - {0, p}))).tolist():
        parts = line_parts(a, line)
        support = bits_to_mask(counts[line] > 0)
        for desc in descriptors:
            found = _match_descriptor_2d(desc, parts, support, p)
            if found is None:
                continue
            kind, _, fields = desc
            s, u, image = found
            if image is not None:  # the open P, solved
                fields = {**fields, "pset": tuple((x,) for x in mask_to_indices(image).tolist())}
            spec = make_spec(kind, params, **fields)
            matrix = _block_matrix(p, line, s, u)
            if apply_automorphism(a, matrix) != gen_type(spec):
                raise GeneratorCheckError(
                    f"{kind} witness on line {line} does not regenerate the set: implementation bug")
            matches.append((kind, spec, line, matrix))
    if not matches:
        return ClassReport("nontrivial-unknown", params,
                           notes=[f"size {len(a)} vs m*p={params.m * p}; no generator matches"])
    matches.sort(key=lambda t: (TYPE_KINDS.index(t[0]), t[2]))
    kind, spec, line, matrix = matches[0]
    notes = sorted({f"also matches {k}" for k, _, _, _ in matches[1:] if k != kind})
    notes += list(spec.notes)
    return ClassReport(kind, params,
                       {"spec": spec, "line": line, "matrix": tuple(tuple(r) for r in matrix)},
                       notes)


def _block_matrix(p: int, line: int, s: int, u: int) -> list[list[int]]:
    """Matrix of f with f(v) = s*e0 + u*e1 and f(k) = e1 for line `line`'s
    (v, k), in standard coordinates: [[s, 0], [u, 1]] times its `line_bases` entry."""
    return (np.array([[s, 0], [u, 1]]) @ line_bases(p)[line] % p).tolist()


# ---------------------------------------------------------------------------
# Public entry points


def classify(a: VecSet, k: int, l: int) -> ClassReport:
    """Label A (n <= 2) with a witness that regenerates it.

    n = 2 works from one `line_part_sizes` matrix, built once and shared by
    the triviality scan and the structure matcher: triviality reads every
    line support off it, and the matcher splits into parts only the lines
    whose support weight some structure has.
    """
    params = Params(k, l, a.p, a.n)
    if not params.lambda_in_range():
        raise ParameterError(
            f"the trivial/nontrivial taxonomy needs lam in [0, k+l-3]; "
            f"(k,l,p)=({k},{l},{a.p}) has lam={params.lam}"
        )
    if a.n > 2:
        raise VecSetError("classification is complete only for n <= 2")
    if a.is_empty():
        return ClassReport("trivial", params, {"reason": "empty set"}, [])
    if not vec_is_kl_sumfree(a, k, l):
        return ClassReport("not-sum-free", params, None, [])
    if a.n == 1:
        triv = nontriviality_check(a, params)
    else:
        counts = line_part_sizes(a)
        triv = _nontriviality_2d(counts, extremal_intervals(params))
    if triv.status == "trivial":
        return ClassReport("trivial", params, triv.witness, [triv.detail])
    return _classify_1d(a.to_zpset(), params) if a.n == 1 else _classify_2d(a, params, counts)
