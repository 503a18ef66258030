"""Generators for the named (k,l)-sum-free structures, with built-in verifiers.

Every generator emits a VecSet whose coordinate 0 is the distinguished axis:
the natural decomposition has v = e_0 and K = {0} x F_p^{n-1}.  Generators
are fail-closed: each output is run through the sum-freeness verifier and the
exact size check before it is returned, and a GeneratorCheckError is raised
when either fails (the structures are only guaranteed for large enough m, so
small-m corner cases are reported rather than assumed).

The structures (extremal cuboids, types 1-5 and the Reiher-Zotova family rz)
are catalogued once, in STRUCTURES: each row names the spec fields the kind
reads (cuboid j, type 1 a, types 2 and 4 vbasis, type 5 and rz s and pset)
and gives the parameter window, the base point on axis 0 and the bands
{base + offset} x fibre.  Generation, axis supports, the classifier's band
descriptors and the reference specs of the A3 grid are all read off that
table, and every spec built from fields goes through one builder, `make_spec`.
With p = (k+l)m + 2 + lam, cuboids have size (m+1)p^{n-1} and every type has
size m*p^{n-1}.  The starts of the sum-free intervals of Z_p come from one
closed form, `sumfree_interval_starts`: the cuboid row's base I_j is its
entry j at length m+1, and the Z_p search reads it too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Callable

import numpy as np

from .modmath import GeneratorCheckError, bits_to_mask, dilation_images, fold_masks, mod_inverse, word_array
from .zpset import ZpSet, ed_profile
from .vecset import (
    CriterionError,
    Params,
    VecSet,
    line_basis,
    line_part_sizes,
    vec_is_kl_sumfree,
)


class ParameterError(ValueError):
    """A generator was invoked with parameters outside its defining window."""


def subspace_span(p: int, dim: int, basis: tuple[tuple[int, ...], ...]) -> VecSet:
    """The span of `basis` inside F_p^dim (the zero space for an empty basis)."""
    vecs = set()
    for coeffs in product(range(p), repeat=len(basis)):
        v = tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) % p for i in range(dim))
        vecs.add(v)
    out = VecSet(p, dim, vecs)
    if len(out) != p ** len(basis):
        raise ParameterError("basis vectors are linearly dependent")
    return out


def type1_a_values(params: Params) -> list[int]:
    """Every a for which [a, a+m-1] is a type-1 axis interval."""
    k, l, p, m, lam = params.k, params.l, params.p, params.m, params.lam
    good = []
    for a in range(p):
        v = (l * a - k * (a + m - 1)) % p
        if 1 <= v <= l or (lam + l + 2 <= k and lam + l + 2 <= v <= k):
            good.append(a)
    return good


def type2_a(params: Params) -> int:
    return params.m * params.k * mod_inverse(params.l - params.k, params.p) % params.p


def type3_a(params: Params) -> int:
    pr = params
    return (pr.l * pr.m + pr.k - 1) * mod_inverse(pr.k - pr.l, pr.p) % pr.p


def type5_a(params: Params) -> int:
    return (params.m + 2) * mod_inverse(2, params.p) % params.p


def sumfree_interval_starts(p: int, k: int, l: int, length: int) -> list[int]:
    """The starts a of the (k,l)-sum-free intervals [a, a+L-1] of Z_p of
    length L, by the closed form: (l-k)a mod p lies in [k(L-1)+1, p-1-l(L-1)]
    (the gap between the arcs kI and lI), a range empty once
    (k+l)(L-1) > p-2.  No starts when p divides k-l.  At L = m+1 entry j is
    the extremal interval I_j, the base of the cuboid row."""
    if (k - l) % p == 0:
        return []
    inverse = pow(l - k, -1, p)
    return [v * inverse % p for v in range(k * (length - 1) + 1, p - l * (length - 1))]


# ---------------------------------------------------------------------------
# The structure table
#
# Fibres live in W = F_p^(n-1).  V is span(vbasis) for types 2 and 4 and
# {0}^s x F_p^(n-1-s) for type 5 and rz; P stands for P x F_p^(n-1-s).

W, V, CO_V, P, CO_P = "W", "V", "W\\V", "P", "W\\P"

# A variant's P left open: the A3 grid takes P = {1}, the 2-D matcher solves for P.
ANY_P = "any P"


@dataclass(frozen=True)
class Structure:
    """One structure kind: the bands {base + offset} x fibre on axis 0.

    `reads` names the spec fields the kind reads; a spec refuses any other.
    `variants` lists the spec fields of the reference members, in A3 grid
    order.  The variant with an open P (the generic member) is the kind's
    reference spec; a kind without one takes its first variant.
    """

    reads: tuple[str, ...]
    requires: str                                # the parameter window, in words
    window: Callable[[Params], bool]
    base: Callable[[Params, dict], int]          # axis-0 point the offsets count from
    bands: Callable[[int], tuple]                # m -> runs (first, last, fibre) of offsets
    variants: Callable[[Params], list[dict]]


def _indicator(s: VecSet) -> np.ndarray:
    return s.bit_array().astype(bool)


def _pinched(m: int) -> tuple:
    return ((0, 0, V), (1, 1, CO_P), (2, m - 1, W), (m, m, CO_V), (m + 1, m + 1, P))


STRUCTURES: dict[str, Structure] = {
    "cuboid": Structure(
        ("j",), "m >= 1 and lam <= k+l-3", lambda pr: pr.lambda_in_range(),
        lambda pr, f: sumfree_interval_starts(pr.p, pr.k, pr.l, pr.m + 1)[f["j"]],
        lambda m: ((0, m, W),),
        lambda pr: [{"j": j} for j in range(pr.extremal_orbit_count())]),
    "type1": Structure(
        ("a",), "m >= 2", lambda pr: pr.m >= 2,
        lambda pr, f: f["a"],
        lambda m: ((0, m - 1, W),),
        lambda pr: [{"a": a} for a in type1_a_values(pr)]),
    "type2": Structure(
        ("vbasis",), "l = 1, n >= 2 and m >= 2", lambda pr: pr.l == 1 and pr.n >= 2 and pr.m >= 2,
        lambda pr, f: type2_a(pr),
        lambda m: ((0, 0, CO_V), (1, m - 1, W), (m, m, V)),
        lambda pr: [{"vbasis": ()}]),
    "type3": Structure(
        (), "k+l >= 5, lam = k+l-4 and m >= 2",
        lambda pr: pr.k + pr.l >= 5 and pr.lam == pr.k + pr.l - 4 and pr.m >= 2,
        lambda pr, f: type3_a(pr),
        lambda m: ((-1, -1, W), (1, m - 2, W), (m, m, W)),
        lambda pr: [{}]),
    "type4": Structure(
        ("vbasis",), "(k+l, lam) = (5, 1), n >= 2 and m >= 2",
        lambda pr: (pr.k + pr.l, pr.lam) == (5, 1) and pr.n >= 2 and pr.m >= 2,
        lambda pr, f: 2 * pr.m + 1,
        lambda m: ((0, 0, V), (1, 1, CO_V), (2, m - 1, W), (m, m, CO_V), (m + 1, m + 1, V)),
        lambda pr: [{"vbasis": ()}]),
    "type5": Structure(
        ("s", "pset"), "(k, l, lam) = (3, 1, 1) and m >= 2",
        lambda pr: (pr.k, pr.l, pr.lam) == (3, 1, 1) and pr.m >= 2,
        lambda pr, f: type5_a(pr) - 1,
        _pinched,
        lambda pr: [{"s": 1, "pset": ANY_P}]),
    "rz": Structure(
        ("s", "pset"), "(k, l, lam) = (2, 1, 0), i.e. p = 3m+2, and m >= 2",
        lambda pr: (pr.k, pr.l, pr.lam) == (2, 1, 0) and pr.m >= 2,
        lambda pr, f: pr.m,
        _pinched,
        lambda pr: [{"s": 0, "pset": ()}, {"s": 1, "pset": ()}, {"s": 1, "pset": ANY_P}]),
}

TYPE_KINDS = tuple(kind for kind in STRUCTURES if kind != "cuboid")


def _fibre(row: Structure, sym: str, p: int, dim: int, fields: dict) -> np.ndarray | None:
    """Indicator over F_p^dim of one band's fibre; None for an open P.

    V is span(vbasis) for a kind that reads vbasis, else the P-product with
    P = {0^s}."""
    if sym == W:
        return np.ones(p**dim, dtype=bool)
    if sym in (V, CO_V) and "vbasis" in row.reads:
        fib = _indicator(subspace_span(p, dim, tuple(fields["vbasis"] or ())))
    else:
        s = fields["s"] or 0
        pset = fields["pset"] if sym in (P, CO_P) else ((0,) * s,)
        if pset is ANY_P:
            return None
        fib = np.tile(_indicator(VecSet(p, s, pset or ())), p ** (dim - s))
    return fib if sym in (V, P) else ~fib


def band_layout(kind: str, params: Params, fields: dict) -> list[tuple[int, str, np.ndarray | None]]:
    """(axis index, fibre symbol, fibre indicator over F_p^(n-1)) for every band
    of `kind`; `fields` are the spec fields (a TypeSpec's or a variant's)."""
    row = STRUCTURES[kind]
    p, dim = params.p, params.n - 1
    base = row.base(params, fields)
    out = []
    for first, last, sym in row.bands(params.m):
        fib = _fibre(row, sym, p, dim, fields)
        out.extend(((base + off) % p, sym, fib) for off in range(first, last + 1))
    return out


def _assemble(kind: str, params: Params, fields: dict) -> VecSet:
    """Write each band's fibre into column x_0 of a (p^(n-1), p) bit array."""
    p, n = params.p, params.n
    cols = np.zeros((p ** (n - 1), p), dtype=bool)
    for x0, _, fib in band_layout(kind, params, fields):
        cols[:, x0] = fib
    return VecSet.from_bit_array(p, n, cols.reshape(-1))


def _support(kind: str, params: Params, fields: dict) -> ZpSet:
    return ZpSet(params.p, [x0 for x0, _, fib in band_layout(kind, params, fields) if fib.any()])


def _check_window(kind: str, pr: Params) -> None:
    row = STRUCTURES[kind]
    if not row.window(pr):
        raise ParameterError(
            f"{kind.replace('type', 'type ')} requires {row.requires}; "
            f"(k,l,p,n)=({pr.k},{pr.l},{pr.p},{pr.n}) has m={pr.m}, lam={pr.lam}"
        )


def reference_specs(params: Params, kinds: tuple[str, ...] = tuple(STRUCTURES)) -> list[tuple]:
    """(kind, variant fields, spec) for every table variant valid at `params`,
    in table order; an open P is instantiated as P = {1} in the spec."""
    out = []
    for kind in kinds:
        for fields in STRUCTURES[kind].variants(params):
            try:
                out.append((kind, fields, make_spec(kind, params, **fields)))
            except ParameterError:
                continue
    return out


def make_spec(kind: str, params: Params, **fields):
    """The CuboidSpec or TypeSpec of `kind` at `params`: the one builder of
    specs from fields.  A field given as None counts as not given; a field
    that the kind's STRUCTURES row does not read is refused, and an open P
    (pset=ANY_P) is instantiated as P = {1}."""
    if kind not in STRUCTURES:
        raise ParameterError(f"unknown structure kind {kind!r}")
    fields = {f: v for f, v in fields.items() if v is not None}
    _refuse_unread(kind, fields)
    if kind == "cuboid":
        return CuboidSpec(params, **fields)
    if fields.get("pset") is ANY_P:
        fields["pset"] = ((1,),)
    return TypeSpec(kind, params, **fields)


def _refuse_unread(kind: str, fields: dict) -> None:
    """Refuse every field given (not None) that `kind`'s row does not read."""
    unread = [f for f, v in fields.items() if v is not None and f not in STRUCTURES[kind].reads]
    if unread:
        raise ParameterError(f"{kind} does not read {', '.join(unread)}")


def _verify_emission(out: VecSet, pr: Params, want_size: int, label: str) -> None:
    if len(out) != want_size:
        raise GeneratorCheckError(
            f"{label} at (k,l,p,n)=({pr.k},{pr.l},{pr.p},{pr.n}): size {len(out)} != {want_size}"
        )
    if not vec_is_kl_sumfree(out, pr.k, pr.l):
        raise GeneratorCheckError(
            f"{label} at (k,l,p,n)=({pr.k},{pr.l},{pr.p},{pr.n}) failed the sum-free verifier"
        )


# ---------------------------------------------------------------------------
# Extremal cuboids


@dataclass(frozen=True)
class CuboidSpec:
    params: Params
    j: int = 0

    def __post_init__(self):
        pr = self.params
        _check_window("cuboid", pr)
        if not 0 <= self.j < pr.extremal_orbit_count():
            raise ParameterError(
                f"j={self.j} outside [0, {pr.extremal_orbit_count() - 1}]"
            )

    @property
    def a_j(self) -> int:
        return STRUCTURES["cuboid"].base(self.params, vars(self)) % self.params.p


def extremal_interval(params: Params, j: int) -> ZpSet:
    spec = make_spec("cuboid", params, j=j)
    return _support("cuboid", params, vars(spec))


def extremal_intervals(params: Params) -> list[ZpSet]:
    """One representative interval per extremal orbit (j and lam-j coincide up
    to negation, so only j < ceil((lam+1)/2) is listed)."""
    return [extremal_interval(params, j) for j in range(params.extremal_orbit_count())]


def gen_cuboid(spec: CuboidSpec) -> VecSet:
    pr = spec.params
    out = _assemble("cuboid", pr, vars(spec))
    _verify_emission(out, pr, (pr.m + 1) * pr.p ** (pr.n - 1), f"cuboid j={spec.j}")
    return out


# ---------------------------------------------------------------------------
# Types 1-5 and the second-level (2,1) structure


@dataclass(frozen=True)
class TypeSpec:
    """A type 1-5 or rz structure; `which`'s STRUCTURES row names the fields
    it reads, and a field it does not read must stay None."""

    which: str
    params: Params
    a: int | None = None
    vbasis: tuple[tuple[int, ...], ...] | None = None
    s: int | None = None
    pset: tuple[tuple[int, ...], ...] | None = None
    notes: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        object.__setattr__(self, "notes", tuple(validate_type_spec(self)))


def validate_type_spec(spec: TypeSpec) -> list[str]:
    """Check the table window and the per-kind fields; returns advisory notes."""
    pr = spec.params
    which = spec.which
    notes: list[str] = []
    if which not in TYPE_KINDS:
        raise ParameterError(f"unknown structure kind {which!r}")
    _refuse_unread(which, {f: v for f, v in vars(spec).items() if f not in ("which", "params", "notes")})
    _check_window(which, pr)
    if which == "type1":
        if spec.a is None:
            raise ParameterError("type 1 needs the interval start a")
        if spec.a % pr.p not in type1_a_values(pr):
            raise ParameterError(
                f"type 1 requires l*a - k*(a+m-1) in [1,l] or [lam+l+2,k]; a={spec.a} fails"
            )
    elif which in ("type2", "type4"):
        basis = tuple(spec.vbasis or ())
        for v in basis:
            if len(v) != pr.n - 1:
                raise ParameterError(f"V basis vector {v} does not live in F_p^{pr.n - 1}")
        if len(basis) >= pr.n - 1:
            raise ParameterError(
                f"{which.replace('type', 'type ')} requires V to be a proper subspace of F_p^(n-1)"
            )
        subspace_span(pr.p, pr.n - 1, basis)  # raises on dependent basis
    elif which in ("type5", "rz"):
        s = spec.s or 0
        if not 0 <= s <= pr.n - 1:
            raise ParameterError(f"s={s} outside [0, n-1]")
        pset = tuple(spec.pset or ())
        for v in pset:
            if len(v) != s:
                raise ParameterError(f"P entry {v} does not live in F_p^{s}")
        if which == "type5" and not pset:
            raise ParameterError("type 5 requires a nonempty P (P = {} collapses to type 1/2)")
        if which == "type5" and s == 0:
            # P nonempty in F_p^0 forces P = {0}, and then 0 lies in 3P.
            raise ParameterError("type 5 requires 0 not in 3P; s = 0 admits no valid P")
        # Both windows have l = 1, so the bands need 0 outside kP (k = 3 for
        # type 5, k = 2 for rz).  Cell sum_i v_i p^i of a mask holds v, so
        # bit 0 is the zero vector.
        cells = {sum(c % pr.p * pr.p**i for i, c in enumerate(v)) for v in pset}
        if fold_masks(pr.p, s, sum(1 << c for c in cells), pr.k)[-1] & 1:
            raise ParameterError("type 5 requires 0 not in 3P" if which == "type5"
                                 else "rz requires 0 not in P+P")
        if which == "rz" and s == 0:
            # The published classification takes s >= 1, yet the s = 0 slice
            # (a plain interval times the full hyperplane) demonstrably occurs
            # in 1-dimensional enumerations; accept it and flag the choice.
            notes.append("s=0 accepted: interval slice [m, 2m-1] x F_p^(n-1); "
                         "the published classification states s >= 1")
    return notes


def gen_type(spec: TypeSpec) -> VecSet:
    pr = spec.params
    out = _assemble(spec.which, pr, vars(spec))
    _verify_emission(out, pr, pr.m * pr.p ** (pr.n - 1), spec.which)
    return out


def type_support(spec: TypeSpec) -> ZpSet:
    """Axis support of the generated structure under the natural decomposition:
    the bands whose fibre is nonempty."""
    return _support(spec.which, spec.params, vars(spec))


# ---------------------------------------------------------------------------
# Triviality: is the set isomorphic to a subset of an extremal cuboid?


@dataclass(frozen=True)
class TrivialityReport:
    status: str           # "trivial" | "nontrivial"
    witness: dict | None
    detail: str


# Bound on the (row, c, j) cells of one `extremal_embeddings` array test
# (512 KB of uint64 words).
_EMBED_CELLS = 1 << 16


def extremal_embeddings(p: int, masks, intervals: list[ZpSet]) -> list[tuple[int, int] | None]:
    """For each of a batch of subsets S of Z_p (p-bit masks, as a list or a
    word array), in the order of `masks`: the first (c, j), scanning
    c = 1..p-1 and for each c every j, with c*S inside intervals[j], or None.

    c*S lies in I_j iff S misses the complement of c^(-1) I_j, so one array
    test of the masks against the cached complements, laid out by c and then
    j, decides every (c, j) at once, and a row's first miss is its first
    (c, j).  Rows go in chunks of at most _EMBED_CELLS (row, c, j) cells.
    """
    words = word_array(p, masks)
    if not intervals:
        return [None] * len(words)
    outside = _preimage_complements(p, tuple(iv.mask for iv in intervals))
    width = len(intervals)
    out = []
    chunk = max(1, _EMBED_CELLS // len(outside))
    for lo in range(0, len(words), chunk):
        inside = (words[lo:lo + chunk, None] & outside) == 0
        first = inside.argmax(axis=1)
        found = inside[np.arange(len(first)), first]
        out += [(at // width + 1, at % width) if hit else None
                for at, hit in zip(first.tolist(), found.tolist())]
    return out


@lru_cache(maxsize=64)
def _preimage_complements(p: int, masks: tuple[int, ...]) -> np.ndarray:
    """Read-only words whose entry (c-1)*J + j is the complement in Z_p of
    c^(-1) I_j, I_j the j-th of the J interval masks `masks`."""
    # one call per interval: dilation_images takes sets of one size
    images = np.concatenate([dilation_images(p, [mask]) for mask in masks])
    inverses = [pow(c, -1, p) - 1 for c in range(1, p)]
    words = ((1 << p) - 1) ^ images[:, inverses].T.reshape(-1)
    words.setflags(write=False)
    return words


def nontriviality_check(a: VecSet, params: Params) -> TrivialityReport:
    """Decide containment-up-to-isomorphism in an extremal cuboid (n <= 2).

    n = 1: scan every dilation against every extremal interval (complete).
    n = 2: an automorphism carrying A into a cuboid forces the preimage of
    the cuboid's hyperplane to be one of the p+1 lines, and on the axis it
    acts as a dilation; scanning (line, dilation, j) is therefore complete.
    Every line support is read off one `line_part_sizes` matrix, and only
    lines whose support is no wider than an extremal interval are scanned.
    """
    intervals = extremal_intervals(params)
    if a.n == 1:
        hit = extremal_embeddings(a.p, [a.mask], intervals)[0]
        if hit is None:
            return TrivialityReport(
                "nontrivial", None, "no dilation lands in any extremal interval (full scan)"
            )
        s, j = hit
        return TrivialityReport(
            "trivial", {"dilation": s, "j": j}, f"{s}*A lies in extremal interval j={j}"
        )
    if a.n == 2:
        return _nontriviality_2d(line_part_sizes(a), intervals)
    raise CriterionError("unsupported dimension for completeness; support obstruction only")


def _nontriviality_2d(counts: np.ndarray, intervals: list[ZpSet]) -> TrivialityReport:
    """The n = 2 (line, dilation, j) scan over the rows of a part-size matrix.

    A line whose support has more points than the widest extremal interval
    cannot dilate into one, so only the narrower lines reach the dilation
    scan, in line order; the first hit is the witness.
    """
    p = counts.shape[1]
    supports = counts > 0
    widest = max(len(iv) for iv in intervals)
    lines = np.flatnonzero(supports.sum(axis=1) <= widest).tolist()
    hits = extremal_embeddings(p, [bits_to_mask(supports[line]) for line in lines], intervals)
    for line, hit in zip(lines, hits):
        if hit is not None:
            s, j = hit
            v, k = line_basis(p, line)
            return TrivialityReport(
                "trivial",
                {"line": line, "dilation": s, "j": j, "v": v, "kbasis": (k,)},
                f"axis support of line {line} embeds into extremal interval j={j}",
            )
    return TrivialityReport(
        "nontrivial",
        None,
        "no hyperplane support embeds into an extremal interval (all p+1 lines scanned)",
    )


# ---------------------------------------------------------------------------
# Pairwise distinctness certificates (support weight + e_d profile obstructions)


@dataclass(frozen=True)
class DistinctnessCertificate:
    kind_a: str
    kind_b: str
    method: str     # "weight" | "ed-profile"
    detail: str


def _reference_spec(kind: str, params: Params) -> TypeSpec:
    variants = STRUCTURES[kind].variants(params)
    if not variants:
        raise ParameterError(f"{kind} has no reference variant at {params}")
    return make_spec(kind, params, **next((f for f in variants if f.get("pset") is ANY_P), variants[0]))


def available_kinds(params: Params) -> list[str]:
    """Structure kinds whose parameter window contains `params` (n >= 2 view)."""
    out = []
    for kind in TYPE_KINDS:
        try:
            _reference_spec(kind, params)
        except ParameterError:
            continue
        out.append(kind)
    return out


def certify_type_distinctness(params: Params) -> list[DistinctnessCertificate]:
    """Certify pairwise non-isomorphism of all types valid at `params`.

    An isomorphism between two structures with full parts and proper supports
    forces equal support weights and supports equal up to a dilation, so a
    weight mismatch is already an obstruction, and for equal weights a
    difference of e_d multisets (a dilation invariant) is one.  The direct
    dilation scan backs up the multiset argument.  The underlying criterion
    needs m >= 5, which also guarantees every structure has a full part.
    """
    if params.m < 5:
        raise ParameterError("distinctness certificates are stated for m >= 5")
    kinds = [k for k in available_kinds(params) if k != "rz"]
    supports = {k: type_support(_reference_spec(k, params)) for k in kinds}
    out = []
    for i, ka in enumerate(kinds):
        for kb in kinds[i + 1 :]:
            sa, sb = supports[ka], supports[kb]
            if len(sa) != len(sb):
                cert = DistinctnessCertificate(
                    ka, kb, "weight", f"support weights differ: {len(sa)} vs {len(sb)}"
                )
            else:
                ma, mb = ed_profile(sa).multiset(), ed_profile(sb).multiset()
                if ma == mb:
                    raise GeneratorCheckError(
                        f"no obstruction separates {ka} and {kb} at {params}"
                    )
                if sb.mask in dilation_images(params.p, [sa.mask])[0].tolist():
                    raise GeneratorCheckError(
                        f"supports of {ka} and {kb} coincide up to dilation at {params}"
                    )
                cert = DistinctnessCertificate(
                    ka, kb, "ed-profile", f"e_d multisets differ: {ma} vs {mb}"
                )
            out.append(cert)
    return out


def type3_support_profile(params: Params):
    """The e_d profile of the type-3 support; for m >= 5 it is e_2 = 4 with
    every other e_d at least 6, which pins the support apart from intervals."""
    return ed_profile(type_support(_reference_spec("type3", params)))
