"""Toolkit for (k,l)-sum-free sets in F_p^n: constructions, classification,
exhaustive enumeration, covering-property scans and Fourier checks."""

from .zpset import (
    ApCover,
    EdProfile,
    ZpSet,
    ZpSetError,
    dilate,
    ed_count,
    ed_profile,
    find_kl_sums,
    format_zpset,
    hfold,
    holes,
    is_ap,
    is_kl_sumfree,
    min_ap_cover,
    parse_zpset,
    sumset,
)
from .vecset import (
    CriterionError,
    Params,
    VecSet,
    VecSetError,
    apply_automorphism,
    format_vecset,
    kneser_gap,
    parse_vecset,
    sym_group,
    vec_is_kl_sumfree,
    vhfold,
    vsumset,
)
from .modmath import GeneratorCheckError
from .constructions import (
    CuboidSpec,
    ParameterError,
    TrivialityReport,
    TypeSpec,
    certify_type_distinctness,
    extremal_interval,
    extremal_intervals,
    gen_cuboid,
    gen_type,
    nontriviality_check,
    type1_a_values,
)
from .classify import ClassReport, classify
from .search import SearchLimitError, SearchResult, canonical_form, enumerate_max, enumerate_second_level
from .covering import CoveringVerdict, TauScan, covering_verdict, covering_verdicts, tau_scan
from .spectral import (
    Spectrum,
    kl_vanishing_sum,
    spectrum,
    spectrum_direct,
    sumfree_spectral_bound,
    verify_spectral_lemma,
)

__version__ = "0.1.0"
