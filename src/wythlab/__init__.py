"""Verification workbench for Wythoff-game variants.

Two rule families are covered: K^ell, ordinary Wythoff play where every
position with coordinate sum at most ell is terminal, and W^k, where the
player who just moved may forbid up to k-1 of the opponent's options.  The
package computes exact P/N tables by retrograde analysis, implements the
closed-form, recursive, and morphic descriptions of the P-sets, infers
substitution systems from sequence prefixes, and cross-checks everything
at desk scale.
"""
from .characterizations import (
    DiscrepancyProfile,
    check_discrepancy,
    closed_form_K1,
    closed_form_K2,
    closed_form_K3,
    closed_form_K4,
    closed_form_pairs,
    counting_check,
    density_certificate,
    discrepancy_profile,
    k1_closed_form_mask,
    k1_remark_pair,
    k2_closed_form_mask,
    mex_sequence,
    morphic_coding_check,
    ppos_W2,
    ppos_W3,
    spectrum_bounds,
    w2_closed_form_mask,
    w3_closed_form_mask,
)
from .fibnum import (
    fib,
    floor_phi,
    floor_phi2,
    floor_phi_range,
    hofstadter_h,
    is_canonical,
    mex,
    rep_F,
    shift,
    val_F,
)
from .games import (
    CacheError,
    CheckResult,
    GameSpec,
    PNTable,
    PposSequence,
    ResourceLimitError,
    check_absorbing,
    check_stable,
    kspec,
    non_redundant_witness,
    non_redundant_witnesses,
    option_member_counts,
    options,
    ppos_list,
    read_table_cache,
    solve,
    solve_pairs,
    write_table_cache,
    wspec,
)
from .morphisms import (
    DFAO,
    Coding,
    InferenceError,
    InferenceResult,
    Morphism,
    block_span,
    eval_dfao,
    fixed_point_prefix,
    infer_morphism,
    infer_morphism_auto,
    k2_adjust,
    k2_adjust_prefix,
    promote,
)
from .walnut import WalnutFormatError, from_walnut, to_walnut

__version__ = "0.1.0"
