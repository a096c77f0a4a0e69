"""The universal relation among global, subsystem and correlation temperatures.

The normalized traceless direction of the total Hamiltonian decomposes
exactly over the embedded local directions and the correlation direction,

    O1_SB = C_S (O_S x I) + C_B (I x O_B) + C_chi O_chi,

because H_SB = H_S_eff x I + I x H_B_eff + H_I_eff up to a multiple of the
identity. The coefficients C and the derived weights K_SB, b_S, b_B, K_chi
tie the four inverse temperatures together:

    K_SB beta_SB = b_S beta_tilde_S + b_B beta_tilde_B - K_chi beta_chi.

beta_tilde_S is the subsystem temperature seen with global information: the
local inverse temperature of (rho_S, H_S_eff) minus the constrained partial
derivative dS_chi/dU_S at fixed U_B and U_chi, evaluated in the operator
frame frozen at the state. The first divisor of that derivative is the
squared joint-space norm d_B of the embedded local direction (the printed
special case with divisor 2 is its d_B = 2 instance).

Units, overlaps and C are read from the system's BipartiteFrame, whose
builder (in :mod:`neqtemp.correlation`) defines the degenerate-interaction
convention C_chi = h_I = 0. Temperatures come from the trace algebra of
:mod:`neqtemp.correlation`. beta_SB = Cov(H_SB, -L)/Var(H_SB), L = log rho_SB,
never forms H_SB: Tr[H_SB^2] expands into local norms, traces and Tr[H_S Tr_B
H_I] + Tr[H_B Tr_S H_I], Tr[H_SB L] into Tr[H_S Tr_B L] + Tr[H_B Tr_S L] +
Tr[H_I L]; at the bound of :func:`inverse_temperature`, these moments are
checked against -Tr[O1_SB L]/h_SB through C, O_S, O_B and H_I_eff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .correlation import BipartiteSystem, _log_hamiltonian_traces, _log_traces
from .exceptions import NumericalError, ValidationError
from .linalg import HermitianOperator, _tr, matrix_log
from .thermometry import DEFAULT_CLIP, _beta_of_moments, inverse_temperature

__all__ = [
    "AuxiliaryBasis", "RelationCoefficients", "expansion_coefficients", "auxiliary_basis",
    "relation_coefficients", "tilde_inverse_temperatures", "verify_universal_relation",
    "large_bath_coefficients",
]


@dataclass(frozen=True)
class RelationCoefficients:
    """Expansion coefficients, relation weights and (optionally) the betas.

    ``residual`` = K_SB beta_SB - b_S beta_tilde_S - b_B beta_tilde_B + K_chi beta_chi
    vanishes where the relation is exact. Temperatures are NaN until
    :func:`verify_universal_relation` fills them in.
    """

    C_S: float
    C_B: float
    C_chi: float
    K_SB: float
    b_S: float
    b_B: float
    K_chi: float
    h_SB: float
    beta_SB: float = math.nan
    beta_tilde_S: float = math.nan
    beta_tilde_B: float = math.nan
    beta_chi: float = math.nan
    residual: float = math.nan
    interaction_degenerate: bool = False


def expansion_coefficients(sys: BipartiteSystem) -> tuple[float, float, float]:
    """(C_S, C_B, C_chi) of O1_SB over the embedded local and chi directions.

    C_S = Tr[O1_SB (O_S x I)]/d_B, C_B = Tr[O1_SB (I x O_B)]/d_S, C_chi = Tr[O1_SB O_chi] (0 if degenerate).
    """
    return sys.frame.C_S, sys.frame.C_B, sys.frame.C_chi


@dataclass(frozen=True)
class AuxiliaryBasis:
    """The two directions completing O1_SB over the three-operator span.

    ``O3_SB`` is None in the degenerate case (C_chi = 0, ``interaction_degenerate``).
    """

    O2_SB: HermitianOperator
    O3_SB: HermitianOperator | None
    interaction_degenerate: bool


def auxiliary_basis(sys: BipartiteSystem) -> AuxiliaryBasis:
    """O2_SB and O3_SB spanning, with O1_SB, the local-plus-chi subspace."""
    f = sys.frame
    c_s, c_b, c_chi = f.C_S, f.C_B, f.C_chi
    emb_s, emb_b = sys.embed_S(f.O_S), sys.embed_B(f.O_B)
    o2 = HermitianOperator._of_computed((c_b / sys.d_B) * emb_s - (c_s / sys.d_S) * emb_b)
    if c_chi == 0.0:
        return AuxiliaryBasis(O2_SB=o2, O3_SB=None, interaction_degenerate=True)
    o3 = HermitianOperator._of_computed(
        c_s * emb_s + c_b * emb_b - ((c_s**2 * sys.d_B + c_b**2 * sys.d_S) / c_chi) * f.O_chi.matrix
    )
    return AuxiliaryBasis(O2_SB=o2, O3_SB=o3, interaction_degenerate=False)


def relation_coefficients(sys: BipartiteSystem) -> RelationCoefficients:
    """Relation weights K_SB, b_S, b_B, K_chi from the Hamiltonian geometry.

    In the no-interaction degenerate case the weights reduce continuously to
    K_SB = (h_S^2 + h_B^2)/h_SB, b = h^2/h_SB, K_chi = 0.
    """
    f = sys.frame
    c_s, c_b, c_chi = f.C_S, f.C_B, f.C_chi
    denom = c_s**2 * sys.d_B + c_b**2 * sys.d_S
    if denom < 1e-14:
        raise NumericalError("both local expansion coefficients vanish; relation weights undefined")
    k_sb = f.h_SB * (c_s**2 + c_b**2 + c_chi**2 * (c_s**2 + c_b**2) / denom)
    k_chi = f.h_I * (c_chi * f.h_chi * (c_s**2 + c_b**2) / denom
                     + (c_s / sys.d_B) * f.overlap_S + (c_b / sys.d_S) * f.overlap_B)
    return RelationCoefficients(C_S=c_s, C_B=c_b, C_chi=c_chi, K_SB=k_sb, b_S=c_s * f.h_S, b_B=c_b * f.h_B,
                                K_chi=k_chi, h_SB=f.h_SB, interaction_degenerate=f.h_I == 0.0)


def tilde_inverse_temperatures(sys: BipartiteSystem, clip: float = DEFAULT_CLIP) -> tuple[float, float]:
    """Subsystem inverse temperatures corrected by the correlation entropy.

    beta_tilde_S = beta_S - dS_chi/dU_S, the derivative at fixed U_B and U_chi:

        dS_chi/dU_S = -(Tr[(O_S x I) HH_I] + overlap_S h_I beta_chi)/(d_B h_S)

    and the mirror image for B (divisor d_S); beta_S is the local inverse
    temperature of (rho_S, H_S_eff). Without an interaction direction only the
    first term (HH_I of the possibly still correlated state) remains.
    """
    return _log_hamiltonian_temperatures(sys, clip)[:2]


def _log_hamiltonian_temperatures(sys: BipartiteSystem, clip: float) -> tuple[float, float, float]:
    """beta_tilde_S, beta_tilde_B and beta_chi (NaN if undefined) from one set of log traces."""
    f = sys.frame
    t_os, t_ob, beta_chi = _log_hamiltonian_traces(sys, clip)
    # Without an interaction direction the overlaps vanish and so does this term.
    chi_part = 0.0 if f.h_I == 0.0 else f.h_I * beta_chi
    ds_du_s = -(t_os + f.overlap_S * chi_part) / (sys.d_B * f.h_S)
    ds_du_b = -(t_ob + f.overlap_B * chi_part) / (sys.d_S * f.h_B)
    beta_s = inverse_temperature(sys.rho_S, sys.effective.H_S_eff, clip).beta
    beta_b = inverse_temperature(sys.rho_B, sys.effective.H_B_eff, clip).beta
    return beta_s - ds_du_s, beta_b - ds_du_b, beta_chi


def verify_universal_relation(sys: BipartiteSystem, clip: float = DEFAULT_CLIP) -> RelationCoefficients:
    """Evaluate every temperature in the relation and its residual.

    beta_SB is the inverse temperature of rho_SB w.r.t. H_SB. Without an
    interaction direction K_chi = 0 and beta_chi is NaN.
    """
    coeffs = relation_coefficients(sys)
    beta_sb = _global_beta(sys, clip)
    bt_s, bt_b, beta_chi = _log_hamiltonian_temperatures(sys, clip)
    chi_term = 0.0 if coeffs.interaction_degenerate else coeffs.K_chi * beta_chi
    residual = coeffs.K_SB * beta_sb - coeffs.b_S * bt_s - coeffs.b_B * bt_b + chi_term
    return replace(coeffs, beta_SB=beta_sb, beta_tilde_S=bt_s, beta_tilde_B=bt_b, beta_chi=beta_chi,
                   residual=residual)


def _global_beta(sys: BipartiteSystem, clip: float) -> float:
    """beta_SB of (rho_SB, H_SB) by trace algebra (see the module docstring)."""
    f, lt, d_s, d_b = sys.frame, _log_traces(sys, clip), sys.d_S, sys.d_B
    hs, hb, hi = sys.H_S, sys.H_B, sys.H_I
    hi_s, hi_b = sys._shifts[3:]
    with np.errstate(over="ignore", invalid="ignore"):
        tr_h = d_b * hs.trace + d_s * hb.trace + hi.trace
        tr_hh = (d_b * _tr(hs, hs) + d_s * _tr(hb, hb) + _tr(hi, hi)
                 + 2.0 * (hs.trace * hb.trace + _tr(hs, hi_s) + _tr(hb, hi_b)))
        tr_hl = _tr(hs, lt.part_S) + _tr(hb, lt.part_B) + lt.H_I
    s_l, b_l = _tr(f.O_S, lt.part_S), _tr(f.O_B, lt.part_B)  # Tr[(O_S x I) L], Tr[(I x O_B) L]
    o1_l = f.C_S * s_l + f.C_B * b_l
    if f.h_I != 0.0:
        oi_l = (lt.H_I_eff - f._interaction[0] / sys.dim * lt.tr) / f.h_I  # Tr[O_I L]
        o1_l += f.C_chi * (oi_l - f.overlap_S * s_l / d_b - f.overlap_B * b_l / d_s) / f.h_chi
    # The conditioning scale of the cross-check reads H_SB, built only if it is needed.
    max_l = float(np.max(np.abs(matrix_log(sys.rho_SB, clip).operator.matrix)))
    cond = lambda: sys.dim * float(np.max(np.abs(sys.H_SB().matrix))) * max_l / f.h_SB**2
    return _beta_of_moments(sys.rho_SB, f.h_SB, (tr_h, lt.tr, tr_hh, tr_hl), -o1_l / f.h_SB, cond)[0]


def large_bath_coefficients(sys: BipartiteSystem) -> RelationCoefficients:
    """Asymptotic relation weights in the C_S -> 0 (large-bath) regime.

    Valid when the bath dominates: requires d_B >= 4 d_S. The exact weights
    converge to these as the bath grows; b_S is dropped entirely.
    """
    if sys.d_B < 4 * sys.d_S:
        raise ValidationError(f"large-bath form needs d_B >= 4 d_S, got d_B={sys.d_B}, d_S={sys.d_S}")
    f = sys.frame
    c_b, c_chi = f.C_B, f.C_chi
    k_sb = f.h_SB * (c_b**2 + c_chi**2 / sys.d_S)
    k_chi = f.h_I * (c_chi * f.h_chi / sys.d_S + (c_b / sys.d_S) * f.overlap_B)
    return RelationCoefficients(C_S=f.C_S, C_B=c_b, C_chi=c_chi, K_SB=k_sb, b_S=0.0, b_B=f.h_B * c_b,
                                K_chi=k_chi, h_SB=f.h_SB, interaction_degenerate=f.h_I == 0.0)
