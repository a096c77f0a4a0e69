"""The universal relation among global, subsystem and correlation temperatures.

The normalized traceless direction of the total Hamiltonian decomposes
exactly over the embedded local directions and the correlation direction,

    O1_SB = C_S (O_S x I) + C_B (I x O_B) + C_chi O_chi,

because H_SB = H_S_eff x I + I x H_B_eff + H_I_eff up to a multiple of the
identity. The coefficients C and the derived weights K_SB, b_S, b_B, K_chi
tie the four inverse temperatures together:

    K_SB beta_SB = b_S beta_tilde_S + b_B beta_tilde_B - K_chi beta_chi.

This module holds the weights and the residual of that relation. Units,
overlaps and C are read from the system's BipartiteFrame, whose builder
defines the degenerate-interaction convention C_chi = h_I = 0; the
temperatures are read from the system's temperature record. Both live in
:mod:`neqtemp.correlation`, with the trace algebra that defines them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .correlation import BipartiteSystem, _temperatures
from .exceptions import NumericalError, ValidationError
from .linalg import HermitianOperator, _local_sum
from .thermometry import DEFAULT_CLIP, TemperatureReport

__all__ = [
    "AuxiliaryBasis", "RelationCoefficients", "expansion_coefficients", "auxiliary_basis",
    "relation_coefficients", "tilde_inverse_temperatures", "verify_universal_relation",
    "large_bath_coefficients",
]


@dataclass(frozen=True)
class RelationCoefficients:
    """Expansion coefficients, relation weights and (optionally) the betas.

    ``residual`` = K_SB beta_SB - b_S beta_tilde_S - b_B beta_tilde_B + K_chi beta_chi
    vanishes where the relation is exact. Temperatures are NaN, and the local
    reports of (rho_S, H_S_eff) and (rho_B, H_B_eff) None, until
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
    local_S: TemperatureReport | None = None
    local_B: TemperatureReport | None = None


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
    o_s, o_b = f.O_S.matrix, f.O_B.matrix
    o2 = HermitianOperator._of_computed(_local_sum((c_b / sys.d_B) * o_s, -(c_s / sys.d_S) * o_b))
    if c_chi == 0.0:
        return AuxiliaryBasis(O2_SB=o2, O3_SB=None, interaction_degenerate=True)
    o3 = HermitianOperator._of_computed(
        _local_sum(c_s * o_s, c_b * o_b, -((c_s**2 * sys.d_B + c_b**2 * sys.d_S) / c_chi) * f.O_chi.matrix))
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

    beta_tilde_S = beta_S - dS_chi/dU_S at fixed U_B and U_chi, beta_S the
    local inverse temperature of (rho_S, H_S_eff), and the mirror image for B
    (derivative in :mod:`neqtemp.correlation`). Without an interaction
    direction only the HH_I term of the possibly still correlated state remains.
    """
    temps = _temperatures(sys, clip)
    return temps.beta_tilde_S, temps.beta_tilde_B


def verify_universal_relation(sys: BipartiteSystem, clip: float = DEFAULT_CLIP) -> RelationCoefficients:
    """Evaluate every temperature in the relation and its residual.

    beta_SB is the inverse temperature of rho_SB w.r.t. H_SB; ``local_S`` and
    ``local_B`` are the reports beta_tilde_S and beta_tilde_B start from.
    Without an interaction direction K_chi = 0 and beta_chi is NaN.
    """
    coeffs, t = relation_coefficients(sys), _temperatures(sys, clip)
    chi_term = 0.0 if coeffs.interaction_degenerate else coeffs.K_chi * t.beta_chi
    residual = coeffs.K_SB * t.beta_SB - coeffs.b_S * t.beta_tilde_S - coeffs.b_B * t.beta_tilde_B + chi_term
    return replace(coeffs, beta_SB=t.beta_SB, beta_tilde_S=t.beta_tilde_S, beta_tilde_B=t.beta_tilde_B,
                   beta_chi=t.beta_chi, residual=residual, local_S=t.local_S, local_B=t.local_B)


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
