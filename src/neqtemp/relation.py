"""The universal relation among global, subsystem and correlation temperatures.

The normalized traceless direction of the total Hamiltonian decomposes
exactly over the embedded local directions and the correlation direction,

    O1_SB = C_S (O_S x I) + C_B (I x O_B) + C_chi O_chi,

because H_SB = H_S_eff x I + I x H_B_eff + H_I_eff up to a multiple of the
identity. The coefficients C and the derived weights K_SB, b_S = C_S h_S,
b_B = C_B h_B and K_chi tie the four inverse temperatures together:

    K_SB beta_SB = b_S beta_tilde_S + b_B beta_tilde_B - K_chi beta_chi.

The tie is exact only at special points: ``residual`` is about 1e-15 on the
two-qubit family, but of order 1e-2 on generic states and on global Gibbs
states of GUE Hamiltonians, e.g. -1.7e-2 for ``sample_bipartite(2, 3, 0.5,
default_rng(0))``.

Without an interaction direction the weights reduce continuously to K_SB =
(h_S^2 + h_B^2)/h_SB, b = h^2/h_SB and K_chi = 0. The weights, temperatures
and residual are fields of the system's BipartiteReport, whose one builder in
:mod:`neqtemp.correlation` computes them; the functions here read it.
"""

from __future__ import annotations

from .correlation import BipartiteReport, BipartiteSystem, _report
from .linalg import _instance
from .thermometry import DEFAULT_CLIP

__all__ = [
    "expansion_coefficients", "relation_coefficients", "tilde_inverse_temperatures",
    "verify_universal_relation",
]


def expansion_coefficients(sys: BipartiteSystem) -> tuple[float, float, float]:
    """(C_S, C_B, C_chi) of O1_SB over the embedded local and chi directions.

    C_S = Tr[O1_SB (O_S x I)]/d_B, C_B = Tr[O1_SB (I x O_B)]/d_S, C_chi = Tr[O1_SB O_chi] (0 if degenerate).
    """
    frame = _instance(sys, BipartiteSystem).frame
    return frame.C_S, frame.C_B, frame.C_chi


def relation_coefficients(sys: BipartiteSystem) -> BipartiteReport:
    """The system's report at the default clip, read for its weights K_SB, b_S, b_B, K_chi (defined on every system)."""
    return _report(sys, DEFAULT_CLIP)


def tilde_inverse_temperatures(sys: BipartiteSystem, clip: float = DEFAULT_CLIP) -> tuple[float, float]:
    """Subsystem inverse temperatures corrected by the correlation entropy.

    beta_tilde_S = beta_S - dS_chi/dU_S at fixed U_B and U_chi, beta_S the
    local inverse temperature of (rho_S, H_S_eff), and the mirror image for B
    (derivative in :mod:`neqtemp.correlation`). Without an interaction
    direction only the HH_I term of the possibly still correlated state remains.
    """
    report = _report(sys, clip)
    return report.beta_tilde_S, report.beta_tilde_B


def verify_universal_relation(sys: BipartiteSystem, clip: float = DEFAULT_CLIP) -> BipartiteReport:
    """The system's report at ``clip``: every temperature in the relation and its residual.

    beta_SB is the inverse temperature of rho_SB w.r.t. H_SB; ``local_S`` and
    ``local_B`` are the reports beta_tilde_S and beta_tilde_B start from.
    Without an interaction direction K_chi = 0 and beta_chi is NaN.
    """
    return _report(sys, clip)
