"""Bipartite decomposition and the correlation temperature.

A bipartite system carries local Hamiltonians H_S, H_B, an interaction H_I on
the joint space and a joint state rho_SB (S is always the left tensor
factor). The correlation content of the state is chi = rho_SB - rho_S x
rho_B; its energy is the binding energy U_chi = Tr[chi H_I_eff] and its
entropy the mutual information S_chi. The correlation temperature is the
constrained partial derivative dS_chi/dU_chi at fixed local energies,
evaluated in the operator frame frozen at the state:

    beta_chi = -Tr[O_chi HH_I] / (h_I h_chi),

where HH_I = -log rho_SB + log rho_S x I + I x log rho_B is the correlation
part of the log-Hamiltonian, O_I the unit direction of the effective
interaction, and O_chi the component of O_I orthogonal to the local
directions. The 1/h_I factor is the Jacobian dU_chi = h_I h_chi dy_chi of
the coordinate the derivative is taken along; it is required for the
Gibbs-family identity beta_chi = -beta to hold.

The clip-independent geometry (units, weights, overlaps, O_chi and the
coefficients C of O1_SB) lives in one :class:`BipartiteFrame`, built once per
system by ``BipartiteSystem.frame``; its builder alone defines the convention
for a degenerate interaction (H_I_eff proportional to the identity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import hamiltonian_unit
from .exceptions import DegenerateDirectionError, NumericalError, ValidationError
from .linalg import (
    DEFAULT_TOLS,
    DensityMatrix,
    HermitianOperator,
    MatrixLog,
    Tolerances,
    hs_inner,
    matrix_log,
    partial_trace,
    tensor_product,
)
from .thermometry import DEFAULT_CLIP, von_neumann_entropy

__all__ = [
    "BipartiteSystem",
    "EffectiveHamiltonians",
    "BipartiteFrame",
    "CorrelationReport",
    "correlation_operator",
    "binding_energy",
    "mutual_information",
    "correlation_log_hamiltonian",
    "chi_unit",
    "correlation_inverse_temperature",
]


class BipartiteSystem:
    """Bipartite Hamiltonian data and joint state, with cached derived parts.

    H_S, H_B, H_I and rho_SB are validated when the caller builds them
    (:class:`HermitianOperator`, :class:`DensityMatrix`); the marginals are
    validated as density matrices here. Everything derived from them (the
    effective Hamiltonians, H_SB, the frame's directions, HH_I and chi) is
    wrapped without a Hermiticity check, through
    ``HermitianOperator._of_computed``, which symmetrizes it and checks that
    it is finite.

    Marginals and effective Hamiltonians are computed once at construction,
    the total Hamiltonian and the :class:`BipartiteFrame` once on first use,
    and HH_I once per clip (see :func:`correlation_log_hamiltonian`); it
    shares log rho_SB, log rho_S and log rho_B with every other user of those
    states' logs. Instances are immutable afterwards and safe to share.
    """

    __slots__ = (
        "d_S", "d_B", "H_S", "H_B", "H_I", "rho_SB",
        "rho_S", "rho_B", "effective", "_H_SB", "_frame", "_log_hamiltonians",
    )

    def __init__(
        self,
        d_S: int,
        d_B: int,
        H_S: HermitianOperator,
        H_B: HermitianOperator,
        H_I: HermitianOperator,
        rho_SB: DensityMatrix,
        tols: Tolerances = DEFAULT_TOLS,
    ):
        d_S, d_B = int(d_S), int(d_B)
        if d_S < 2 or d_B < 2:
            raise ValidationError("both factors must have dimension at least 2")
        d = d_S * d_B
        if H_S.dim != d_S or H_B.dim != d_B:
            raise ValidationError("local Hamiltonian dimensions do not match (d_S, d_B)")
        if H_I.dim != d or rho_SB.dim != d:
            raise ValidationError("joint-space dimensions do not match d_S * d_B")
        self.d_S, self.d_B = d_S, d_B
        self.H_S, self.H_B, self.H_I = H_S, H_B, H_I
        self.rho_SB = rho_SB
        self.rho_S = DensityMatrix(partial_trace(rho_SB, (d_S, d_B), keep=0), tols)
        self.rho_B = DensityMatrix(partial_trace(rho_SB, (d_S, d_B), keep=1), tols)
        self.effective = _effective_hamiltonians(self)
        self._H_SB = self._frame = None
        self._log_hamiltonians: dict[float, MatrixLog] = {}

    @property
    def dim(self) -> int:
        return self.d_S * self.d_B

    def H_SB(self) -> HermitianOperator:
        """Total Hamiltonian H_S x I + I x H_B + H_I on the joint space."""
        if self._H_SB is None:
            self._H_SB = HermitianOperator._of_computed(
                self.embed_S(self.H_S) + self.embed_B(self.H_B) + self.H_I.matrix
            )
        return self._H_SB

    @property
    def frame(self) -> BipartiteFrame:
        """The system's :class:`BipartiteFrame`, built on first access (see chi_unit)."""
        if self._frame is None:
            self._frame = _build_frame(self)
        return self._frame

    def embed_S(self, op: HermitianOperator | np.ndarray) -> np.ndarray:
        """op x I_B on the joint space."""
        return tensor_product(op, np.eye(self.d_B))

    def embed_B(self, op: HermitianOperator | np.ndarray) -> np.ndarray:
        """I_S x op on the joint space."""
        return tensor_product(np.eye(self.d_S), op)


@dataclass(frozen=True)
class EffectiveHamiltonians:
    """Mean-field-shifted local Hamiltonians and the recentered interaction.

    H_S_eff = H_S + Tr_B[(I x rho_B) H_I] and symmetrically for B; H_I_eff is
    H_I with both Lamb-shift-like terms removed and the doubly-averaged scalar
    restored, so that its partner-averaged means vanish exactly.
    """

    H_S_eff: HermitianOperator
    H_B_eff: HermitianOperator
    H_I_eff: HermitianOperator


def _effective_hamiltonians(sys: BipartiteSystem) -> EffectiveHamiltonians:
    hi = sys.H_I.matrix
    t = hi.reshape(sys.d_S, sys.d_B, sys.d_S, sys.d_B)
    # Tr_B[(I x rho_B) H_I], Tr_S[(rho_S x I) H_I] and Tr[(rho_S x rho_B) H_I],
    # contracted index by index instead of through joint-space products.
    # Both shifts are Hermitian; symmetrizing them drops the rounding
    # residue, which scales with H_I, before it enters H_I_eff.
    lamb_S = HermitianOperator._of_computed(np.einsum("ab,ibja->ij", sys.rho_B.matrix, t))
    lamb_B = HermitianOperator._of_computed(np.einsum("ik,kaic->ac", sys.rho_S.matrix, t))
    mean = float(np.vdot(sys.rho_S.matrix, lamb_S.matrix).real)
    hi_eff = hi - sys.embed_S(lamb_S) - sys.embed_B(lamb_B) + mean * np.eye(sys.dim)
    return EffectiveHamiltonians(
        H_S_eff=HermitianOperator._of_computed(sys.H_S.matrix + lamb_S.matrix),
        H_B_eff=HermitianOperator._of_computed(sys.H_B.matrix + lamb_B.matrix),
        H_I_eff=HermitianOperator._of_computed(hi_eff),
    )


def correlation_operator(sys: BipartiteSystem) -> HermitianOperator:
    """chi = rho_SB - rho_S x rho_B: traceless with vanishing partial traces."""
    chi = sys.rho_SB.matrix - tensor_product(sys.rho_S, sys.rho_B)
    return HermitianOperator._of_computed(chi)


def binding_energy(sys: BipartiteSystem) -> float:
    """U_chi = Tr[chi H_I_eff], the interaction energy held in correlations.

    Equal to Tr[chi H_I] and to Tr[rho_SB H_SB] - Tr[rho_S x rho_B H_SB]; the
    three expressions are cross-asserted.
    """
    prod = tensor_product(sys.rho_S.matrix, sys.rho_B.matrix)
    chi = sys.rho_SB.matrix - prod
    hsb = sys.H_SB().matrix
    u1 = float(np.vdot(chi, sys.effective.H_I_eff.matrix).real)
    u2 = float(np.vdot(chi, sys.H_I.matrix).real)
    u3 = float(np.vdot(sys.rho_SB.matrix, hsb).real) - float(np.vdot(prod, hsb).real)
    scale = max(1.0, abs(u1))
    if abs(u1 - u2) > 1e-10 * scale or abs(u1 - u3) > 1e-10 * scale:
        raise NumericalError(
            f"binding-energy expressions disagree: {u1!r}, {u2!r}, {u3!r}"
        )
    return u1


def mutual_information(sys: BipartiteSystem) -> float:
    """S_chi = S(rho_S) + S(rho_B) - S(rho_SB) >= 0."""
    return (
        von_neumann_entropy(sys.rho_S)
        + von_neumann_entropy(sys.rho_B)
        - von_neumann_entropy(sys.rho_SB)
    )


def correlation_log_hamiltonian(sys: BipartiteSystem, clip: float = DEFAULT_CLIP) -> MatrixLog:
    """HH_I = -log rho_SB + log rho_S x I + I x log rho_B.

    Vanishes identically iff the state is the product of its marginals.
    Rank-deficient states are handled through the clip regularization; the
    clipped flag propagates from any of the three logarithms.

    Built once per clip and cached on ``sys``; the three logarithms are the
    states' own cached ones (see :func:`neqtemp.linalg.matrix_log`).
    """
    hh = sys._log_hamiltonians.get(clip)
    if hh is None:
        hh = sys._log_hamiltonians.setdefault(clip, _build_log_hamiltonian(sys, clip))
    return hh


def _build_log_hamiltonian(sys: BipartiteSystem, clip: float) -> MatrixLog:
    log_sb = matrix_log(sys.rho_SB, clip)
    log_s = matrix_log(sys.rho_S, clip)
    log_b = matrix_log(sys.rho_B, clip)
    m = -log_sb.operator.matrix + sys.embed_S(log_s.operator) + sys.embed_B(log_b.operator)
    return MatrixLog(
        HermitianOperator._of_computed(m),
        clipped=log_sb.clipped or log_s.clipped or log_b.clipped,
    )


def _embedded_traces(sys: BipartiteSystem, o_s, o_b, m) -> tuple[float, float]:
    """Tr[(o_s x I) m] and Tr[(I x o_b) m], as Tr[o_s Tr_B m] and Tr[o_b Tr_S m]."""
    dims = (sys.d_S, sys.d_B)
    return (
        hs_inner(o_s, partial_trace(m, dims, keep=0)),
        hs_inner(o_b, partial_trace(m, dims, keep=1)),
    )


@dataclass(frozen=True)
class BipartiteFrame:
    """Unit directions, weights, overlaps and expansion coefficients of a system.

    O_S, O_B, O_I, O1_SB are the unit directions of H_S_eff, H_B_eff, H_I_eff,
    H_SB with weights h_S, h_B, h_I, h_SB. ``overlap_S`` = Tr[O_I (O_S x I)]
    and ``overlap_B`` = Tr[O_I (I x O_B)] are taken on the joint space, where
    O_S x I has squared norm d_B; h_chi = sqrt(1 - overlap_S^2/d_B -
    overlap_B^2/d_S) is the norm of O_I orthogonalized against the local
    directions, O_chi that remainder normalized, and
    O1_SB = C_S (O_S x I) + C_B (I x O_B) + C_chi O_chi.

    Degenerate interaction (H_I_eff proportional to the identity to within
    rounding on the scale of H_I, e.g. H_I = 0, H_I proportional to I, or a
    local H_I): O_I = O_chi = None, h_I = overlap_S = overlap_B = C_chi = 0 and
    h_chi = 1, so every relation weight reduces to its no-interaction form.
    """

    O_S: HermitianOperator
    h_S: float
    O_B: HermitianOperator
    h_B: float
    O1_SB: HermitianOperator
    h_SB: float
    O_I: HermitianOperator | None
    h_I: float
    O_chi: HermitianOperator | None
    h_chi: float
    overlap_S: float
    overlap_B: float
    C_S: float
    C_B: float
    C_chi: float


def _build_frame(sys: BipartiteSystem) -> BipartiteFrame:
    eff = sys.effective
    o_s, h_s = hamiltonian_unit(eff.H_S_eff)
    o_b, h_b = hamiltonian_unit(eff.H_B_eff)
    o1, h_sb = hamiltonian_unit(sys.H_SB())
    t_s, t_b = _embedded_traces(sys, o_s, o_b, o1)
    try:
        o_i, h_i = hamiltonian_unit(eff.H_I_eff)
    except DegenerateDirectionError:
        o_i, h_i = None, 0.0
    # H_I_eff is H_I minus its mean-field parts; when those cancel it exactly
    # (H_I proportional to I, or local), rounding leaves a residue of order
    # eps * max|H_I| that is no direction, so judge h_I on H_I's scale.
    if o_i is None or h_i <= DEFAULT_TOLS.rank * float(np.max(np.abs(sys.H_I.matrix))):
        o_i, h_i, o_chi, h_chi, c_s, c_b, c_chi = None, 0.0, None, 1.0, 0.0, 0.0, 0.0
    else:
        c_s, c_b = _embedded_traces(sys, o_s, o_b, o_i)
        h_chi_sq = 1.0 - c_s**2 / sys.d_B - c_b**2 / sys.d_S
        if h_chi_sq <= 1e-20:
            raise NumericalError(
                "interaction direction lies in the span of the local directions; "
                "no correlation direction remains (h_chi ~ 0)"
            )
        h_chi = math.sqrt(h_chi_sq)
        o_chi = HermitianOperator._of_computed(
            (o_i.matrix - (c_s / sys.d_B) * sys.embed_S(o_s) - (c_b / sys.d_S) * sys.embed_B(o_b))
            / h_chi
        )
        c_chi = hs_inner(o1, o_chi)
    return BipartiteFrame(
        O_S=o_s, h_S=h_s, O_B=o_b, h_B=h_b, O1_SB=o1, h_SB=h_sb,
        O_I=o_i, h_I=h_i, O_chi=o_chi, h_chi=h_chi, overlap_S=c_s, overlap_B=c_b,
        C_S=t_s / sys.d_B, C_B=t_b / sys.d_S, C_chi=c_chi,
    )


def chi_unit(sys: BipartiteSystem) -> BipartiteFrame:
    """The system's frame, for callers that need the correlation direction.

    :raises DegenerateDirectionError: when H_I_eff is proportional to the
        identity (which includes H_I = 0).
    :raises NumericalError: if the interaction direction lies entirely in the
        local span (h_chi at numerical zero).
    """
    frame = sys.frame
    if frame.O_I is None:
        raise DegenerateDirectionError("H_I_eff is proportional to the identity")
    return frame


def _log_hamiltonian_traces(sys: BipartiteSystem, hh: HermitianOperator) -> tuple[float, float, float]:
    """Tr[(O_S x I) HH_I], Tr[(I x O_B) HH_I] and beta_chi in the frame of ``sys``.

    beta_chi is assembled in two cross-asserted forms; it is NaN when the
    interaction direction is degenerate.
    """
    frame = sys.frame
    t_os, t_ob = _embedded_traces(sys, frame.O_S, frame.O_B, hh)
    if frame.O_I is None:
        return t_os, t_ob, math.nan
    beta_chi = -(
        hs_inner(frame.O_I, hh)
        - frame.overlap_S * t_os / sys.d_B
        - frame.overlap_B * t_ob / sys.d_S
    ) / (frame.h_I * frame.h_chi**2)
    # Same derivative assembled through the orthogonalized direction itself.
    beta_alt = -hs_inner(frame.O_chi, hh) / (frame.h_I * frame.h_chi)
    if abs(beta_chi - beta_alt) > 1e-12 * max(1.0, abs(beta_chi)):
        raise NumericalError(
            f"correlation-temperature forms disagree: {beta_chi!r} vs {beta_alt!r}"
        )
    return t_os, t_ob, beta_chi


@dataclass(frozen=True)
class CorrelationReport:
    """Correlation operator, energy, entropy and temperature of a state."""

    chi: HermitianOperator
    U_chi: float
    S_chi: float
    beta_chi: float
    h_I: float
    h_chi: float
    O_I: HermitianOperator
    H_corr: HermitianOperator
    clipped: bool


def correlation_inverse_temperature(
    sys: BipartiteSystem, clip: float = DEFAULT_CLIP
) -> CorrelationReport:
    """Correlation inverse temperature 1/T_chi and full report.

    beta_chi = -(1/(h_I h_chi^2)) (Tr[O_I HH_I]
               - overlap_S Tr[(O_S x I) HH_I]/d_B
               - overlap_B Tr[(I x O_B) HH_I]/d_S)

    which is -Tr[O_chi HH_I]/(h_I h_chi), the constrained partial derivative
    dS_chi/dU_chi at fixed local energies in the frozen operator frame. For a
    globally Gibbs state this evaluates to exactly -beta; for a product state
    HH_I vanishes and beta_chi = 0 (T_chi -> infinity).
    """
    frame = chi_unit(sys)
    log_i = correlation_log_hamiltonian(sys, clip)
    hh = log_i.operator
    return CorrelationReport(
        chi=correlation_operator(sys),
        U_chi=binding_energy(sys),
        S_chi=mutual_information(sys),
        beta_chi=_log_hamiltonian_traces(sys, hh)[2],
        h_I=frame.h_I,
        h_chi=frame.h_chi,
        O_I=frame.O_I,
        H_corr=hh,
        clipped=log_i.clipped,
    )
