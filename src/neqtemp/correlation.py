"""Bipartite decomposition, the correlation temperature and the trace algebra.

A bipartite system carries local Hamiltonians H_S, H_B, an interaction H_I on
the joint space and a joint state rho_SB (S is always the left tensor
factor). Its correlations chi = rho_SB - rho_S x rho_B hold the binding
energy U_chi = Tr[chi H_I_eff] and the mutual information S_chi. The
correlation temperature is the constrained partial derivative dS_chi/dU_chi
at fixed local energies, in the operator frame frozen at the state:

    beta_chi = -Tr[O_chi HH_I] / (h_I h_chi),

where HH_I = -log rho_SB + log rho_S x I + I x log rho_B, O_I is the unit
direction of H_I_eff and O_chi the part of O_I orthogonal to the local
directions. The 1/h_I factor is the Jacobian dU_chi = h_I h_chi dy_chi of
the coordinate. A global Gibbs state has beta_chi = -beta - l_chi/(h_I h_chi),
l_chi = Tr[Tr_B(O_chi) log rho_S] + Tr[Tr_S(O_chi) log rho_B]: -beta only where
l_chi = 0, as on the two-qubit family.
beta_tilde_S is beta_S, the local inverse temperature of (rho_S, H_S_eff),
minus dS_chi/dU_S = -(Tr[(O_S x I) HH_I] + overlap_S h_I beta_chi)/(d_B h_S)
at fixed U_B and U_chi (d_B, the squared norm of O_S x I, is the printed
divisor 2 at d_B = 2); beta_tilde_B mirrors it with divisor d_S.

The four temperatures of the universal relation (:mod:`neqtemp.relation`), its
weights and residual, U_chi, S_chi and both local reports form one
:class:`BipartiteReport` per system and clip. Its one builder reads every
temperature by trace algebra from L = log rho_SB, log rho_S and log rho_B, and
applies the degenerate-interaction convention (beta_chi NaN, K_chi = 0) for
every caller. Each direction (O_S x I, I x O_B, O_I, O_chi, O1_SB) is a
combination of H_S_eff x I, I x H_B_eff, H_I_eff and I, and Tr[(X x I) M] =
Tr[X Tr_B M], so

    Tr[X HH_I] = -Tr[X L] + Tr[Tr_B(X) log rho_S] + Tr[Tr_S(X) log rho_B],

and beta_SB = Cov(H_SB, -L)/Var(H_SB) never forms H_SB: Tr[H_SB0^2] expands
into local norms and Tr[H_S0 Tr_B H_I0] + Tr[H_B0 Tr_S H_I0], Tr[H_SB0 L] into
Tr[H_S0 Tr_B L] + Tr[H_B0 Tr_S L] + Tr[H_I0 L].

Every trace form reads only the traceless parts H_S0, H_B0 and H_I0 (H less
its mean, taken once per system); Tr H_I/d enters only the identity parts of
H_S_eff and H_B_eff. So c I on H_S, H_B or H_I moves no temperature and not
U_chi. Raw H is read only there, by H_SB, by the frame's degeneracy scale and
by the traces in beta_SB's agreement bound.

A report's joint-space arrays are the inputs H_I and rho_SB, H_I0, H_I_eff,
rho_SB's eigenvectors and L, read through partial traces and vdots; the rest
is d_S x d_S or d_B x d_B (effective Hamiltonians, mean-field shifts lambda,
partial traces of H_I0, H_I_eff, L and HH_I, the marginals' logs) or scalar.
No report forms chi or the joint directions O_I, O_chi and O1_SB; a caller
who wants them builds them from public pieces: chi is ``rho_SB.matrix -
tensor_product(rho_S, rho_B)``, O1_SB is ``hamiltonian_unit(sys.H_SB())[0]``
and O_I the unit direction of ``effective.H_I_eff`` when ``frame.h_I > 0``.
The system's H_SB is built on each call of its method, HH_I on each call of
:func:`correlation_log_hamiltonian`; each local-plus-joint sum X x I + I x Y +
Z (H_I_eff, H_SB, HH_I) is assembled block-wise by ``linalg._local_sum``,
with no Kronecker product. Each cross-check compares independent assemblies
under the agreement rule ``linalg._agree``, once per record: beta_SB's
moments against -Tr[O1_SB L]/h_SB through C, O_S, O_B and H_I_eff; beta_chi's
Tr[O_I HH_I] from a vdot of H_I_eff with L and its partial traces (overlap
form) against H_I0, lambda and the partial traces of H_I0 (direct form,
through O_chi); U_chi as Tr[chi H_I_eff] (H_I_eff's vdot and product mean),
Tr[chi H_I0] (less the mean) and Tr[rho_SB H_SB0] - Tr[rho_S x rho_B H_SB0]
(rho_SB's raw partial traces, mean through lambda_B); and S_chi >= 0.

The clip-independent geometry (weights, overlaps and the coefficients C of
O1_SB) lives in one :class:`BipartiteFrame`, built with the system; its
builder alone defines the convention for a degenerate interaction (H_I_eff
proportional to the identity) and makes every geometric refusal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import _traceless, _traceless_weight, hamiltonian_unit
from .exceptions import DegenerateDirectionError, NumericalError
from .linalg import (
    RANK_TOL, DensityMatrix, HermitianOperator, MatrixLog, _agree, _cached, _dimension, _frozen, _instance,
    _local_sum, _marginals, _norm, _number, _operator, _state, _tr, matrix_log,
)
from .thermometry import (
    DEFAULT_CLIP, TemperatureReport, _beta_of_moments, _inverse_temperature, _positive, von_neumann_entropy,
)

__all__ = [
    "BipartiteSystem", "EffectiveHamiltonians", "BipartiteFrame", "BipartiteReport", "binding_energy",
    "mutual_information", "correlation_log_hamiltonian", "chi_unit", "correlation_inverse_temperature",
]


class BipartiteSystem:
    """Bipartite Hamiltonian data and joint state, built whole with its geometry.

    H_S, H_B, H_I and rho_SB are validated when the caller builds them; a raw
    Hamiltonian matrix is validated here, and rho_SB must be a
    :class:`DensityMatrix`. Operators derived from them are checked finite
    and wrapped: the partial traces rho_S and rho_B and the shifts lambda
    through ``HermitianOperator._of_computed`` (symmetrized), and the sums
    H_SB, H_S_eff, H_B_eff, H_I_eff and HH_I, exactly Hermitian already,
    through ``_of_exact``. The marginals' trace and positivity are checked as
    density matrices. Construction builds the marginals, traceless parts,
    effective Hamiltonians, shifts and frame, and makes every geometric refusal
    (DegenerateDirectionError if H_S_eff or H_B_eff is proportional to I); the
    per-clip :class:`BipartiteReport` is the one cache. Instances are immutable.
    """

    __slots__ = ("d_S", "d_B", "H_S", "H_B", "H_I", "rho_SB", "rho_S", "rho_B", "effective", "frame",
                 "_parts", "_reports")

    def __init__(self, d_S: int, d_B: int, H_S: HermitianOperator, H_B: HermitianOperator,
                 H_I: HermitianOperator, rho_SB: DensityMatrix):
        d_S, d_B = _dimension(d_S, 2), _dimension(d_B, 2)
        H_S, H_B = _operator(H_S, d_S, "H_S"), _operator(H_B, d_B, "H_B")
        H_I, rho_SB = _operator(H_I, d_S * d_B, "H_I"), _state(rho_SB, d_S * d_B, "rho_SB")
        self.d_S, self.d_B = d_S, d_B
        self.H_S, self.H_B, self.H_I = H_S, H_B, H_I
        self.rho_SB = rho_SB
        self.rho_S, self.rho_B = (DensityMatrix(HermitianOperator._of_computed(m))
                                  for m in _marginals(rho_SB.matrix, d_S, d_B))
        self.effective, self._parts = _effective_hamiltonians(self)
        self.frame = _build_frame(self)
        self._reports: dict[float, BipartiteReport] = {}

    @property
    def dim(self) -> int:
        return self.d_S * self.d_B

    def H_SB(self) -> HermitianOperator:
        """Total Hamiltonian H_S x I + I x H_B + H_I on the joint space, built on each call."""
        return HermitianOperator._of_exact(_local_sum(self.H_S, self.H_B, self.H_I))


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


def _effective_hamiltonians(sys: BipartiteSystem) -> tuple[EffectiveHamiltonians, tuple]:
    """The effective Hamiltonians, and the traceless parts every trace form reads:
    (H_S0, H_B0, H_I0, lambda_S, lambda_B, mean, Tr_B H_I0, Tr_S H_I0), H0 = H - (Tr H/d) I."""
    with np.errstate(over="ignore", invalid="ignore"):
        hs0, hb0, hi0 = (_frozen(_traceless(m.matrix)) for m in (sys.H_S, sys.H_B, sys.H_I))
    t = hi0.reshape(sys.d_S, sys.d_B, sys.d_S, sys.d_B)
    # Tr_B[(I x rho_B) H_I0], Tr_S[(rho_S x I) H_I0] and Tr[(rho_S x rho_B) H_I0], contracted
    # index by index; symmetrizing the shifts drops rounding residue before it enters H_I_eff.
    lamb_S = HermitianOperator._of_computed(np.einsum("ab,ibja->ij", sys.rho_B.matrix, t))
    lamb_B = HermitianOperator._of_computed(np.einsum("ik,kaic->ac", sys.rho_S.matrix, t))
    mean = _tr(sys.rho_S, lamb_S)
    hi_eff = _local_sum(-lamb_S.matrix, -lamb_B.matrix, hi0)  # H_I0 - lambda_S x I - I x lambda_B + mean I
    hi_eff.flat[:: sys.dim + 1] += mean
    mean_i = sys.H_I.trace / sys.dim  # H_I's identity part, which only the local Hamiltonians carry
    eff = EffectiveHamiltonians(*(HermitianOperator._of_exact(m) for m in (
        hs0 + lamb_S.matrix + (sys.H_S.trace / sys.d_S + mean_i) * np.eye(sys.d_S),
        hb0 + lamb_B.matrix + (sys.H_B.trace / sys.d_B + mean_i) * np.eye(sys.d_B), hi_eff)))
    return eff, (hs0, hb0, hi0, lamb_S.matrix, lamb_B.matrix, mean, *_marginals(hi0, sys.d_S, sys.d_B))


def binding_energy(sys: BipartiteSystem) -> float:
    """U_chi = Tr[chi H_I_eff], the interaction energy held in correlations.

    Equal to Tr[chi H_I] and to Tr[rho_SB H_SB] - Tr[rho_S x rho_B H_SB]; the
    three are assembled independently (module docstring) and held to ``linalg._agree``.
    """
    rho, rho_s, rho_b = _instance(sys, BipartiteSystem).rho_SB, sys.rho_S.matrix, sys.rho_B.matrix
    hs, hb, hi, _, lamb_b, mean = sys._parts[:6]
    hi_eff = sys.effective.H_I_eff.matrix.reshape(sys.d_S, sys.d_B, sys.d_S, sys.d_B)
    rho_hi = _tr(rho, hi)
    # Tr[(rho_S x rho_B) X] = Tr[rho_S Tr_B[(I x rho_B) X]], contracted as for lambda_S.
    u1 = _tr(rho, sys.effective.H_I_eff) - _tr(rho_s, np.einsum("ab,ibja->ij", rho_b, hi_eff))
    u2 = rho_hi - mean
    raw_s, raw_b = _marginals(rho.matrix, sys.d_S, sys.d_B)
    u3 = _tr(raw_s, hs) + _tr(raw_b, hb) + rho_hi - _tr(rho_s, hs) - _tr(rho_b, hb) - _tr(rho_b, lamb_b)
    # Each trace pairs a state (|rho|_F <= 1) with H_I_eff (twice, in u1), H_S0 or H_B0 (twice each, in u3),
    # H_I0 (once: u2 and u3 share it) or lambda_B; the mean is one summand.
    norms = 2.0 * (_norm(sys.effective.H_I_eff) + _norm(hs) + _norm(hb)) + _norm(hi) + _norm(lamb_b) + abs(mean)
    for u in (u2, u3):
        _agree(u1, u, sys.dim * norms, "binding-energy expressions")
    return u1


def mutual_information(sys: BipartiteSystem) -> float:
    """S_chi = S(rho_S) + S(rho_B) - S(rho_SB) >= 0: a negative S_chi within the agreement bound
    (``linalg._agree``) of the three entropies reads 0.0, and one past it raises NumericalError."""
    states = _instance(sys, BipartiteSystem).rho_S, sys.rho_B, sys.rho_SB
    s_s, s_b, s_sb = (von_neumann_entropy(r) for r in states)
    if (s_chi := s_s + s_b - s_sb) >= 0.0:
        return s_chi
    # Each entropy sums at most d terms -p log p, each eigenvalue p within d eps lambda_max of its value:
    # lambda_max sum (1 - log p) over the positive p bounds both the terms and their first-order change.
    magnitude = sys.dim * sum(float(r.eigenvalues[-1]) * float((1.0 - np.log(_positive(r))).sum()) for r in states)
    _agree(s_s + s_b, s_sb, magnitude, "subadditive entropies S(rho_S) + S(rho_B) and S(rho_SB)")
    return 0.0


def correlation_log_hamiltonian(sys: BipartiteSystem, clip: float = DEFAULT_CLIP) -> MatrixLog:
    """HH_I = -log rho_SB + log rho_S x I + I x log rho_B.

    Vanishes identically iff the state is the product of its marginals. The
    clipped flag propagates from any of the three (cached) logarithms. No
    temperature builds it: they read its traces (module docstring).
    """
    log_sb, log_s, log_b = (matrix_log(r, clip) for r in (_instance(sys, BipartiteSystem).rho_SB, sys.rho_S, sys.rho_B))
    m = _local_sum(log_s.operator, log_b.operator, -log_sb.operator.matrix)
    return MatrixLog(HermitianOperator._of_exact(m), log_sb.clipped or log_s.clipped or log_b.clipped)


@dataclass(frozen=True)
class BipartiteFrame:
    """Unit directions, weights, overlaps and expansion coefficients of a system.

    A plain value: O_S and O_B, the unit directions of H_S_eff and H_B_eff,
    and scalars. h_S, h_B, h_I and h_SB are the weights of H_S_eff, H_B_eff,
    H_I_eff and H_SB, whose unit directions are O_S, O_B, O_I and O1_SB;
    overlap_S = Tr[O_I (O_S x I)] and overlap_B = Tr[O_I (I x O_B)] (O_S x I
    has squared norm d_B); O_chi is O_I orthogonalized against the local
    directions, with norm h_chi = sqrt(1 - overlap_S^2/d_B - overlap_B^2/d_S).
    H_SB's traceless part is a_S (O_S x I) + a_B (I x O_B) + h_I h_chi O_chi,
    a_S = h_S + h_I overlap_S/d_B (a_B likewise), three orthogonal terms: h_SB
    and the C of O1_SB = C_S (O_S x I) + C_B (I x O_B) + C_chi O_chi are
    scalars. No report forms O_I, O_chi or O1_SB; ``_interaction`` holds the
    partial traces of H_I_eff that the report reads instead.

    h_chi^2 >= 1/(1 + d_S + d_B), 1.9e-3 at ``MAX_DIM``: Phi_S(X) = Tr_B[(I x
    rho_B) X] maps H_I_eff to 0, so O_I to a multiple of I, and 0 = Tr[O_S
    Phi_S(O_I)] = overlap_S/d_B + h_chi Tr[(O_S x rho_B) O_chi] bounds
    |overlap_S|/d_B by h_chi |rho_B|_F <= h_chi (B mirrors it). Construction
    refuses C_S^2 d_B + C_B^2 d_S < 1e-14, where the relation weights are undefined.

    Degenerate interaction (H_I_eff proportional to I within rounding on H_I's
    scale, e.g. H_I = 0, H_I proportional to I, or a local H_I): there is no
    O_I or O_chi, h_I = overlap_S = overlap_B = C_chi = 0 and h_chi = 1, so
    every relation weight reduces to its no-interaction form.
    """

    O_S: HermitianOperator
    h_S: float
    O_B: HermitianOperator
    h_B: float
    h_SB: float
    h_I: float
    h_chi: float
    overlap_S: float
    overlap_B: float
    C_S: float
    C_B: float
    C_chi: float
    #: Tr H_I_eff, Tr_B H_I_eff and Tr_S H_I_eff when h_I > 0, else None
    _interaction: tuple | None = field(repr=False, compare=False)


def _build_frame(sys: BipartiteSystem) -> BipartiteFrame:
    eff, d_s, d_b = sys.effective, sys.d_S, sys.d_B
    (o_s, h_s), (o_b, h_b) = hamiltonian_unit(eff.H_S_eff), hamiltonian_unit(eff.H_B_eff)
    hi_eff, (_, h_i) = eff.H_I_eff.matrix, _traceless_weight(eff.H_I_eff.matrix)
    # When H_I's mean-field parts cancel it (H_I proportional to I, or local), rounding leaves
    # a residue of order eps * max|H_I| that is no direction: judge h_I on H_I's scale too.
    scale = max(float(abs(hi_eff).max()), float(abs(sys.H_I.matrix).max()))
    if h_i <= RANK_TOL * scale:
        h_i, h_chi, ov_s, ov_b, interaction = 0.0, 1.0, 0.0, 0.0, None
    else:
        interaction = (float(hi_eff.trace().real), *_marginals(hi_eff, d_s, d_b))
        # O_S and O_B are traceless, so the identity part of H_I_eff drops out.
        ov_s, ov_b = _tr(o_s, interaction[1]) / h_i, _tr(o_b, interaction[2]) / h_i
        h_chi = math.sqrt(1.0 - ov_s**2 / d_b - ov_b**2 / d_s)  # h_chi^2 (1 + d_S + d_B) >= 1 (BipartiteFrame)
    a_s, a_b, a_chi = h_s + h_i * ov_s / d_b, h_b + h_i * ov_b / d_s, h_i * h_chi
    h_sb = math.hypot(math.sqrt(d_b) * a_s, math.sqrt(d_s) * a_b, a_chi)
    c_s, c_b = a_s / h_sb, a_b / h_sb
    if c_s**2 * d_b + c_b**2 * d_s < 1e-14:
        raise NumericalError("both local expansion coefficients vanish; relation weights undefined")
    return BipartiteFrame(
        O_S=o_s, h_S=h_s, O_B=o_b, h_B=h_b, h_SB=h_sb, h_I=h_i, h_chi=h_chi, overlap_S=ov_s, overlap_B=ov_b,
        C_S=c_s, C_B=c_b, C_chi=a_chi / h_sb, _interaction=interaction)


def chi_unit(sys: BipartiteSystem) -> BipartiteFrame:
    """The system's frame, built with it, for callers that need the correlation direction.

    :raises DegenerateDirectionError: when H_I_eff is proportional to the identity (H_I = 0 too).
    """
    frame = _instance(sys, BipartiteSystem).frame
    if frame.h_I == 0.0:
        raise DegenerateDirectionError("H_I_eff is proportional to the identity")
    return frame


@dataclass(frozen=True)
class BipartiteReport:
    """Every temperature of a system at one clip, and the weights that relate them.

    A plain value, cached on the system per clip, that keeps no reference to
    it. ``residual`` = K_SB beta_SB - b_S beta_tilde_S - b_B beta_tilde_B +
    K_chi beta_chi vanishes where the universal relation is exact. Without an
    interaction direction (``interaction_degenerate``) h_I = C_chi = K_chi =
    0, h_chi = 1, beta_chi is NaN and the residual has no beta_chi term.
    """

    beta_SB: float
    beta_tilde_S: float
    beta_tilde_B: float
    beta_chi: float
    residual: float
    C_S: float
    C_B: float
    C_chi: float
    K_SB: float
    b_S: float
    b_B: float
    K_chi: float
    h_SB: float
    h_I: float
    h_chi: float
    U_chi: float
    S_chi: float
    local_S: TemperatureReport  #: of (rho_S, H_S_eff)
    local_B: TemperatureReport  #: of (rho_B, H_B_eff)
    clipped: bool  #: any of the three logarithms was clipped

    @property
    def interaction_degenerate(self) -> bool:
        return self.h_I == 0.0


def _report(sys: BipartiteSystem, clip: float) -> BipartiteReport:
    """The report of ``sys`` at ``clip``, built once and cached on ``sys``; the clip is checked before the cache."""
    clip = _number(clip, "clip must be finite and positive", 0.0, above=True)
    return _cached(_instance(sys, BipartiteSystem)._reports, clip, lambda: _build_report(sys, clip))


def _build_report(sys: BipartiteSystem, clip: float) -> BipartiteReport:
    f, d_s, d_b, d = sys.frame, sys.d_S, sys.d_B, sys.dim
    # Relation weights; h_I = C_chi = 0 without an interaction, so K_chi = 0.
    c_s, c_b, c_chi = f.C_S, f.C_B, f.C_chi
    denom = c_s**2 * d_b + c_b**2 * d_s  # at least 1e-14 (_build_frame)
    k_sb = f.h_SB * (c_s**2 + c_b**2 + c_chi**2 * (c_s**2 + c_b**2) / denom)
    k_chi = f.h_I * (c_chi * f.h_chi * (c_s**2 + c_b**2) / denom + (c_s / d_b) * f.overlap_S
                     + (c_b / d_s) * f.overlap_B)

    hs, hb, hi, lamb_s, lamb_b, mean, hi_s, hi_b = sys._parts
    log_sb, log_s, log_b = (matrix_log(r, clip) for r in (sys.rho_SB, sys.rho_S, sys.rho_B))
    L, ls, lb = log_sb.operator.matrix, log_s.operator.matrix, log_b.operator.matrix
    part_s, part_b = _marginals(L, d_s, d_b)
    tr_l, hi_l, hi_eff_l = float(L.trace().real), _tr(hi, L), _tr(sys.effective.H_I_eff, L)
    hh_s = -part_s + d_b * ls + lb.trace().real * np.eye(d_s)  # Tr_B HH_I
    hh_b = -part_b + d_s * lb + ls.trace().real * np.eye(d_b)  # Tr_S HH_I

    # beta_SB: the moments of (rho_SB, H_SB0), checked against -Tr[O1_SB L]/h_SB.
    with np.errstate(over="ignore", invalid="ignore"):
        hs_sq, hb_sq, hi_sq = _tr(hs, hs), _tr(hb, hb), _tr(hi, hi)
        tr_hh = d_b * hs_sq + d_s * hb_sq + hi_sq + 2.0 * (_tr(hs, hi_s) + _tr(hb, hi_b))
        tr_hl = _tr(hs, part_s) + _tr(hb, part_b) + hi_l
    # beta_SB's forms read H_SB0's pieces: H_S0, H_B0 and H_I0 (moments), O_S, O_B and H_I_eff (direct form),
    # of norms summing to n_sb. Each is the traceless part of a matrix X and rounds on X's full norm
    # full(|X0|_F, X) = hypot(|X0|_F, Tr X/sqrt(dim)); those sum to w_sb.
    eff, norm_l, full = sys.effective, _norm(L), lambda x0, x: math.hypot(x0, x.trace / x.dim**0.5)
    n_sb = (d_b * hs_sq)**0.5 + (d_s * hb_sq)**0.5 + hi_sq**0.5
    w_sb = (d_b**0.5 * (full(hs_sq**0.5, sys.H_S) + full(f.h_S, eff.H_S_eff))
            + d_s**0.5 * (full(hb_sq**0.5, sys.H_B) + full(f.h_B, eff.H_B_eff)) + full(hi_sq**0.5, sys.H_I))
    s_l, b_l = _tr(f.O_S, part_s), _tr(f.O_B, part_b)  # Tr[(O_S x I) L], Tr[(I x O_B) L]
    o1_l = c_s * s_l + c_b * b_l
    t_os, t_ob = _tr(f.O_S, hh_s), _tr(f.O_B, hh_b)  # Tr[(O_S x I) HH_I], Tr[(I x O_B) HH_I]

    # With an interaction direction: O_I's term of Tr[O1_SB L], and beta_chi in two cross-asserted forms.
    beta_chi, chi_part, chi_term = math.nan, 0.0, 0.0
    if f.h_I != 0.0:
        oi_l = (hi_eff_l - f._interaction[0] / d * tr_l) / f.h_I  # Tr[O_I L]
        o1_l += c_chi * (oi_l - f.overlap_S * s_l / d_b - f.overlap_B * b_l / d_s) / f.h_chi
        hh_id = float(hh_s.trace().real)  # Tr HH_I
        local = f.overlap_S * t_os / d_b + f.overlap_B * t_ob / d_s
        # Overlap form: Tr[O_I HH_I] from H_I_eff, less its local components.
        tr_e, e_s, e_b = f._interaction
        by_eff = -hi_eff_l + _tr(e_s, ls) + _tr(e_b, lb)
        beta_chi = -((by_eff - tr_e / d * hh_id) / f.h_I - local) / (f.h_I * f.h_chi**2)
        # Direct form -Tr[O_chi HH_I]/(h_I h_chi), H_I_eff = H_I0 - lambda_S x I - I x lambda_B + mean.
        by_hi = (-hi_l + _tr(hi_s, ls) + _tr(hi_b, lb)
                 - _tr(lamb_s, hh_s) - _tr(lamb_b, hh_b) + mean * hh_id)
        tr_hi = d * mean - d_b * lamb_s.trace().real - d_s * lamb_b.trace().real
        t_ochi = ((by_hi - tr_hi / d * hh_id) / f.h_I - local) / f.h_chi
        beta_alt = -t_ochi / (f.h_I * f.h_chi)
        # Each form adds traces of an H_I_eff piece (H_I0, lambda_S x I, I x lambda_B, mean I; norms summing to
        # m) against an HH_I piece (L, log rho_S x I, I x log rho_B; norms summing to lam), of |summand| sum at
        # most 2 m lam; local is shared, and beta_chi divides the rest by (h_I h_chi)^2.
        m = hi_sq**0.5 + d_b**0.5 * _norm(lamb_s) + d_s**0.5 * _norm(lamb_b) + d**0.5 * abs(mean)
        lam = norm_l + d_b**0.5 * _norm(ls) + d_s**0.5 * _norm(lb)
        bound = _agree(beta_chi, beta_alt, 4.0 * d * m / (f.h_I * f.h_chi) * lam / (f.h_I * f.h_chi),
                       "correlation-temperature forms")[1]
        # The forms' shared cancellation grows as 1/h_I; 1/h_SB, BETA_ZERO_TOL's unit-free scale, keeps beta_chi = 0.
        if not bound < max(abs(beta_chi), 1.0 / f.h_SB):
            raise NumericalError(f"correlation temperature unresolved: beta_chi {beta_chi!r} within bound {bound:.3e}")
        chi_part, chi_term = f.h_I * beta_chi, k_chi * beta_chi
        n_ie = 2.0 * math.hypot(f.h_I, tr_e / d**0.5)  # O_I's term of Tr[O1_SB L] reads H_I_eff twice
        n_sb, w_sb = n_sb + n_ie, w_sb + n_ie
    # A trace of a piece against L is at most |piece|_F |L|_F: the moments sum to at most n_sb |L|_F and n_sb^2,
    # the direct form to (2 + 4 |H_I_eff|_F/h_SB) |L|_F, the traceless parts round on w_sb; in units of beta
    # the summands total at most 6 (w_sb/h_SB) (n_sb/h_SB) |L|_F/h_SB.
    beta_sb = _beta_of_moments(sys.rho_SB, f.h_SB, (tr_hh, tr_hl), -o1_l / f.h_SB,
                               6.0 * d * (w_sb / f.h_SB) * (n_sb / f.h_SB) * norm_l / f.h_SB)[0]

    # beta_tilde = beta_local - dS_chi/dU_local.
    ds_du_s = -(t_os + f.overlap_S * chi_part) / (d_b * f.h_S)
    ds_du_b = -(t_ob + f.overlap_B * chi_part) / (d_s * f.h_B)
    local_s = _inverse_temperature(sys.rho_S, sys.effective.H_S_eff, f.O_S, f.h_S, clip)
    local_b = _inverse_temperature(sys.rho_B, sys.effective.H_B_eff, f.O_B, f.h_B, clip)
    bt_s, bt_b = local_s.beta - ds_du_s, local_b.beta - ds_du_b
    b_s, b_b = c_s * f.h_S, c_b * f.h_B
    return BipartiteReport(
        beta_SB=beta_sb, beta_tilde_S=bt_s, beta_tilde_B=bt_b, beta_chi=beta_chi,
        residual=k_sb * beta_sb - b_s * bt_s - b_b * bt_b + chi_term, C_S=c_s, C_B=c_b, C_chi=c_chi,
        K_SB=k_sb, b_S=b_s, b_B=b_b, K_chi=k_chi, h_SB=f.h_SB, h_I=f.h_I, h_chi=f.h_chi,
        U_chi=binding_energy(sys), S_chi=mutual_information(sys), local_S=local_s, local_B=local_b,
        clipped=log_sb.clipped or log_s.clipped or log_b.clipped)


def correlation_inverse_temperature(sys: BipartiteSystem, clip: float = DEFAULT_CLIP) -> BipartiteReport:
    """The system's :class:`BipartiteReport` at ``clip``, if it has a correlation direction.

    beta_chi = -(1/(h_I h_chi^2)) (Tr[O_I HH_I]
               - overlap_S Tr[(O_S x I) HH_I]/d_B
               - overlap_B Tr[(I x O_B) HH_I]/d_S)

    which is -Tr[O_chi HH_I]/(h_I h_chi). For a globally Gibbs state this is
    -beta - l_chi/(h_I h_chi) (module docstring), exactly -beta on the two-qubit
    family; for a product state HH_I vanishes and beta_chi = 0.

    :raises DegenerateDirectionError: when H_I_eff is proportional to the identity (see chi_unit).
    :raises NumericalError: when the two forms' rounding bound reaches max(|beta_chi|, 1/h_SB): both cancel O(1)
        traces and divide by h_I h_chi^2, so at weak enough coupling no digit of beta_chi is left.
    """
    chi_unit(sys)
    return _report(sys, clip)
