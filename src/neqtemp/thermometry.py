"""Single-system temperature stack.

The central object is the nonequilibrium inverse temperature

    beta = Cov(H, HH) / Var(H),      HH = -log rho,

with covariance and variance taken with respect to the maximally mixed state
I/d. Equivalently beta = -(1/h) Tr[O1 log rho] where O1 is the normalized
traceless Hamiltonian direction and h its weight; both forms are computed
independently here, from (O1, h) only, and cross-asserted. So c I on H moves
U and F by c and changes no temperature. On Gibbs states beta recovers the
thermodynamic inverse temperature exactly; beta = 0 for maximally mixed
states and T = 0 for pure states.

Over an operator basis, O1 is ``basis[1]``, checked once to be H's unit
direction: the generalized-Gibbs decomposition, the Helmholtz free energy
(cross-checked in coordinates) and the finite-difference dS/dU all read it.
Passivity tests and the eigenvalue/eigenprojector heat-work split follow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import OperatorBasis, _basis_direction, expand_state, hamiltonian_unit
from .exceptions import (
    NumericalError,
    RankDeficiencyError,
    StepTooLargeError,
    UndefinedQuantityError,
    ValidationError,
)
from .linalg import (
    DensityMatrix,
    HermitianOperator,
    _frozen,
    _instance,
    _matmul,
    _number,
    _operator,
    _real_array,
    _state,
    _tr,
    eig_hermitian,
    matrix_exp,
    matrix_log,
)

__all__ = [
    "TemperatureReport",
    "GeneralizedGibbsForm",
    "VariationSplit",
    "HeatWork",
    "von_neumann_entropy",
    "internal_energy",
    "inverse_temperature",
    "generalized_gibbs_decomposition",
    "reconstruct_generalized_gibbs",
    "helmholtz_free_energy",
    "is_passive",
    "variation_split",
    "heat_and_work",
    "finite_difference_beta",
]

#: |beta| h below this is treated as beta = 0 for the derived temperature
#: (maximally mixed states produce a covariance at roundoff level, not 0.0).
#: beta h is dimensionless, so the test does not depend on the energy unit.
BETA_ZERO_TOL = 1e-12

#: Default eigenvalue clip for the matrix logarithm. The default only guards
#: exact zeros (clipped or pure spectra); genuinely tiny thermal populations
#: (e.g. e^{-30}) must not be touched or Gibbs consistency is lost.
DEFAULT_CLIP = 1e-300


@dataclass(frozen=True)
class TemperatureReport:
    """Full output of the temperature functional at one state.

    ``beta`` and ``temperature`` are extended reals (``math.inf`` is a legal
    value); they satisfy beta * temperature = 1 whenever both are finite and
    nonzero. ``free_energy`` is NaN when undefined (beta = 0 or T = 0 limits).
    """

    beta: float
    temperature: float
    h: float
    covariance: float
    variance: float
    entropy: float
    internal_energy: float
    free_energy: float
    rank_deficient: bool
    clipped: bool


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S = -Tr[rho log rho] with 0 log 0 := 0; lies in [0, ln d]."""
    w = _state(rho).eigenvalues
    pos = w[np.searchsorted(w, 0.0, side="right"):]  # the positive suffix of the ascending spectrum
    return max(0.0, float(-(pos * np.log(pos)).sum()))


def internal_energy(rho: DensityMatrix, H: HermitianOperator) -> float:
    """U = Tr[rho H]."""
    rho, H = _state(rho), _operator(H, rho.dim, "Hamiltonian")
    return _tr(rho, H)


def inverse_temperature(
    rho: DensityMatrix,
    H: HermitianOperator,
    clip: float = DEFAULT_CLIP,
) -> TemperatureReport:
    """Nonequilibrium inverse temperature of (rho, H) with full diagnostics.

    Extended-real semantics:

    * pure states (one eigenvalue told apart from zero, see
      ``DensityMatrix.resolved_rank``) report temperature exactly 0.0, with
      beta signed infinite according to the sign of the clip-regularized
      covariance;
    * |beta| h <= BETA_ZERO_TOL reports temperature = +inf (maximally mixed
      regime; h is the weight of H, so the test is unit-free);
    * otherwise temperature = 1/beta.

    :raises DegenerateDirectionError: if H is proportional to the identity.
    :raises NumericalError: if h, the energy moments or beta overflow.
    """
    rho, H = _state(rho), _operator(H, rho.dim, "Hamiltonian")
    return _inverse_temperature(rho, H, *hamiltonian_unit(H), clip)


def _inverse_temperature(rho: DensityMatrix, H: HermitianOperator, O1: HermitianOperator, h: float, clip: float):
    """:func:`inverse_temperature` with H's unit (O1, h) given: moments of h O1, raw H only in U."""
    u = _tr(rho, H)
    logr = matrix_log(rho, clip)
    L = logr.operator.matrix
    E = h * O1.matrix
    with np.errstate(over="ignore", invalid="ignore"):
        moments = _tr(E, E), _tr(E, L)
    # Direct coordinate form, assembled through O1 rather than the moments.
    beta_dir = -_tr(O1, L) / h
    beta, temperature, cov, var = _beta_of_moments(
        rho, h, moments, beta_dir,
        lambda: rho.dim * float(abs(E).max()) * float(abs(L).max()) / (h * h),
    )
    s = von_neumann_entropy(rho)
    if math.isfinite(temperature) and temperature != 0.0:
        f = u - temperature * s
    else:
        f = math.nan
    return TemperatureReport(
        beta=beta,
        temperature=temperature,
        h=h,
        covariance=cov,
        variance=var,
        entropy=s,
        internal_energy=u,
        free_energy=f,
        rank_deficient=rho.rank < rho.dim,
        clipped=logr.clipped,
    )


def _beta_of_moments(rho: DensityMatrix, h: float, moments, beta_dir: float, cond) -> tuple:
    """beta, T, Cov and Var of ``rho`` from (Tr[H0^2], Tr[H0 log rho]), H0 traceless.

    Both callers pass the moments of a traceless H0 (h O1, or H_SB less its
    mean), so the moments w.r.t. I/d carry no mean terms: Cov = -Tr[H0 log
    rho]/d and Var = Tr[H0^2]/d, and an offset on H never enters them.
    ``beta_dir`` is the direct form -Tr[O1 log rho]/h, assembled by the
    caller independently of the moments; ``cond()`` is the conditioning
    scale of their cross-check, evaluated only when the two differ by more
    than its unit-scale bound. Branches as in :func:`inverse_temperature`.
    """
    tr_hh, tr_hl = moments
    if not (math.isfinite(tr_hh) and math.isfinite(tr_hl)):
        raise NumericalError(f"energy moments overflow: Tr[H^2] = {tr_hh!r}, Tr[H log rho] = {tr_hl!r}")
    cov, var = -tr_hl / rho.dim, tr_hh / rho.dim  # covariance form, moments w.r.t. I/d
    if var <= 0.0:  # unreachable past a nonzero weight h, kept as a hard guard
        raise NumericalError("vanishing energy variance")
    beta_cov = cov / var
    if not math.isfinite(beta_cov):
        raise NumericalError(f"inverse temperature overflows: {cov!r} / {var!r}")
    # Identical algebra, different groupings: allow roundoff amplified by the
    # conditioning of the trace products (huge clipped logs, large d).
    diff = abs(beta_cov - beta_dir)
    if diff > 1e-12 * max(1.0, abs(beta_cov)) and diff > 1e-12 * cond():
        raise NumericalError(
            f"temperature formulas disagree: {beta_cov!r} vs {beta_dir!r}"
        )
    if rho.resolved_rank == 1:
        return (math.inf if beta_cov >= 0.0 else -math.inf), 0.0, cov, var
    if abs(beta_cov) * h <= BETA_ZERO_TOL:
        return beta_cov, math.inf, cov, var
    return beta_cov, 1.0 / beta_cov, cov, var


@dataclass(frozen=True)
class GeneralizedGibbsForm:
    """Coefficients of rho = exp(-beta H + sum_i c_i O_i - log_norm I)."""

    beta: float
    c: np.ndarray
    log_norm: float

    def __post_init__(self):
        for name in ("beta", "log_norm"):
            object.__setattr__(self, name, _number(getattr(self, name), f"{name} must be a finite number"))
        object.__setattr__(self, "c", _frozen(_real_array(self.c, "coefficients")))


def generalized_gibbs_decomposition(
    rho: DensityMatrix, H: HermitianOperator, basis: OperatorBasis
) -> GeneralizedGibbsForm:
    """Write a full-rank state in generalized-Gibbs form over ``basis``.

    ``basis[1]`` must be the Hamiltonian direction of H. The coefficients are
    beta, taken along ``basis[1]``, and c_i = Tr[O_i log rho] for i >= 2.
    The exponent -beta H + sum_i c_i O_i is log rho - (Tr log rho + beta Tr
    H)/d I, so unit trace fixes log_norm = log sum_i lambda_i - (Tr log rho +
    beta Tr H)/d, not the closed form printed with the original derivation,
    which fails the trace condition.
    """
    H, report, c = _log_coordinates(rho, H, basis, "generalized-Gibbs decomposition")
    w = rho.eigenvalues
    log_norm = math.log(float(np.sum(w))) - (float(np.sum(np.log(w))) + report.beta * H.trace) / rho.dim
    return GeneralizedGibbsForm(beta=report.beta, c=c[2:], log_norm=log_norm)


def _log_coordinates(rho: DensityMatrix, H, basis: OperatorBasis, what: str):
    """H validated, the report of full-rank (rho, H) along the checked ``basis[1]``, every Tr[O_i log rho]."""
    rho, H = _state(rho), _operator(H, rho.dim, "Hamiltonian")
    if rho.rank < rho.dim:
        raise RankDeficiencyError(f"{what} needs a full-rank state")
    report = _inverse_temperature(rho, H, *_basis_direction(H, basis), DEFAULT_CLIP)
    return H, report, basis.coordinates(matrix_log(rho, DEFAULT_CLIP).operator)


def reconstruct_generalized_gibbs(
    form: GeneralizedGibbsForm, H: HermitianOperator, basis: OperatorBasis
) -> np.ndarray:
    """Evaluate exp(-beta H + sum c_i O_i - log_norm I); ``basis[1]`` must be H's direction."""
    H = _operator(H)
    _basis_direction(H, basis)
    if _instance(form, GeneralizedGibbsForm).c.size != len(basis) - 2:
        raise ValidationError(f"form coefficient count mismatch: {form.c.size}, expected {len(basis) - 2}")
    exponent = (
        -form.beta * H.matrix
        - form.log_norm * np.eye(H.dim)
        + np.tensordot(form.c, basis.mats[2:], axes=1)
    )
    return matrix_exp(HermitianOperator._of_computed(exponent)).matrix


def helmholtz_free_energy(rho: DensityMatrix, H: HermitianOperator, basis: OperatorBasis) -> float:
    """F = U - T S for a full-rank state with nonzero beta; ``basis[1]`` must be H's direction.

    Cross-checked internally against the coordinate-space expression
    T * (sum_{i>=2} Tr[O_i log rho] x_i + Tr[log rho]/d) + Tr[H]/d, which is
    the basis-invariant tail sum plus its identity-direction closure.
    """
    H, report, c = _log_coordinates(rho, H, basis, "free energy evaluation")
    if not math.isfinite(report.beta) or abs(report.beta) * report.h <= BETA_ZERO_TOL:
        raise UndefinedQuantityError("free energy is undefined at beta = 0")
    f, t = report.free_energy, report.temperature
    x = expand_state(rho, basis).x
    f_alt = t * (float(c[2:] @ x[2:]) + float(c[0]) / math.sqrt(rho.dim)) + H.trace / rho.dim
    if abs(f - f_alt) > 1e-10 * max(1.0, abs(f)):
        raise NumericalError(f"free-energy cross-check failed: {f!r} vs {f_alt!r}")
    return f


def is_passive(rho: DensityMatrix, H: HermitianOperator) -> bool:
    """True iff populations are non-increasing along ascending energy.

    The state must commute with H (block-diagonal across H's degenerate
    energy clusters, as ``SpectralDecomposition.clusters`` labels them);
    within a degenerate cluster any population ordering counts as passive.
    Clusters are contiguous runs of the ascending spectrum, compared in one
    pass; only a degenerate cluster takes an eigensolve, of its block (a 1 x 1
    cluster's population is Re (V^dag rho V)_kk, as the eigensolver gives it).
    """
    rho, H = _state(rho), _operator(H, rho.dim, "Hamiltonian")
    spec = eig_hermitian(H)
    labels, v = spec.clusters(), spec.eigenvectors
    r = _matmul(_matmul(v.conj().T, rho.matrix), v)
    # Commutation: rho must not mix distinct energy clusters.
    if float(abs(r[labels[:, None] != labels]).max(initial=0.0)) > 1e-10:
        return False
    pops = r.diagonal().real
    if labels[-1] + 1 == labels.size:  # no degenerate cluster: each population is its own cluster
        return not (pops[1:] > pops[:-1] + 1e-12).any()
    starts = np.searchsorted(labels, np.arange(labels[-1] + 1))  # the labels ascend
    bounds, pops = [*starts.tolist(), len(labels)], pops.copy()
    for s, e in zip(bounds, bounds[1:]):
        if e - s > 1:
            block = r[s:e, s:e]
            pops[s:e] = np.linalg.eigvalsh((block + block.conj().T) / 2.0)
    # Passive unless a cluster's highest population exceeds the previous cluster's lowest.
    return not (np.maximum.reduceat(pops, starts)[1:] > np.minimum.reduceat(pops, starts)[:-1] + 1e-12).any()


@dataclass(frozen=True)
class VariationSplit:
    """Eigenvalue part and eigenprojector part of a trace-free variation."""

    d_ev: HermitianOperator
    d_ep: HermitianOperator


def variation_split(rho: DensityMatrix, drho: HermitianOperator) -> VariationSplit:
    """Split drho into its eigenvalue and eigenprojector parts w.r.t. rho.

    d_ev = sum_k P_k drho P_k over rho's degenerate eigenprojector clusters
    P_k (as ``SpectralDecomposition.clusters`` labels them), taken as one
    masked product V[(V^dag drho V) o (same cluster)]V^dag in rho's
    eigenbasis; d_ep is the remainder. d_ev carries the entropy change, d_ep
    the purely rotational (isentropic) part.
    """
    rho, drho = _state(rho), _operator(drho, rho.dim, "variation")
    tr = float(np.trace(drho.matrix).real)
    if abs(tr) > 1e-8:
        raise ValidationError(f"variation must be trace-free, got Tr drho = {tr!r}")
    labels, v = rho.spectrum.clusters(), rho.spectrum.eigenvectors
    blocks = np.where(labels[:, None] == labels, _matmul(_matmul(v.conj().T, drho.matrix), v), 0.0)
    d_ev = HermitianOperator._of_computed(_matmul(_matmul(v, blocks), v.conj().T))
    # A difference of exactly Hermitian operators is exactly Hermitian.
    return VariationSplit(d_ev=d_ev, d_ep=HermitianOperator._of_exact(drho.matrix - d_ev.matrix))


@dataclass(frozen=True)
class HeatWork:
    """Conventional and entropic heat/work of a joint (drho, dH) variation.

    The two splits move the same total energy: conventional_heat +
    conventional_work = entropic_heat + entropic_work.
    """

    conventional_heat: float
    conventional_work: float
    entropic_heat: float
    entropic_work: float


def heat_and_work(
    rho: DensityMatrix,
    drho: HermitianOperator,
    H: HermitianOperator,
    dH: HermitianOperator,
) -> HeatWork:
    """Conventional (dQ = Tr[drho H], dW = Tr[rho dH]) and entropic split.

    The entropic heat is Tr[d_ev H]: only the eigenvalue part of the state
    variation changes entropy, so only it can carry heat; the eigenprojector
    part is counted as work together with the Hamiltonian variation.
    """
    rho, drho = _state(rho), _operator(drho, rho.dim, "variation")
    H, dH = _operator(H, rho.dim, "Hamiltonian"), _operator(dH, rho.dim, "Hamiltonian variation")
    split = variation_split(rho, drho)
    dq, dw = _tr(drho, H), _tr(rho, dH)
    dq_e, dw_e = _tr(split.d_ev, H), _tr(split.d_ep, H) + dw
    return HeatWork(
        conventional_heat=dq,
        conventional_work=dw,
        entropic_heat=dq_e,
        entropic_work=dw_e,
    )


def finite_difference_beta(
    rho: DensityMatrix,
    H: HermitianOperator,
    basis: OperatorBasis,
    step: float,
) -> float:
    """Central-difference dS/dU along the Hamiltonian direction basis[1], checked to be H's.

    Perturbing only along O1 holds every other coordinate x_i fixed, so this
    is a direct numerical partial derivative of entropy w.r.t. internal
    energy, the definition the closed-form beta must reproduce.
    """
    step = _number(step, "step must be a finite positive number", 0.0, above=True)
    rho, H = _state(rho), _operator(H, rho.dim, "Hamiltonian")
    o1 = _basis_direction(H, basis)[0].matrix
    states = []
    for sgn in (+1.0, -1.0):
        try:
            states.append(DensityMatrix(rho.matrix + sgn * step * o1))
        except ValidationError as exc:
            raise StepTooLargeError(
                f"perturbed state left the positive cone at step {step!r}: {exc}"
            ) from exc
    s_plus, s_minus = (von_neumann_entropy(s) for s in states)
    u_plus, u_minus = (internal_energy(s, H) for s in states)
    du = u_plus - u_minus
    if du == 0.0:
        raise NumericalError("vanishing energy difference in finite-difference probe")
    return (s_plus - s_minus) / du
