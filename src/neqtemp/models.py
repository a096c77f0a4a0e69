"""Closed-form reference model and random-instance generators.

The reference model is two qubits with H_S = (omega_S/2) sigma_z,
H_B = (omega_B/2) sigma_z and the exchange interaction

    H_I = lambda (sigma_+ x sigma_- + sigma_- x sigma_+),

in a global Gibbs state at inverse temperature beta. The raising/lowering
convention is sigma_pm = (sigma_x pm i sigma_y)/2 throughout the package;
under it the two-magnon gap is eta = sqrt(Delta_minus^2 + lambda^2) and the
Hamiltonian weights are h_S = omega_S/sqrt(2), h_B = omega_B/sqrt(2),
h_I = sqrt(2) lambda, h_SB = sqrt(omega_S^2 + omega_B^2 + 2 lambda^2),
h_chi = 1. Every closed-form constant here was re-derived under this single
convention and frozen against the direct-diagonalization oracle in the test
suite.

Samplers take an explicit ``numpy.random.Generator``, and no other type;
PCG64 streams are stable across platforms, so fixed seeds give bit-identical
instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlation import BipartiteSystem
from .exceptions import NumericalError, ValidationError
from .linalg import (
    DensityMatrix,
    HermitianOperator,
    SpectralDecomposition,
    _dimension,
    _instance,
    _local_sum,
    _number,
    eig_hermitian,
    tensor_product,
)

__all__ = [
    "PAULI_X", "PAULI_Y", "PAULI_Z", "SIGMA_PLUS", "SIGMA_MINUS",
    "TwoQubitXYParams",
    "TwoQubitClosedForm",
    "build_two_qubit_xy",
    "closed_form",
    "gue_sample",
    "sample_gibbs",
    "sample_passive_pair",
    "sample_inverted_pair",
    "sample_pure",
    "sample_full_rank",
    "sample_bipartite",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
#: sigma_pm = (sigma_x pm i sigma_y)/2 — the package-wide convention.
SIGMA_PLUS = (PAULI_X + 1j * PAULI_Y) / 2.0
SIGMA_MINUS = (PAULI_X - 1j * PAULI_Y) / 2.0


@dataclass(frozen=True)
class TwoQubitXYParams:
    """Parameters of the two-qubit exchange model (omega_S >= omega_B >= 0)."""

    omega_S: float
    omega_B: float
    lam: float
    beta: float

    def __post_init__(self):
        for name in ("omega_S", "omega_B", "lam", "beta"):
            object.__setattr__(self, name, _number(getattr(self, name), f"{name} must be a finite number"))
        if not (self.omega_S >= self.omega_B >= 0.0):
            raise ValidationError(
                f"need omega_S >= omega_B >= 0, got ({self.omega_S}, {self.omega_B})"
            )
        if not (self.lam > 0.0):
            raise ValidationError(f"coupling must be positive, got {self.lam!r}")


@dataclass(frozen=True)
class TwoQubitClosedForm:
    """Analytic spectrum, marginal populations and local temperatures.

    ``E`` is (Delta_plus, eta, -eta, -Delta_plus); mu1 are the populations of
    the S marginal (mu1_plus on the lower level), mu2 of the B marginal.
    ``beta_B`` is NaN with ``omega_B_zero`` set when omega_B = 0.
    """

    Z: float
    E: tuple[float, float, float, float]
    zeta_plus: float
    zeta_minus: float
    mu1_plus: float
    mu1_minus: float
    mu2_plus: float
    mu2_minus: float
    beta_S: float
    beta_B: float
    h_S: float
    h_B: float
    h_I: float
    h_SB: float
    h_chi: float
    omega_B_zero: bool


def build_two_qubit_xy(p: TwoQubitXYParams) -> BipartiteSystem:
    """Assemble the model's BipartiteSystem with the global Gibbs state."""
    h_s = HermitianOperator((_instance(p, TwoQubitXYParams).omega_S / 2.0) * PAULI_Z)
    h_b = HermitianOperator((p.omega_B / 2.0) * PAULI_Z)
    h_i = HermitianOperator(
        p.lam * (tensor_product(SIGMA_PLUS, SIGMA_MINUS) + tensor_product(SIGMA_MINUS, SIGMA_PLUS))
    )
    h_sb = HermitianOperator._of_computed(_local_sum(h_s, h_b, h_i))
    return BipartiteSystem(2, 2, h_s, h_b, h_i, _gibbs_state(eig_hermitian(h_sb), p.beta))


def _gibbs_state(spec: SpectralDecomposition, beta: float) -> DensityMatrix:
    """The Gibbs state exp(-beta H)/Z of H = spec, built from its spectrum."""
    w = -beta * spec.eigenvalues
    w -= w.max()
    probs = np.exp(w) / float(np.sum(np.exp(w)))
    return DensityMatrix.from_spectrum(probs, spec.eigenvectors)


def closed_form(p: TwoQubitXYParams) -> TwoQubitClosedForm:
    """Analytic solution of the model under the sigma_pm/2 convention; NumericalError if Z overflows."""
    d_plus = (_instance(p, TwoQubitXYParams).omega_S + p.omega_B) / 2.0
    d_minus = (p.omega_S - p.omega_B) / 2.0
    eta = math.sqrt(d_minus**2 + p.lam**2)
    b = p.beta
    zeta_plus = math.sqrt((1.0 + d_minus / eta) / 2.0)
    zeta_minus = math.sqrt((1.0 - d_minus / eta) / 2.0)
    ratio = d_minus / eta
    omega_b_zero = p.omega_B == 0.0
    try:  # a cosh past the largest double raises OverflowError; a sum past it reads inf, then 0/0
        z = 2.0 * (math.cosh(b * d_plus) + math.cosh(b * eta))
        cosh_e, sinh_e = math.cosh(b * eta), math.sinh(b * eta)
        mu1_plus = (math.exp(b * d_plus) + cosh_e + ratio * sinh_e) / z
        mu1_minus = (math.exp(-b * d_plus) + cosh_e - ratio * sinh_e) / z
        mu2_plus = (math.exp(-b * d_plus) + cosh_e + ratio * sinh_e) / z
        mu2_minus = (math.exp(b * d_plus) + cosh_e - ratio * sinh_e) / z
        beta_s = math.log(mu1_plus / mu1_minus) / p.omega_S if p.omega_S > 0 else math.nan
        beta_b = math.nan if omega_b_zero else math.log(mu2_minus / mu2_plus) / p.omega_B
    except (OverflowError, ZeroDivisionError) as exc:
        raise NumericalError(f"closed form overflows at beta = {b!r}: {exc}") from exc
    return TwoQubitClosedForm(
        Z=z,
        E=(d_plus, eta, -eta, -d_plus),
        zeta_plus=zeta_plus,
        zeta_minus=zeta_minus,
        mu1_plus=mu1_plus,
        mu1_minus=mu1_minus,
        mu2_plus=mu2_plus,
        mu2_minus=mu2_minus,
        beta_S=beta_s,
        beta_B=beta_b,
        h_S=p.omega_S / math.sqrt(2.0),
        h_B=p.omega_B / math.sqrt(2.0),
        h_I=math.sqrt(2.0) * p.lam,
        h_SB=math.sqrt(p.omega_S**2 + p.omega_B**2 + 2.0 * p.lam**2),
        h_chi=1.0,
        omega_B_zero=omega_b_zero,
    )


def gue_sample(d: int, rng: np.random.Generator) -> HermitianOperator:
    """A Gaussian-unitary-ensemble Hermitian matrix (entries O(1))."""
    d = _dimension(d)
    g = _instance(rng, np.random.Generator).normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return HermitianOperator((g + g.conj().T) / 2.0)


def _haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def sample_gibbs(d: int, beta: float, rng: np.random.Generator) -> tuple[HermitianOperator, DensityMatrix]:
    """Random GUE Hamiltonian and its Gibbs state at inverse temperature beta."""
    h = gue_sample(_dimension(d, 2), rng)
    return h, _gibbs_state(eig_hermitian(h), _number(beta, "beta must be a finite number"))


def _commuting_pair(d: int, rng: np.random.Generator, inverted: bool) -> tuple[HermitianOperator, DensityMatrix]:
    """Commuting (H, rho), populations ascending in energy if ``inverted``, else descending."""
    d = _dimension(d, 2)
    energies = np.sort(_instance(rng, np.random.Generator).normal(scale=2.0, size=d))
    probs = np.sort(rng.dirichlet(np.ones(d)))
    if not inverted:
        probs = probs[::-1]
    probs = (probs + 1e-9) / (1.0 + d * 1e-9)  # full rank, ordering preserved
    u = _haar_unitary(d, rng)
    h = HermitianOperator((u * energies) @ u.conj().T)
    return h, DensityMatrix.from_spectrum(probs, u)


def sample_passive_pair(d: int, rng: np.random.Generator) -> tuple[HermitianOperator, DensityMatrix]:
    """Commuting (H, rho) with populations non-increasing along energy."""
    return _commuting_pair(d, rng, inverted=False)


def sample_inverted_pair(d: int, rng: np.random.Generator) -> tuple[HermitianOperator, DensityMatrix]:
    """Commuting (H, rho) with populations sorted ascending in energy.

    Fully population-inverted, hence never passive for nondegenerate spectra.
    """
    return _commuting_pair(d, rng, inverted=True)


def sample_pure(d: int, rng: np.random.Generator) -> DensityMatrix:
    """Haar-random pure state."""
    d = _dimension(d)
    v = _instance(rng, np.random.Generator).normal(size=d) + 1j * rng.normal(size=d)
    v /= np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))


#: Identity-mixing weight of sample_full_rank; keeps min eigenvalue >= FLOOR/d.
FULL_RANK_FLOOR = 1e-3


def sample_full_rank(d: int, rng: np.random.Generator) -> DensityMatrix:
    """Random full-rank state: a pure-state ensemble mixed with I/d.

    The identity floor guarantees min eigenvalue >= FULL_RANK_FLOOR/d, so
    logarithms never clip and finite-difference probes stay inside the cone.
    """
    d = _dimension(d)
    weights = _instance(rng, np.random.Generator).dirichlet(np.ones(d))
    mix = np.zeros((d, d), dtype=complex)
    for w in weights:
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        v /= np.linalg.norm(v)
        mix += w * np.outer(v, v.conj())
    rho = (1.0 - FULL_RANK_FLOOR) * mix + FULL_RANK_FLOOR * np.eye(d) / d
    return DensityMatrix(rho)


def sample_bipartite(
    d_S: int, d_B: int, coupling_scale: float, rng: np.random.Generator
) -> BipartiteSystem:
    """Random bipartite system: local GUE Hamiltonians, scaled GUE interaction
    and a generic correlated full-rank joint state."""
    h_s = gue_sample(d_S, rng)
    h_b = gue_sample(d_B, rng)
    scale = _number(coupling_scale, "coupling_scale must be a finite number")
    h_i = HermitianOperator(scale * gue_sample(d_S * d_B, rng).matrix)
    rho = sample_full_rank(d_S * d_B, rng)
    return BipartiteSystem(d_S, d_B, h_s, h_b, h_i, rho)
