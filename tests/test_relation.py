"""Universal-relation tests.

The tilde and correlation temperatures are constrained partial derivatives,
so the decisive oracle here is a finite-difference probe that solves a 3x3
linear system for a perturbation direction moving exactly one of (U_S, U_B,
U_chi) while freezing the other two, then differences the correlation
entropy along it. It shares no algebra with the closed-form implementation.
"""

import math

import numpy as np
import pytest

from neqtemp.basis import hamiltonian_unit
from neqtemp.correlation import correlation_inverse_temperature
from neqtemp.exceptions import NumericalError
from neqtemp.linalg import (
    DensityMatrix,
    HermitianOperator,
    eig_hermitian,
    partial_trace,
    tensor_product,
)
from neqtemp.models import TwoQubitXYParams, build_two_qubit_xy, sample_bipartite
from neqtemp.relation import (
    expansion_coefficients,
    relation_coefficients,
    tilde_inverse_temperatures,
    verify_universal_relation,
)
from neqtemp.thermometry import DEFAULT_CLIP, inverse_temperature
from neqtemp.correlation import BipartiteSystem
from oracles import frame_operators

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def gibbs_system(h_s, h_b, h_i, beta):
    """Global Gibbs state of the assembled total Hamiltonian."""
    d_s, d_b = h_s.dim, h_b.dim
    total = HermitianOperator(
        tensor_product(h_s, np.eye(d_b))
        + tensor_product(np.eye(d_s), h_b)
        + h_i.matrix
    )
    spec = eig_hermitian(total)
    w = -beta * spec.eigenvalues
    w -= w.max()
    probs = np.exp(w) / float(np.sum(np.exp(w)))
    rho = DensityMatrix.from_spectrum(probs, spec.eigenvectors)
    return BipartiteSystem(d_s, d_b, h_s, h_b, h_i, rho)


def gue_matrix(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2.0


def rescaled(sys, c):
    """The system with H_S, H_B and H_I multiplied by c, in the same state."""
    return BipartiteSystem(
        sys.d_S, sys.d_B,
        HermitianOperator(c * sys.H_S.matrix),
        HermitianOperator(c * sys.H_B.matrix),
        HermitianOperator(c * sys.H_I.matrix),
        sys.rho_SB,
    )


def relation_betas(sys):
    """beta_SB, the two tilde betas, beta_chi and the local beta of S."""
    rel = verify_universal_relation(sys)
    local = inverse_temperature(sys.rho_S, sys.effective.H_S_eff).beta
    return np.array([rel.beta_SB, rel.beta_tilde_S, rel.beta_tilde_B, rel.beta_chi, local])


def entropy_of(m):
    w = np.linalg.eigvalsh(m)
    w = w[w > 1e-300]
    return float(-np.sum(w * np.log(w)))


def constrained_derivative(sys, k, eps=1e-6):
    """FD oracle: dS_chi along the direction that moves only coordinate k.

    Coordinates are (U_S, U_B, U_chi) evaluated in the operator frame frozen
    at the base state. The perturbation lives in span{O_S x I, I x O_B,
    O_chi} and is solved from the numerically measured 3x3 Jacobian.
    """
    eff, ops = sys.effective, frame_operators(sys)
    dims = (sys.d_S, sys.d_B)
    directions = [ops.O_S_I, ops.I_O_B, ops.O_chi]
    frame = (eff.H_S_eff.matrix, eff.H_B_eff.matrix, eff.H_I_eff.matrix)

    def coords(rho):
        rs = partial_trace(rho, dims, 0)
        rb = partial_trace(rho, dims, 1)
        chi = rho - np.kron(rs, rb)
        return np.array([
            np.trace(rs @ frame[0]).real,
            np.trace(rb @ frame[1]).real,
            np.trace(chi @ frame[2]).real,
        ])

    def s_chi(rho):
        rs = partial_trace(rho, dims, 0)
        rb = partial_trace(rho, dims, 1)
        return entropy_of(rs) + entropy_of(rb) - entropy_of(rho)

    rho0 = sys.rho_SB.matrix
    jac = np.zeros((3, 3))
    for j, v in enumerate(directions):
        jac[:, j] = (coords(rho0 + eps * v) - coords(rho0 - eps * v)) / (2.0 * eps)
    a = np.linalg.solve(jac, np.eye(3)[k])
    v = sum(ai * vi for ai, vi in zip(a, directions))
    num = s_chi(rho0 + eps * v) - s_chi(rho0 - eps * v)
    den = coords(rho0 + eps * v)[k] - coords(rho0 - eps * v)[k]
    return num / den


class TestExpansion:
    def test_reconstruction(self):
        # O1_SB lies exactly in the span of the embedded local directions and
        # O_chi because the effective splitting of H_SB is exact.
        rng = np.random.default_rng(51)
        worst = 0.0
        for i in range(500):
            d_b = 2 + i % 2
            sys = sample_bipartite(2, d_b, 0.5, rng)
            ops = frame_operators(sys)
            c_s, c_b, c_chi = expansion_coefficients(sys)
            recon = c_s * ops.O_S_I + c_b * ops.I_O_B + c_chi * ops.O_chi
            worst = max(worst, float(np.max(np.abs(recon - ops.O1_SB))))
        assert worst < 1e-10

    def test_two_qubit_coefficients(self):
        p = TwoQubitXYParams(omega_S=2.0, omega_B=1.0, lam=0.3, beta=1.0)
        sys = build_two_qubit_xy(p)
        c_s, c_b, c_chi = expansion_coefficients(sys)
        h_sb = math.sqrt(p.omega_S**2 + p.omega_B**2 + 2.0 * p.lam**2)
        assert c_s == pytest.approx(p.omega_S / math.sqrt(2.0) / h_sb, rel=1e-10)
        assert c_b == pytest.approx(p.omega_B / math.sqrt(2.0) / h_sb, rel=1e-10)
        assert c_chi == pytest.approx(math.sqrt(2.0) * p.lam / h_sb, rel=1e-10)


class TestCoefficients:
    def test_identity_on_two_qubit_family(self):
        # With vanishing overlaps the weights satisfy K_SB = b_S + b_B + K_chi.
        for lam in (0.05, 0.2, 1.0):
            p = TwoQubitXYParams(omega_S=2.0, omega_B=1.0, lam=lam, beta=1.0)
            coeffs = relation_coefficients(build_two_qubit_xy(p))
            lhs = coeffs.K_SB
            rhs = coeffs.b_S + coeffs.b_B + coeffs.K_chi
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_two_qubit_b_ratio(self):
        p = TwoQubitXYParams(omega_S=2.0, omega_B=1.0, lam=0.3, beta=1.0)
        coeffs = relation_coefficients(build_two_qubit_xy(p))
        assert coeffs.b_S / coeffs.b_B == pytest.approx(
            p.omega_S**2 / p.omega_B**2, rel=1e-10
        )

    def test_no_interaction_reduced_form(self):
        rng = np.random.default_rng(55)
        sys = sample_bipartite(2, 3, 0.0, rng)
        coeffs = relation_coefficients(sys)
        assert coeffs.interaction_degenerate
        _, h_s = hamiltonian_unit(sys.effective.H_S_eff)
        _, h_b = hamiltonian_unit(sys.effective.H_B_eff)
        assert coeffs.K_SB == pytest.approx((h_s**2 + h_b**2) / coeffs.h_SB, rel=1e-10)
        assert coeffs.b_S == pytest.approx(h_s**2 / coeffs.h_SB, rel=1e-10)
        assert coeffs.b_B == pytest.approx(h_b**2 / coeffs.h_SB, rel=1e-10)
        assert coeffs.K_chi == 0.0

    def test_weak_coupling_continuity(self):
        # The exact weights approach the no-interaction forms as the coupling
        # is scaled down along a fixed direction.
        beta = 1.0
        deviations = []
        for lam in (1e-2, 1e-4, 1e-6):
            p = TwoQubitXYParams(omega_S=2.0, omega_B=1.0, lam=lam, beta=beta)
            sys = build_two_qubit_xy(p)
            coeffs = relation_coefficients(sys)
            _, h_s = hamiltonian_unit(sys.effective.H_S_eff)
            _, h_b = hamiltonian_unit(sys.effective.H_B_eff)
            k0 = (h_s**2 + h_b**2) / coeffs.h_SB
            deviations.append(abs(coeffs.K_SB - k0) + abs(coeffs.K_chi))
        assert deviations[0] > deviations[1] > deviations[2]
        assert deviations[2] < 1e-9


class TestTildeTemperatures:
    def test_fd_oracle_random_systems(self):
        rng = np.random.default_rng(56)
        for _ in range(10):
            sys = sample_bipartite(2, 3, 0.5, rng)
            bts, btb = tilde_inverse_temperatures(sys)
            beta_s = inverse_temperature(sys.rho_S, sys.effective.H_S_eff).beta
            beta_b = inverse_temperature(sys.rho_B, sys.effective.H_B_eff).beta
            assert beta_s - bts == pytest.approx(
                constrained_derivative(sys, 0), abs=1e-7
            )
            assert beta_b - btb == pytest.approx(
                constrained_derivative(sys, 1), abs=1e-7
            )

    def test_fd_oracle_correlation_temperature(self):
        rng = np.random.default_rng(57)
        for _ in range(10):
            sys = sample_bipartite(2, 3, 0.5, rng)
            beta_chi = correlation_inverse_temperature(sys).beta_chi
            assert beta_chi == pytest.approx(constrained_derivative(sys, 2), abs=1e-7)

    def test_gibbs_grid_point(self):
        p = TwoQubitXYParams(omega_S=2.0, omega_B=1.0, lam=0.2, beta=1.3)
        bts, btb = tilde_inverse_temperatures(build_two_qubit_xy(p))
        assert bts == pytest.approx(p.beta, abs=1e-10)
        assert btb == pytest.approx(p.beta, abs=1e-10)

    def test_product_gibbs_no_interaction(self):
        # Without interaction and without correlations the tilde temperatures
        # are just the local ones.
        beta = 0.8
        h_s = HermitianOperator(1.0 * SZ)
        h_b = HermitianOperator(0.5 * SZ)

        def local_gibbs(h):
            w = np.exp(-beta * np.diag(h.matrix).real)
            return DensityMatrix.from_spectrum(w / w.sum(), np.eye(2))

        rho = DensityMatrix(
            tensor_product(local_gibbs(h_s).matrix, local_gibbs(h_b).matrix)
        )
        sys = BipartiteSystem(2, 2, h_s, h_b, HermitianOperator(np.zeros((4, 4))), rho)
        bts, btb = tilde_inverse_temperatures(sys)
        assert bts == pytest.approx(beta, abs=1e-10)
        assert btb == pytest.approx(beta, abs=1e-10)

    @pytest.mark.parametrize("d_b", [3, 4, 6])
    def test_rank_deficient_marginal_ignores_round_off(self, d_b):
        # A pure entangled 2 x d_B state: rho_B has rank 2, and its other eigenvalues
        # are zero, whatever round-off the eigensolver returns for them.
        rng = np.random.default_rng(70 + d_b)
        d = 2 * d_b
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        rho = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
        ops = [HermitianOperator(s * gue_matrix(n, rng)) for n, s in ((2, 1.0), (d_b, 1.0), (d, 0.3))]

        def betas(nudge):
            sys = BipartiteSystem(2, d_b, *ops, DensityMatrix(rho + nudge * np.eye(d)))
            rel = verify_universal_relation(sys)
            return np.array([rel.beta_chi, rel.beta_tilde_S, rel.beta_tilde_B])

        ref = betas(0.0)
        assert np.all(np.isfinite(ref))
        for nudge in (1e-17, -1e-17):
            np.testing.assert_allclose(betas(nudge), ref, rtol=1e-9)


class TestUniversalRelation:
    def test_gibbs_grid_point_residual(self):
        p = TwoQubitXYParams(omega_S=5.0, omega_B=0.5, lam=1.0, beta=5.0)
        rel = verify_universal_relation(build_two_qubit_xy(p))
        assert abs(rel.residual) <= 1e-8 * max(abs(rel.K_SB * p.beta), 1.0)
        assert rel.beta_SB == pytest.approx(p.beta, abs=1e-9)
        assert rel.beta_chi == pytest.approx(-p.beta, abs=1e-9)

    def test_no_interaction_relation(self):
        beta = 1.1
        h_s = HermitianOperator(1.0 * SZ)
        h_b = HermitianOperator(0.5 * SZ)

        def local_gibbs(h):
            w = np.exp(-beta * np.diag(h.matrix).real)
            return DensityMatrix.from_spectrum(w / w.sum(), np.eye(2))

        rho = DensityMatrix(
            tensor_product(local_gibbs(h_s).matrix, local_gibbs(h_b).matrix)
        )
        sys = BipartiteSystem(2, 2, h_s, h_b, HermitianOperator(np.zeros((4, 4))), rho)
        rel = verify_universal_relation(sys)
        assert rel.interaction_degenerate
        assert math.isnan(rel.beta_chi)
        assert abs(rel.residual) < 1e-9
        # (h_S^2 + h_B^2) beta = h_S^2 beta + h_B^2 beta, scaled by 1/h_SB.
        assert rel.K_SB * rel.beta_SB == pytest.approx(
            rel.b_S * beta + rel.b_B * beta, abs=1e-9
        )

    @pytest.mark.parametrize("c", [1e-13, 1e-30])
    def test_small_energy_unit(self, c):
        # H -> cH scales every inverse temperature by 1/c, however small c is.
        sys = sample_bipartite(2, 2, 0.5, np.random.default_rng(59))
        np.testing.assert_allclose(c * relation_betas(rescaled(sys, c)), relation_betas(sys), rtol=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("c", [1e13, 1e150])
    def test_large_energy_unit(self, c):
        # H_I_eff cancels H_I's mean-field parts on the scale of c H_I; its
        # rounding must not be judged against an absolute tolerance.
        rng = np.random.default_rng(3)
        h_s, h_b, h_i = (HermitianOperator(scale * gue_matrix(d, rng)) for d, scale in ((2, 1.0), (2, 1.0), (4, 0.3)))
        sys = gibbs_system(h_s, h_b, h_i, 0.7)
        np.testing.assert_allclose(c * relation_betas(rescaled(sys, c)), relation_betas(sys), rtol=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_energy_overflow_raises(self):
        sys = sample_bipartite(2, 2, 0.5, np.random.default_rng(59))
        with pytest.raises(NumericalError, match="overflow"):
            verify_universal_relation(rescaled(sys, 1e160))

    def test_residual_reported_for_generic_states(self):
        rng = np.random.default_rng(58)
        sys = sample_bipartite(2, 2, 0.5, rng)
        rel = verify_universal_relation(sys)
        assert math.isfinite(rel.residual)


class TestGlobalTemperature:
    @pytest.mark.parametrize("clip", [DEFAULT_CLIP, 1e-2])
    def test_matches_single_system_functional(self, clip):
        # beta_SB by trace algebra is inverse_temperature of (rho_SB, H_SB).
        rng = np.random.default_rng(63)
        for d_s, d_b in [(2, 2), (2, 3), (3, 4)]:
            sys = sample_bipartite(d_s, d_b, 0.5, rng)
            expected = inverse_temperature(sys.rho_SB, sys.H_SB(), clip).beta
            assert verify_universal_relation(sys, clip).beta_SB == pytest.approx(expected, rel=1e-12)


class TestLargeBath:
    def test_b_s_decreases_with_bath_size(self):
        # Fixed-range bath spectra make h_SB grow like sqrt(d_B), so the
        # system's share C_S h_S of the global direction shrinks.
        rng = np.random.default_rng(62)
        h_s = HermitianOperator(SZ)
        values = []
        for d_b in (4, 8, 16, 32):
            eb = np.linspace(-1.0, 1.0, d_b)
            h_b = HermitianOperator(np.diag(eb).astype(complex))
            w = np.zeros((d_b, d_b), dtype=complex)
            w[0, 1] = w[1, 0] = 1.0
            h_i = HermitianOperator(0.05 * tensor_product(SX, w))
            sys = gibbs_system(h_s, h_b, h_i, beta=1.0)
            values.append(abs(relation_coefficients(sys).b_S))
        assert values[0] > values[1] > values[2] > values[3]
