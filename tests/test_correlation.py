"""Bipartite decomposition and correlation-temperature tests.

The correlation inverse temperature is validated against a from-scratch
term-by-term evaluation built directly from raw numpy eigendecompositions,
and the mutual information against the relative entropy S(rho || rho_S x
rho_B), both independent of the library internals.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neqtemp.correlation import (
    BipartiteSystem,
    binding_energy,
    chi_unit,
    correlation_inverse_temperature,
    correlation_log_hamiltonian,
    mutual_information,
)
from neqtemp.exceptions import DegenerateDirectionError, NumericalError, ValidationError
from neqtemp.basis import hamiltonian_unit
from neqtemp.linalg import (
    DensityMatrix,
    HermitianOperator,
    hs_inner,
    matrix_log,
    partial_trace,
    tensor_product,
)
from neqtemp.models import TwoQubitXYParams, build_two_qubit_xy, gue_sample, sample_bipartite
from neqtemp.relation import relation_coefficients, tilde_inverse_temperatures, verify_universal_relation
from neqtemp.thermometry import DEFAULT_CLIP
from oracles import correlations, frame_operators

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def bell_state():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1.0 / math.sqrt(2.0)
    return DensityMatrix(np.outer(phi, phi.conj()))


def random_state(d, rng):
    """Generic full-rank state with complex off-diagonal entries."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    r = g @ g.conj().T
    return r / np.trace(r).real


def product_system(rng, d_s=2, d_b=3, coupling=0.4):
    """Random bipartite Hamiltonians with a product full-rank state."""

    def gue(d):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return HermitianOperator((g + g.conj().T) / 2.0)

    def full_rank(d):
        p = rng.dirichlet(np.ones(d)) + 0.05
        p /= p.sum()
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        return DensityMatrix.from_spectrum(p, q)

    h_i = HermitianOperator(coupling * gue(d_s * d_b).matrix)
    rho = DensityMatrix(tensor_product(full_rank(d_s).matrix, full_rank(d_b).matrix))
    return BipartiteSystem(d_s, d_b, gue(d_s), gue(d_b), h_i, rho)


class TestBipartiteSystem:
    def test_marginals(self):
        rng = np.random.default_rng(2)
        sys = sample_bipartite(2, 3, 0.3, rng)
        np.testing.assert_allclose(
            sys.rho_S.matrix, partial_trace(sys.rho_SB.matrix, (2, 3), 0), atol=1e-12
        )
        np.testing.assert_allclose(
            sys.rho_B.matrix, partial_trace(sys.rho_SB.matrix, (2, 3), 1), atol=1e-12
        )

    def test_total_hamiltonian(self):
        rng = np.random.default_rng(3)
        sys = sample_bipartite(2, 2, 0.3, rng)
        expected = (
            tensor_product(sys.H_S.matrix, np.eye(2))
            + tensor_product(np.eye(2), sys.H_B.matrix)
            + sys.H_I.matrix
        )
        np.testing.assert_allclose(sys.H_SB().matrix, expected, atol=1e-13)

    def test_dimension_validation(self):
        rho = DensityMatrix(np.eye(4) / 4.0)
        h2 = HermitianOperator(SZ)
        h4 = HermitianOperator(np.zeros((4, 4)))
        with pytest.raises(ValidationError):
            BipartiteSystem(2, 3, h2, h2, h4, rho)


def near_pure(d, eps, rng):
    """(1 - eps) |v><v| + eps I/d for a random unit v, and the projector |v><v|."""
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    p = np.outer(v, v.conj()) / np.vdot(v, v).real
    return (1.0 - eps) * p + eps * np.eye(d) / d, p


class TestConstruction:
    """A system is built whole: its frame, and every refusal of its geometry, come at construction."""

    def test_vanishing_local_coefficients_refused_at_construction(self):
        # H_I_eff and lambda read only H_I and rho_SB, so H_S = -Tr_B(H_I_eff)/d_B - lambda_S makes
        # H_S_eff's direction the opposite of Tr_B H_I_eff's, with a_S = h_S + h_I overlap_S/d_B = 0 (B mirrors it).
        rng = np.random.default_rng(40)
        h_i, rho = gue_sample(6, rng), DensityMatrix(random_state(6, rng))
        probe = BipartiteSystem(2, 3, SZ, np.diag([1.0, 0.0, -1.0]), h_i, rho)
        hi, rho_s, rho_b = probe.effective.H_I_eff.matrix, probe.rho_S.matrix, probe.rho_B.matrix
        lamb_s = partial_trace(np.kron(np.eye(2), rho_b) @ h_i.matrix, (2, 3), 0)
        lamb_b = partial_trace(np.kron(rho_s, np.eye(3)) @ h_i.matrix, (2, 3), 1)
        h_s = HermitianOperator(-partial_trace(hi, (2, 3), 0) / 3.0 - lamb_s, tol_herm=1e-12)
        h_b = HermitianOperator(-partial_trace(hi, (2, 3), 1) / 2.0 - lamb_b, tol_herm=1e-12)
        with pytest.raises(NumericalError, match="both local expansion coefficients vanish"):
            BipartiteSystem(2, 3, h_s, h_b, h_i, rho)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(d_s=st.integers(2, 4), d_b=st.integers(2, 5), log_eps=st.floats(-12.0, 0.0), g=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_h_chi_bound(self, d_s, d_b, log_eps, g, seed):
        # Near-pure product marginals and H_I = A x (I - P), P the projector B nearly holds, put the interaction
        # nearly in the local span; h_chi^2 (1 + d_S + d_B) >= 1 holds all the same (BipartiteFrame).
        rng = np.random.default_rng(seed)
        (rho_s, _), (rho_b, p) = near_pure(d_s, 10.0**log_eps, rng), near_pure(d_b, 10.0**log_eps, rng)
        h_i = np.kron(gue_sample(d_s, rng).matrix, np.eye(d_b) - p) + g * gue_sample(d_s * d_b, rng).matrix
        sys = BipartiteSystem(d_s, d_b, gue_sample(d_s, rng), gue_sample(d_b, rng), HermitianOperator(h_i),
                              DensityMatrix(np.kron(rho_s, rho_b)))
        assert sys.frame.h_chi**2 * (1 + d_s + d_b) >= 1.0

    def test_degenerate_local_hamiltonian_refused_and_H_SB_built_per_call(self):
        with pytest.raises(DegenerateDirectionError):
            build_two_qubit_xy(TwoQubitXYParams(omega_S=2.0, omega_B=0.0, lam=0.2, beta=1.0))
        sys = build_two_qubit_xy(TwoQubitXYParams(omega_S=2.0, omega_B=1.0, lam=0.2, beta=1.0))
        first, second = sys.H_SB(), sys.H_SB()
        assert first is not second
        np.testing.assert_array_equal(first.matrix, second.matrix)


class TestEffectiveHamiltonians:
    def test_zero_mean_conditions(self):
        # The recentered interaction must have vanishing partner-averaged
        # means on both sides and a vanishing full mean.
        rng = np.random.default_rng(5)
        for _ in range(10):
            sys = sample_bipartite(2, 3, 0.5, rng)
            eff = sys.effective
            hi = eff.H_I_eff.matrix
            mean_s = partial_trace(np.kron(np.eye(2), sys.rho_B.matrix) @ hi, (2, 3), 0)
            mean_b = partial_trace(np.kron(sys.rho_S.matrix, np.eye(3)) @ hi, (2, 3), 1)
            assert np.max(np.abs(mean_s)) < 1e-12
            assert np.max(np.abs(mean_b)) < 1e-12

    def test_decomposition_reassembles_total(self):
        rng = np.random.default_rng(6)
        sys = sample_bipartite(2, 2, 0.5, rng)
        eff = sys.effective
        total = (
            tensor_product(eff.H_S_eff.matrix, np.eye(2))
            + tensor_product(np.eye(2), eff.H_B_eff.matrix)
            + eff.H_I_eff.matrix
        )
        # Effective splitting shifts pieces around but must preserve the sum
        # up to the doubly-counted scalar mean.
        diff = total - sys.H_SB().matrix
        off = diff - (np.trace(diff) / 4.0) * np.eye(4)
        assert np.max(np.abs(off)) < 1e-12

    def test_no_interaction_is_identity_map(self):
        rng = np.random.default_rng(7)
        sys = sample_bipartite(2, 2, 0.0, rng)
        eff = sys.effective
        np.testing.assert_allclose(eff.H_S_eff.matrix, sys.H_S.matrix, atol=1e-13)
        np.testing.assert_allclose(eff.H_B_eff.matrix, sys.H_B.matrix, atol=1e-13)


class TestCorrelationOperator:
    def test_bell_chi_entries(self):
        rho = bell_state()
        rng = np.random.default_rng(8)
        sys = BipartiteSystem(
            2, 2,
            HermitianOperator(SZ), HermitianOperator(SZ),
            HermitianOperator(0.1 * tensor_product(SX, SX)),
            rho,
        )
        chi = correlations(sys)
        # Marginals are I/2, so chi = |Phi+><Phi+| - I/4: coherence 1/2 on the
        # antidiagonal corners, 1/4 on the outer diagonal, -1/4 inner.
        assert chi[0, 3] == pytest.approx(0.5)
        assert chi[0, 0] == pytest.approx(0.25)
        assert chi[1, 1] == pytest.approx(-0.25)

    def test_partial_traces_vanish(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            sys = sample_bipartite(2, 3, 0.5, rng)
            chi = correlations(sys)
            assert np.max(np.abs(partial_trace(chi, (2, 3), 0))) < 1e-10
            assert np.max(np.abs(partial_trace(chi, (2, 3), 1))) < 1e-10

    def test_product_state_zero(self):
        rng = np.random.default_rng(10)
        sys = product_system(rng)
        assert np.max(np.abs(correlations(sys))) < 1e-12


class TestBindingEnergyMutualInformation:
    def test_binding_energy_direct(self):
        rng = np.random.default_rng(11)
        sys = sample_bipartite(2, 2, 0.7, rng)
        chi = sys.rho_SB.matrix - tensor_product(sys.rho_S.matrix, sys.rho_B.matrix)
        expected = np.trace(chi @ sys.H_I.matrix).real
        assert binding_energy(sys) == pytest.approx(expected, abs=1e-12)

    def test_mutual_information_bell(self):
        sys = BipartiteSystem(
            2, 2,
            HermitianOperator(SZ), HermitianOperator(SZ),
            HermitianOperator(0.1 * tensor_product(SX, SX)),
            bell_state(),
        )
        assert mutual_information(sys) == pytest.approx(2.0 * math.log(2.0), rel=1e-12)

    def test_mutual_information_relative_entropy_oracle(self):
        # S_chi must equal S(rho || rho_S x rho_B), evaluated here from raw
        # eigendecompositions.
        rng = np.random.default_rng(12)
        for _ in range(10):
            sys = sample_bipartite(2, 3, 0.5, rng)
            rho = sys.rho_SB.matrix
            prod = tensor_product(sys.rho_S.matrix, sys.rho_B.matrix)
            w1, v1 = np.linalg.eigh(rho)
            w2, v2 = np.linalg.eigh(prod)
            log_prod = (v2 * np.log(w2)) @ v2.conj().T
            rel_ent = float(
                np.sum(w1 * np.log(w1))
                - np.trace(rho @ log_prod).real
            )
            assert mutual_information(sys) == pytest.approx(rel_ent, abs=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            sys = sample_bipartite(2, 2, 0.5, rng)
            assert mutual_information(sys) >= -1e-12


class TestLogHamiltonian:
    def test_vanishes_on_product_states(self):
        rng = np.random.default_rng(14)
        sys = product_system(rng)
        hh = correlation_log_hamiltonian(sys)
        assert not hh.clipped
        assert np.max(np.abs(hh.operator.matrix)) < 1e-10

    def test_clipped_flag_propagates(self):
        sys = BipartiteSystem(
            2, 2,
            HermitianOperator(SZ), HermitianOperator(SZ),
            HermitianOperator(0.1 * tensor_product(SX, SX)),
            bell_state(),
        )
        assert correlation_log_hamiltonian(sys, clip=1e-9).clipped


class TestComputedOperators:
    """Operators derived from validated input are wrapped without a Hermiticity
    check; they must come out exactly Hermitian, finite and read-only."""

    @pytest.mark.parametrize("d_s,d_b", [(2, 2), (3, 4), (4, 8)])
    def test_exactly_hermitian_and_finite(self, d_s, d_b):
        sys = sample_bipartite(d_s, d_b, 0.3, np.random.default_rng(d_s * d_b))
        f, eff = sys.frame, sys.effective
        ops = {
            "O_S": f.O_S, "O_B": f.O_B, "H_SB": sys.H_SB(), "H_S_eff": eff.H_S_eff, "H_B_eff": eff.H_B_eff,
            "H_I_eff": eff.H_I_eff, "HH_I": correlation_log_hamiltonian(sys).operator,
        }
        for name in ("rho_SB", "rho_S", "rho_B"):
            ops[f"log {name}"] = matrix_log(getattr(sys, name), DEFAULT_CLIP).operator
        for name, op in ops.items():
            m = op.matrix
            assert np.array_equal(m, m.conj().T), name
            assert np.all(np.isfinite(m)), name
            assert not m.flags.writeable, name

    @pytest.mark.parametrize("d_s,d_b", [(2, 2), (2, 3), (3, 4)])
    @pytest.mark.parametrize("offset", [0.0, 1.0, -750.0, 1e6])
    def test_exact_route_under_offsets(self, d_s, d_b, offset):
        # Sums and real rescalings of exactly Hermitian operators skip the symmetrization: rounding keeps
        # them exactly Hermitian, with a real diagonal, whatever the offset c I on H_S, H_B and H_I. The
        # products (the states and their logarithms) are symmetrized, so a product moved onto the exact
        # route fails here.
        rng = np.random.default_rng(10 * d_s + d_b)
        base = sample_bipartite(d_s, d_b, 0.3, rng)
        shifted = [HermitianOperator(h.matrix + offset * np.eye(h.dim)) for h in (base.H_S, base.H_B, base.H_I)]
        sys = BipartiteSystem(d_s, d_b, *shifted, base.rho_SB)
        rho = DensityMatrix(random_state(sys.dim, rng))
        ops = {
            "O1 of H_S": hamiltonian_unit(sys.H_S)[0], "O1 of H_I": hamiltonian_unit(sys.H_I)[0],
            "O1 of H_SB": hamiltonian_unit(sys.H_SB())[0], "H_SB": sys.H_SB(),
            **{name: getattr(sys.effective, name) for name in ("H_S_eff", "H_B_eff", "H_I_eff")},
            "HH_I": correlation_log_hamiltonian(sys).operator, "rho": rho.operator, "rho_S": sys.rho_S.operator,
            "log rho": matrix_log(rho, DEFAULT_CLIP).operator, "log rho_B": matrix_log(sys.rho_B, 1e-3).operator,
        }
        for name, op in ops.items():
            m = op.matrix
            assert np.array_equal(m, m.conj().T), name
            assert not np.diagonal(m).imag.any(), name

    def test_log_hamiltonian_per_clip(self):
        sys = sample_bipartite(2, 2, 0.3, np.random.default_rng(61))
        hh = correlation_log_hamiltonian(sys)
        logs = [matrix_log(r, DEFAULT_CLIP).operator.matrix for r in (sys.rho_SB, sys.rho_S, sys.rho_B)]
        by_kron = -logs[0] + np.kron(logs[1], np.eye(2)) + np.kron(np.eye(2), logs[2])
        np.testing.assert_array_equal(hh.operator.matrix, by_kron)
        assert not hh.clipped and not correlation_inverse_temperature(sys).clipped
        # A clip above the smallest joint eigenvalue gives a different, clipped HH_I.
        clip = 1.5 * float(sys.rho_SB.eigenvalues[0])
        assert clip < float(sys.rho_S.eigenvalues[0])
        hh_clip = correlation_log_hamiltonian(sys, clip)
        assert hh_clip.clipped and correlation_inverse_temperature(sys, clip).clipped
        assert not np.array_equal(hh_clip.operator.matrix, hh.operator.matrix)
        np.testing.assert_array_equal(correlation_log_hamiltonian(sys, clip).operator.matrix,
                                      hh_clip.operator.matrix)
        np.testing.assert_array_equal(correlation_log_hamiltonian(sys).operator.matrix, hh.operator.matrix)


class TestTraceAlgebra:
    """A report reads scalars and local matrices; the frame's scalars agree with
    the joint-space operators that the test oracles assemble independently."""

    @pytest.mark.parametrize("d_s,d_b", [(2, 3), (3, 4)])
    def test_frame_scalars_match_operators(self, d_s, d_b):
        sys = sample_bipartite(d_s, d_b, 0.4, np.random.default_rng(d_s + 10 * d_b))
        f, ops = sys.frame, frame_operators(sys)
        o1, h_sb = hamiltonian_unit(sys.H_SB())
        es, eb = ops.O_S_I, ops.I_O_B
        assert f.h_SB == pytest.approx(h_sb, rel=1e-12)
        assert f.overlap_S == pytest.approx(hs_inner(ops.O_I, es), abs=1e-12)
        assert f.overlap_B == pytest.approx(hs_inner(ops.O_I, eb), abs=1e-12)
        # O_I is O_chi's unit multiple plus local parts, so Tr[O_chi O_I] is O_chi's unnormalized norm.
        assert f.h_chi == pytest.approx(hs_inner(ops.O_chi, ops.O_I), abs=1e-12)
        for c, op, norm in ((f.C_S, es, d_b), (f.C_B, eb, d_s), (f.C_chi, ops.O_chi, 1)):
            assert c == pytest.approx(hs_inner(o1, op) / norm, abs=1e-12)
        np.testing.assert_allclose(ops.O1_SB, o1.matrix, atol=1e-12)

    def test_log_hamiltonian_rebuilt_equal_after_a_report(self):
        sys = sample_bipartite(2, 3, 0.4, np.random.default_rng(71))
        correlation_inverse_temperature(sys, 1e-6)
        # After a report, HH_I is built afresh by the free function, equal each time.
        np.testing.assert_array_equal(correlation_log_hamiltonian(sys, 1e-6).operator.matrix,
                                      correlation_log_hamiltonian(sys, 1e-6).operator.matrix)

    def test_report_is_a_plain_value(self):
        sys = sample_bipartite(2, 3, 0.4, np.random.default_rng(71))
        report = correlation_inverse_temperature(sys)
        assert [f.name for f in dataclasses.fields(report)] == [
            "beta_SB", "beta_tilde_S", "beta_tilde_B", "beta_chi", "residual", "C_S", "C_B", "C_chi",
            "K_SB", "b_S", "b_B", "K_chi", "h_SB", "h_I", "h_chi", "U_chi", "S_chi",
            "local_S", "local_B", "clipped"]
        assert not any(isinstance(v, (BipartiteSystem, np.ndarray)) for v in vars(report).values())
        # No placeholder: every field is a number, a local report or the clip flag.
        assert all(math.isfinite(getattr(report, f.name)) for f in dataclasses.fields(report)[:17])
        f = sys.frame
        assert (report.C_S, report.C_B, report.C_chi, report.h_SB, report.h_I, report.h_chi) == (
            f.C_S, f.C_B, f.C_chi, f.h_SB, f.h_I, f.h_chi)
        assert (report.U_chi, report.S_chi) == (binding_energy(sys), mutual_information(sys))
        assert not report.interaction_degenerate

    @pytest.mark.parametrize("clip", [DEFAULT_CLIP, 0.2])
    def test_every_view_reads_one_cached_record(self, clip):
        sys = sample_bipartite(2, 3, 0.4, np.random.default_rng(72))
        report = correlation_inverse_temperature(sys, clip)
        assert verify_universal_relation(sys, clip) is report
        assert correlation_inverse_temperature(sys, clip) is report
        assert tilde_inverse_temperatures(sys, clip) == (report.beta_tilde_S, report.beta_tilde_B)
        assert relation_coefficients(sys) is verify_universal_relation(sys, DEFAULT_CLIP)


class TestUnits:
    def test_two_qubit_weights(self):
        p = TwoQubitXYParams(omega_S=2.0, omega_B=1.0, lam=0.3, beta=1.0)
        sys = build_two_qubit_xy(p)
        h_i = sys.frame.h_I
        assert h_i == pytest.approx(math.sqrt(2.0) * 0.3, rel=1e-10)
        cu = chi_unit(sys)
        assert cu.h_chi == pytest.approx(1.0, abs=1e-12)
        assert cu.overlap_S == pytest.approx(0.0, abs=1e-12)
        assert cu.overlap_B == pytest.approx(0.0, abs=1e-12)
        ops = frame_operators(sys)
        np.testing.assert_allclose(ops.O_chi, ops.O_I, atol=1e-12)

    def test_interaction_unit_normalized(self):
        rng = np.random.default_rng(15)
        sys = sample_bipartite(2, 2, 0.6, rng)
        o_i = frame_operators(sys).O_I
        assert np.trace(o_i).real == pytest.approx(0.0, abs=1e-12)
        assert np.sum(np.abs(o_i) ** 2) == pytest.approx(1.0, rel=1e-12)
        # h_I is the weight of that direction: h_I O_I is the traceless part of H_I_eff.
        hi = sys.effective.H_I_eff.matrix
        np.testing.assert_allclose(sys.frame.h_I * o_i, hi - np.trace(hi) / 4.0 * np.eye(4), atol=1e-12)

    def test_zero_interaction_degenerate(self):
        rng = np.random.default_rng(16)
        sys = sample_bipartite(2, 2, 0.0, rng)
        with pytest.raises(DegenerateDirectionError):
            chi_unit(sys)
        frame, ops = sys.frame, frame_operators(sys)
        assert ops.O_I is None and ops.O_chi is None
        assert (frame.h_I, frame.h_chi, frame.overlap_S, frame.C_chi) == (0.0, 1.0, 0.0, 0.0)

    def test_local_interaction_has_no_chi_direction(self):
        # H_I proportional to a purely local S operator leaves nothing after
        # orthogonalization.
        rng = np.random.default_rng(17)
        rho = DensityMatrix(np.eye(4) / 4.0)
        sys = BipartiteSystem(
            2, 2,
            HermitianOperator(0.7 * SZ), HermitianOperator(0.4 * SZ),
            HermitianOperator(0.2 * tensor_product(SZ, np.eye(2))),
            rho,
        )
        with pytest.raises(NumericalError):
            chi_unit(sys)

    @pytest.mark.parametrize("h_i", [0.3 * np.eye(4), 0.2 * tensor_product(SZ, np.eye(2))])
    @pytest.mark.parametrize("state", ["diagonal", "generic"])
    def test_cancelled_interaction_is_degenerate(self, h_i, state):
        # H_I proportional to I, or local, cancels against its mean-field
        # parts in H_I_eff; rounding can leave a residue of order 1e-17 (it
        # does for the local H_I here), which is no interaction direction.
        if state == "diagonal":
            rho_s, rho_b = np.diag([0.6, 0.4]), np.diag([0.7, 0.3])
        else:
            rng = np.random.default_rng(1)
            rho_s, rho_b = (random_state(2, rng) for _ in range(2))
        sys = BipartiteSystem(
            2, 2,
            HermitianOperator(SZ), HermitianOperator(0.5 * SZ), HermitianOperator(h_i),
            DensityMatrix(tensor_product(rho_s, rho_b)),
        )
        assert sys.frame.h_I == 0.0 and frame_operators(sys).O_I is None
        assert math.isnan(verify_universal_relation(sys).beta_chi)
        with pytest.raises(DegenerateDirectionError):
            correlation_inverse_temperature(sys)

    def test_chi_orthogonality(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            sys = sample_bipartite(2, 3, 0.5, rng)
            ops = frame_operators(sys)
            assert abs(np.sum(ops.O_S_I.conj() * ops.O_chi).real) < 1e-10
            assert abs(np.sum(ops.I_O_B.conj() * ops.O_chi).real) < 1e-10
            assert np.sum(np.abs(ops.O_chi) ** 2) == pytest.approx(1.0, rel=1e-10)


class TestCorrelationTemperature:
    def test_term_by_term_oracle(self):
        # Rebuild the full expression from scratch with raw numpy: effective
        # interaction, orthogonalized direction and log Hamiltonian all
        # recomputed independently, then contracted term by term.
        rng = np.random.default_rng(19)
        for _ in range(15):
            d_s, d_b = 2, 3
            sys = sample_bipartite(d_s, d_b, 0.5, rng)
            rho = sys.rho_SB.matrix
            rho_s = partial_trace(rho, (d_s, d_b), 0)
            rho_b = partial_trace(rho, (d_s, d_b), 1)

            def unit(m):
                d = m.shape[0]
                t = m - (np.trace(m) / d) * np.eye(d)
                h = math.sqrt(np.sum(np.abs(t) ** 2).real)
                return t / h, h

            hi = sys.H_I.matrix
            lamb_s = partial_trace(np.kron(np.eye(d_s), rho_b) @ hi, (d_s, d_b), 0)
            lamb_b = partial_trace(np.kron(rho_s, np.eye(d_b)) @ hi, (d_s, d_b), 1)
            mean = np.trace(np.kron(rho_s, rho_b) @ hi).real
            hi_eff = hi - np.kron(lamb_s, np.eye(d_b)) - np.kron(np.eye(d_s), lamb_b) + mean * np.eye(d_s * d_b)
            o_i, h_i = unit(hi_eff)
            o_s, _ = unit(sys.H_S.matrix + lamb_s)
            o_b, _ = unit(sys.H_B.matrix + lamb_b)
            es, eb = np.kron(o_s, np.eye(d_b)), np.kron(np.eye(d_s), o_b)
            c_s = np.sum(o_i.conj() * es).real
            c_b = np.sum(o_i.conj() * eb).real
            h_chi_sq = 1.0 - c_s**2 / d_b - c_b**2 / d_s

            def logm(m):
                w, v = np.linalg.eigh(m)
                return (v * np.log(w)) @ v.conj().T

            hh = -logm(rho) + np.kron(logm(rho_s), np.eye(d_b)) + np.kron(np.eye(d_s), logm(rho_b))
            t_oi = np.sum(o_i.conj() * hh).real
            t_os = np.sum(es.conj() * hh).real
            t_ob = np.sum(eb.conj() * hh).real
            expected = -(t_oi - c_s * t_os / d_b - c_b * t_ob / d_s) / (h_i * h_chi_sq)

            got = correlation_inverse_temperature(sys).beta_chi
            assert got == pytest.approx(expected, abs=1e-10 * max(1.0, abs(expected)))

    def test_product_state_zero(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            sys = product_system(rng)
            assert abs(correlation_inverse_temperature(sys).beta_chi) < 1e-10

    def test_gibbs_grid_sample(self):
        for beta in (0.2, 1.0, 5.0):
            p = TwoQubitXYParams(omega_S=2.0, omega_B=1.0, lam=0.2, beta=beta)
            sys = build_two_qubit_xy(p)
            report = correlation_inverse_temperature(sys)
            assert report.beta_chi == pytest.approx(-beta, abs=1e-9)

    def test_maximally_entangled_limit(self):
        # Mixing weight p -> 0 drives the correlation temperature to zero
        # from above, so beta_chi grows without bound, monotonically.
        h_s = HermitianOperator(1.0 * SZ / 2.0)
        h_b = HermitianOperator(0.7 * SZ / 2.0)
        h_i = HermitianOperator(0.3 * tensor_product(SX, SX))
        bell = bell_state().matrix
        previous = -math.inf
        for p in (1e-2, 1e-4, 1e-6):
            rho = DensityMatrix((1.0 - p) * bell + p * np.eye(4) / 4.0)
            sys = BipartiteSystem(2, 2, h_s, h_b, h_i, rho)
            beta_chi = correlation_inverse_temperature(sys).beta_chi
            assert beta_chi > previous
            assert beta_chi > 0.0
            previous = beta_chi
        assert previous > 10.0

    def test_report_fields(self):
        rng = np.random.default_rng(21)
        sys = sample_bipartite(2, 2, 0.5, rng)
        report = correlation_inverse_temperature(sys)
        assert report.S_chi >= 0.0
        assert report.h_chi > 0.0
        assert not report.clipped
