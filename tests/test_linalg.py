"""Kernel tests: eigendecomposition, spectral functions, tensor structure.

The eigensolver is checked against an independent characteristic-polynomial
oracle (Faddeev-LeVerrier coefficients plus polynomial root finding) and the
matrix exponential against a plain Taylor series, so no test here trusts the
code path it is testing.
"""

import math
import re
import sys
import threading
import warnings

import numpy as np
import pytest

from neqtemp import linalg
from neqtemp.basis import (
    OperatorBasis,
    StateCoordinates,
    complete_basis,
    expand_state,
    hamiltonian_unit,
    reconstruct_state,
    rotate_tail,
)
from neqtemp.correlation import (
    BipartiteSystem, binding_energy, chi_unit, correlation_inverse_temperature, correlation_log_hamiltonian,
    mutual_information,
)
from neqtemp.exceptions import NumericalError, ValidationError
from neqtemp.io import correlation_report_dict, relation_dict, report_document, temperature_report_dict
from neqtemp.linalg import (
    DensityMatrix,
    HermitianOperator,
    MAX_DIM,
    SpectralDecomposition,
    eig_hermitian,
    hs_inner,
    matrix_exp,
    matrix_log,
    partial_trace,
    tensor_product,
)
from neqtemp.models import (
    TwoQubitXYParams, build_two_qubit_xy, closed_form, gue_sample, sample_bipartite, sample_full_rank, sample_gibbs,
    sample_inverted_pair, sample_passive_pair, sample_pure,
)
from neqtemp.relation import (
    expansion_coefficients, relation_coefficients, tilde_inverse_temperatures, verify_universal_relation,
)
from neqtemp.thermometry import (
    GeneralizedGibbsForm,
    VariationSplit,
    finite_difference_beta,
    generalized_gibbs_decomposition,
    heat_and_work,
    internal_energy,
    inverse_temperature,
    is_passive,
    reconstruct_generalized_gibbs,
    variation_split,
    von_neumann_entropy,
)
from oracles import gue_matrix

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def charpoly_coefficients(a: np.ndarray) -> np.ndarray:
    """Characteristic polynomial coefficients via Faddeev-LeVerrier.

    Returns c with det(xI - A) = x^d + c[0] x^{d-1} + ... + c[d-1], computed
    from traces of powers only; completely independent of any eigensolver.
    """
    d = a.shape[0]
    # Recurrence: M_1 = A, c_1 = -tr M_1; M_k = A (M_{k-1} + c_{k-1} I).
    m = a.copy()
    coeffs = [-np.trace(m)]
    for k in range(2, d + 1):
        m = a @ (m + coeffs[-1] * np.eye(d))
        coeffs.append(-np.trace(m) / k)
    return np.array(coeffs)


class TestEigHermitian:
    def test_pauli_z_spectrum(self):
        spec = eig_hermitian(HermitianOperator(SZ))
        np.testing.assert_allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_charpoly_root_oracle(self):
        # Eigenvalues must be the roots of the characteristic polynomial
        # computed by a completely unrelated method.
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = gue_matrix(5, rng)
            spec = eig_hermitian(HermitianOperator(a))
            coeffs = charpoly_coefficients(a)
            roots = np.sort(np.roots(np.concatenate(([1.0 + 0j], coeffs))).real)
            np.testing.assert_allclose(spec.eigenvalues, roots, atol=1e-9)

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        a = gue_matrix(6, rng)
        spec = eig_hermitian(HermitianOperator(a))
        np.testing.assert_allclose(spec.apply(lambda x: x), a, atol=1e-12)

    def test_ascending_order(self):
        rng = np.random.default_rng(4)
        spec = eig_hermitian(HermitianOperator(gue_matrix(7, rng)))
        assert np.all(np.diff(spec.eigenvalues) >= 0)


class TestHermitianOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            HermitianOperator(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            HermitianOperator(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_oversized(self):
        with pytest.raises(ValidationError):
            HermitianOperator(np.eye(MAX_DIM + 1))

    def test_symmetrizes_small_residue(self):
        a = np.array([[1.0, 1e-12j], [0.0, 2.0]])
        op = HermitianOperator(a)
        np.testing.assert_allclose(op.matrix, op.matrix.conj().T)

    def test_matrix_is_frozen(self):
        op = HermitianOperator(SZ)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0

    def test_computed_operator_matches_public_symmetrization(self):
        rng = np.random.default_rng(31)
        a = gue_matrix(5, rng) + 1e-13 * (rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        op = HermitianOperator._of_computed(a.copy())
        assert np.array_equal(op.matrix, HermitianOperator(a).matrix)
        assert np.array_equal(op.matrix, op.matrix.conj().T)
        assert not op.matrix.flags.writeable

    def test_computed_operator_rejects_nonfinite(self):
        with pytest.raises(NumericalError):
            HermitianOperator._of_computed(np.array([[np.inf, 0.0], [0.0, 1.0]], dtype=complex))


class TestDensityMatrix:
    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_clips_tiny_negative(self):
        rho = DensityMatrix(np.diag([1.0 + 5e-11, -5e-11]))
        assert rho.eigenvalues[0] == 0.0
        assert rho.rank == 1

    def test_stored_matrix_from_reconstruction(self, monkeypatch):
        # The Gram check and the reconstruction check are the only d^3
        # products: the stored matrix is derived from the reconstruction.
        shapes = []
        product = linalg._matmul
        monkeypatch.setattr(linalg, "_matmul", lambda a, b: shapes.append(a.shape + b.shape) or product(a, b))
        rng = np.random.default_rng(17)
        g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        DensityMatrix(g @ g.conj().T / np.trace(g @ g.conj().T).real)
        assert shapes == [(6, 6, 6, 6)] * 2

    def test_clipped_eigenvalues_leave_stored_matrix(self):
        # Eigenvalues in [-PSD_TOL, 0) are removed from the reconstruction as
        # a rank-k term: the stored matrix is the clipped spectrum, rebuilt.
        rng = np.random.default_rng(18)
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        w = np.array([-5e-11, -2e-11, 0.2, 0.3, 0.5 + 7e-11])
        rho = DensityMatrix((q * w) @ q.conj().T)
        assert list(rho.eigenvalues[:2]) == [0.0, 0.0] and rho.rank == 3
        v = rho.spectrum.eigenvectors
        np.testing.assert_allclose(rho.matrix, (v * rho.eigenvalues) @ v.conj().T, atol=1e-15)
        assert np.linalg.eigvalsh(rho.matrix)[0] > -1e-15

    @pytest.mark.parametrize("d", [2, 3, 8, 64])
    def test_diagonal_matrix_resolves_tiny_populations(self, d):
        # An exactly diagonal matrix's eigenvalues are its diagonal entries,
        # so populations far below the eigensolver noise floor are resolved;
        # the same spectrum in a rotated basis keeps the floor.
        p = np.full(d, 1e-17)
        p[-1] = 1.0 - (d - 1) * 1e-17
        rho = DensityMatrix(np.diag(p))
        assert rho.resolved_rank == d and rho.rank == 1
        assert rho.eigenvalues[0] == pytest.approx(1e-17, rel=1e-12)
        q, _ = np.linalg.qr(np.random.default_rng(d).normal(size=(d, d)))
        assert DensityMatrix((q * p) @ q.T).resolved_rank == 1

    def test_from_spectrum_matches_matrix_path(self):
        rng = np.random.default_rng(9)
        p = rng.dirichlet(np.ones(4))
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        a = DensityMatrix((q * p) @ q.conj().T)
        b = DensityMatrix.from_spectrum(p, q)
        np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-12)
        np.testing.assert_allclose(a.eigenvalues, b.eigenvalues, atol=1e-12)

    def test_from_spectrum_sorts(self):
        rho = DensityMatrix.from_spectrum([0.7, 0.3], np.eye(2))
        np.testing.assert_allclose(rho.eigenvalues, [0.3, 0.7])

    def test_from_spectrum_keeps_tiny_populations_exact(self):
        # Exact spectral input must survive with full relative precision; a
        # round trip through the assembled matrix cannot guarantee that.
        tiny = 1e-14
        rho = DensityMatrix.from_spectrum([1.0 - tiny, tiny], np.eye(2))
        assert rho.eigenvalues[0] == pytest.approx(tiny, rel=1e-12)

    @pytest.mark.parametrize(
        "w,v", [([0.3, 0.7], 2.0 * np.eye(2)), ([np.nan, 1.0], np.eye(2))]
    )
    def test_from_spectrum_checks_its_input(self, w, v):
        with pytest.raises(ValidationError):
            DensityMatrix.from_spectrum(w, v)

    def test_rank(self):
        assert DensityMatrix(np.diag([1.0, 0.0])).rank == 1
        assert DensityMatrix(np.diag([0.5, 0.5])).rank == 2


class TestSpectralDecomposition:
    def test_rejects_unsorted(self):
        with pytest.raises(ValidationError):
            SpectralDecomposition([1.0, 0.0], np.eye(2))

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            SpectralDecomposition([0.0, 1.0], 2.0 * np.eye(2))

    @pytest.mark.parametrize("w", [[np.nan, 1.0], [1.0, np.inf]])
    def test_rejects_non_finite_eigenvalues(self, w):
        with pytest.raises(ValidationError, match="finite"):
            SpectralDecomposition(w, np.eye(2))

    def test_clusters_and_projectors(self):
        spec = SpectralDecomposition([0.0, 0.0, 1.0], np.eye(3))
        assert spec.clusters().tolist() == [0, 0, 1]


class TestMatrixFunctions:
    def test_exp_taylor_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            a = 0.5 * gue_matrix(4, rng)
            expm = matrix_exp(HermitianOperator(a)).matrix
            term = np.eye(4, dtype=complex)
            total = term.copy()
            for k in range(1, 40):
                term = term @ a / k
                total += term
            np.testing.assert_allclose(expm, total, atol=1e-12)

    def test_exp_overflow_guard(self):
        with pytest.raises(NumericalError):
            matrix_exp(HermitianOperator(np.diag([0.0, 800.0])))

    def test_log_exact_on_full_rank(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]))
        out = matrix_log(rho, 1e-300)
        assert not out.clipped
        np.testing.assert_allclose(
            out.operator.matrix, np.diag([math.log(0.25), math.log(0.75)]), atol=1e-14
        )

    def test_log_flags_clipping(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        out = matrix_log(rho, 1e-15)
        assert out.clipped
        assert out.operator.matrix[1, 1].real == pytest.approx(math.log(1e-15))

    def test_log_exp_round_trip(self):
        rng = np.random.default_rng(5)
        p = rng.dirichlet(np.ones(3)) + 0.05
        p /= p.sum()
        rho = DensityMatrix.from_spectrum(p, np.eye(3))
        back = matrix_exp(matrix_log(rho, 1e-300).operator)
        np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-12)

    def test_log_cached_per_clip(self):
        rho = DensityMatrix(np.diag([0.7, 0.2, 0.1]))
        log = matrix_log(rho, 1e-300)
        assert matrix_log(rho, 1e-300) is log
        assert not log.clipped
        clipped = matrix_log(rho, 0.15)
        assert clipped is not log
        assert clipped.clipped
        assert matrix_log(rho, 0.15) is clipped
        np.testing.assert_allclose(np.diag(clipped.operator.matrix).real, np.log([0.7, 0.2, 0.15]))
        assert matrix_log(rho, 1e-300) is log
        # Another state with the same matrix computes its own.
        assert matrix_log(DensityMatrix(rho.matrix), 1e-300) is not log

    def test_log_cache_shared_across_threads(self):
        # Threads racing on a state's first log all get the one cached object.
        states = [DensityMatrix(np.diag([0.5, 0.3, 0.2])) for _ in range(20)]
        barrier = threading.Barrier(8)
        out = [[] for _ in states]

        def worker():
            for rho, logs in zip(states, out):
                barrier.wait(timeout=10)
                logs.append(matrix_log(rho, 1e-300))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        for logs in out:
            assert len(logs) == 8
            assert all(log is logs[0] for log in logs)

    def test_log_rejects_bad_clip(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        for clip in (0.0, math.inf):
            with pytest.raises(ValidationError):
                matrix_log(rho, clip)


class TestTensorAndPartialTrace:
    def test_kron_indexing(self):
        a = np.arange(4, dtype=complex).reshape(2, 2)
        b = np.eye(2, dtype=complex)
        t = tensor_product(a, b)
        # Row index is i_A * d_B + i_B.
        assert t[0, 2] == a[0, 1]
        assert t[1, 3] == a[0, 1]

    def test_bell_marginal_is_maximally_mixed(self):
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1.0 / math.sqrt(2.0)
        bell = np.outer(phi, phi.conj())
        for keep in (0, 1):
            np.testing.assert_allclose(
                partial_trace(bell, (2, 2), keep), np.eye(2) / 2.0, atol=1e-14
            )

    def test_partial_trace_of_product(self):
        rng = np.random.default_rng(8)
        a = gue_matrix(2, rng)
        b = gue_matrix(3, rng)
        m = tensor_product(a, b)
        np.testing.assert_allclose(
            partial_trace(m, (2, 3), keep=0), a * np.trace(b), atol=1e-12
        )
        np.testing.assert_allclose(
            partial_trace(m, (2, 3), keep=1), b * np.trace(a), atol=1e-12
        )

    def test_partial_trace_preserves_trace(self):
        rng = np.random.default_rng(13)
        m = gue_matrix(6, rng)
        for keep in (0, 1):
            assert np.trace(partial_trace(m, (2, 3), keep)) == pytest.approx(
                np.trace(m).real, abs=1e-12
            )

    def test_partial_trace_validates(self):
        with pytest.raises(ValidationError):
            partial_trace(np.eye(5), (2, 3), keep=0)
        with pytest.raises(ValidationError):
            partial_trace(np.eye(6), (2, 3), keep=2)

    @pytest.mark.parametrize("d_s,d_b", [(2, 3), (3, 2)])
    @pytest.mark.parametrize("joint", [False, True])
    def test_local_sum_matches_kron(self, d_s, d_b, joint):
        rng = np.random.default_rng(10 * d_s + d_b)
        a, b, m = gue_matrix(d_s, rng), gue_matrix(d_b, rng), gue_matrix(d_s * d_b, rng)
        m_before = m.copy()
        out = linalg._local_sum(a, b, m if joint else None)
        expected = np.kron(a, np.eye(d_b)) + np.kron(np.eye(d_s), b) + (m if joint else 0.0)
        assert out.dtype == complex and out.shape == (d_s * d_b, d_s * d_b)
        np.testing.assert_allclose(out, expected, rtol=0.0, atol=1e-15)
        np.testing.assert_array_equal(m, m_before)
        assert not np.shares_memory(out, m)


class TestHsInner:
    def test_matches_trace_formula(self):
        rng = np.random.default_rng(17)
        a, b = gue_matrix(4, rng), gue_matrix(4, rng)
        expected = np.trace(a.conj().T @ b).real
        assert hs_inner(a, b) == pytest.approx(expected, rel=1e-13)

    def test_pauli_orthogonality(self):
        assert hs_inner(SX, SY) == pytest.approx(0.0, abs=1e-14)
        assert hs_inner(SX, SX) == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            hs_inner(np.eye(2), np.eye(3))


def _accepted(build, exc):
    """Probe that reports whether ``build(x)`` passes its check or raises ``exc``."""
    def probe(x):
        try:
            build(x)
        except exc:
            return False
        return True
    return probe


def _passive_across_gap(x):
    """Populations inverted across the gap x: passive only if x counts as degenerate."""
    rho = DensityMatrix.from_spectrum([0.5, 0.2, 0.3], np.eye(3))
    return is_passive(rho, HermitianOperator(np.diag([0.0, 1.0, 1.0 + x])))


#: (probe, inside, outside): each fixed threshold holds at today's value.
THRESHOLD_BOUNDARIES = {
    "hermiticity": (
        _accepted(lambda x: HermitianOperator([[1.0, 0.1 + x], [0.1, 0.0]]), ValidationError),
        5e-11, 2e-10,
    ),
    "trace": (
        _accepted(lambda x: DensityMatrix(np.diag([0.5 + x, 0.5])), ValidationError),
        5e-11, 2e-10,
    ),
    "psd": (
        _accepted(lambda x: DensityMatrix.from_spectrum([-x, 1.0 + x], np.eye(2)), ValidationError),
        5e-11, 2e-10,
    ),
    "unitarity": (
        _accepted(
            lambda x: SpectralDecomposition([0.0, 1.0], np.diag([math.sqrt(1.0 + x), 1.0])),
            ValidationError,
        ),
        5e-11, 2e-10,
    ),
    "rank": (
        lambda x: DensityMatrix.from_spectrum([x, 1.0 - x], np.eye(2)).rank == 2,
        2e-12, 5e-13,
    ),
    "degeneracy": (_passive_across_gap, 5e-10, 2e-9),
    "hs_inner imaginary residue": (
        _accepted(lambda x: hs_inner(np.eye(2), np.diag([0.5, 0.5 + 1j * x])), NumericalError),
        5e-11, 2e-10,
    ),
}


@pytest.mark.parametrize("name", list(THRESHOLD_BOUNDARIES))
def test_threshold_boundary(name):
    probe, inside, outside = THRESHOLD_BOUNDARIES[name]
    assert probe(inside)
    assert not probe(outside)


def _bipartite(H_S, rho_SB):
    return BipartiteSystem(2, 2, H_S, np.diag([1.0, -1.0]), np.zeros((4, 4)), rho_SB)


_XY_PARAMS = {"omega_S": 2.0, "omega_B": 1.0, "lam": 0.2, "beta": 1.0}


def _report_after_clip_1(clip):
    """The relation report at ``clip`` of a system that already holds its report at clip 1.0."""
    sys_ = build_two_qubit_xy(TwoQubitXYParams(**_XY_PARAMS))
    verify_universal_relation(sys_, 1.0)
    return verify_universal_relation(sys_, clip)


#: Library inputs that are not numbers, not a spectrum or not a state.
MALFORMED_INPUTS = {
    "string matrix": lambda: HermitianOperator("ab"),
    "non-numeric entries": lambda: HermitianOperator([["1", "x"], ["0", "1"]]),
    "ragged rows": lambda: HermitianOperator([[1, 2], [3]]),
    "empty spectrum": lambda: DensityMatrix.from_spectrum([], np.zeros((0, 0))),
    "non-numeric eigenvalues": lambda: SpectralDecomposition(["a"], np.eye(1)),
    "non-numeric rotation": lambda: rotate_tail(complete_basis(2, []), "x"),
    "rotation of a dimension-1 basis": lambda: rotate_tail(complete_basis(1, []), np.zeros((0, 0))),
    "non-matrix basis members": lambda: OperatorBasis(2, [object()] * 4),
    "raw temperature state": lambda: inverse_temperature(np.diag([0.5, 0.5]), np.diag([1.0, -1.0])),
    "raw bipartite state": lambda: _bipartite(np.eye(2), np.eye(4) / 4.0),
    "3-d operator": lambda: HermitianOperator(np.zeros((2, 2, 2))),
    "empty operator": lambda: HermitianOperator(np.zeros((0, 0))),
    "spectrum size mismatch": lambda: SpectralDecomposition([0.0, 1.0], np.eye(3)),
    "spectrum trace below 1": lambda: DensityMatrix.from_spectrum([0.3, 0.3], np.eye(2)),
    "tensor product over the cap": lambda: tensor_product(np.eye(33), np.eye(32)),
    "zero factor dimension": lambda: partial_trace(np.eye(4), (0, 4), 0),
    "bipartite factor below 2": lambda: BipartiteSystem(
        1, 2, np.eye(1), np.eye(2), np.eye(2), DensityMatrix(np.eye(2) / 2.0)),
    "bipartite H_I dimension": lambda: BipartiteSystem(
        2, 2, np.eye(2), np.eye(2), np.eye(3), DensityMatrix(np.eye(4) / 4.0)),
    "seed dimension": lambda: complete_basis(2, [np.diag([1.0, 0.0, -1.0]) / math.sqrt(2.0)]),
    "equal seeds": lambda: complete_basis(2, [np.diag([1.0, -1.0]) / math.sqrt(2.0)] * 2),
    "expand_state dimension": lambda: expand_state(DensityMatrix(np.eye(3) / 3.0), complete_basis(2, [])),
    "reconstruct_state size": lambda: reconstruct_state(StateCoordinates([0.5, 0.0]), complete_basis(2, [])),
    "basis member shape": lambda: OperatorBasis(2, np.zeros((4, 3, 3))),
    "all-NaN basis": lambda: OperatorBasis(2, np.full((4, 2, 2), np.nan)),
    # Finite entries whose sum A + A^dag overflows.
    "overflowing operator": lambda: HermitianOperator(np.full((2, 2), 1e308)),
    "overflowing basis": lambda: OperatorBasis(2, np.full((4, 2, 2), 1e308)),
    "is_passive dimension": lambda: is_passive(DensityMatrix(np.eye(2) / 2.0), np.eye(3)),
    "variation_split dimension": lambda: variation_split(DensityMatrix(np.eye(2) / 2.0), np.zeros((3, 3))),
    "passive pair below 2": lambda: sample_passive_pair(1, np.random.default_rng(0)),
    "fractional bipartite dims": lambda: BipartiteSystem(
        2.9, 2.2, np.eye(2), np.eye(2), np.eye(4), DensityMatrix(np.eye(4) / 4.0)),
    "fractional partial_trace dims": lambda: partial_trace(np.eye(4), (2.7, 2.2), 0),
    "fractional basis dimension": lambda: complete_basis(2.5, []),
    "bool basis dimension": lambda: complete_basis(True, []),
    "bool passive pair dimension": lambda: sample_passive_pair(True, np.random.default_rng(0)),
    # A tolerance no comparison can fail, or none can pass.
    "NaN tol_herm": lambda: HermitianOperator(np.array([[0, 1], [0, 0]]), tol_herm=float("nan")),
    "infinite tol_herm": lambda: HermitianOperator(np.array([[0, 1], [0, 0]]), tol_herm=float("inf")),
    "negative tol_herm": lambda: HermitianOperator(np.eye(2), tol_herm=-1.0),
    # Scalars that are not real numbers, held to one rule with the tolerance's bounds.
    "string tol_herm": lambda: HermitianOperator(np.eye(2), tol_herm="x"),
    "None tol_herm": lambda: HermitianOperator(np.eye(2), tol_herm=None),
    "list tol_herm": lambda: HermitianOperator(np.eye(2), tol_herm=[1e-10]),
    "bool tol_herm": lambda: HermitianOperator(np.eye(2), tol_herm=True),
    "string clip": lambda: inverse_temperature(DensityMatrix(np.diag([0.3, 0.7])), np.diag([1.0, -1.0]), "x"),
    "string step": lambda: finite_difference_beta(
        DensityMatrix(np.diag([0.3, 0.7])), SZ, complete_basis(2, [hamiltonian_unit(SZ)[0]]), step="x"),
    # A raw state and a raw matrix for a basis.
    "raw expand_state state": lambda: expand_state(np.eye(2) / 2.0, complete_basis(2, [])),
    "non-basis": lambda: generalized_gibbs_decomposition(
        DensityMatrix(np.diag([0.1, 0.2, 0.3, 0.4])), np.diag([1.0, 2.0, 3.0, 4.0]), np.eye(4)),
    # Sampler dimensions meet the one dimension rule.
    "fractional pure-state dimension": lambda: sample_pure(2.5, np.random.default_rng(0)),
    "zero full-rank dimension": lambda: sample_full_rank(0, np.random.default_rng(0)),
    "fractional GUE dimension": lambda: gue_sample(2.5, np.random.default_rng(0)),
    # An operator of another dimension than the state or basis it pairs with.
    "heat_and_work Hamiltonian dimension": lambda: heat_and_work(
        DensityMatrix(np.eye(2) / 2.0), np.zeros((2, 2)), np.eye(3), np.eye(3)),
    "heat_and_work dH dimension": lambda: heat_and_work(
        DensityMatrix(np.eye(2) / 2.0), np.zeros((2, 2)), SZ, np.eye(3)),
    "finite_difference_beta Hamiltonian dimension": lambda: finite_difference_beta(
        DensityMatrix(np.diag([0.3, 0.7])), np.diag([1.0, 0.0, -1.0]),
        complete_basis(3, [hamiltonian_unit(np.diag([1.0, 0.0, -1.0]))[0]]), 1e-5),
    "generalized-Gibbs form of another dimension": lambda: reconstruct_generalized_gibbs(
        GeneralizedGibbsForm(0.5, np.zeros(2), 0.0), np.diag([1.0, 0.0, -1.0]),
        complete_basis(3, [hamiltonian_unit(np.diag([1.0, 0.0, -1.0]))[0]])),
    "generalized-Gibbs coefficient count": lambda: reconstruct_generalized_gibbs(
        GeneralizedGibbsForm(0.5, np.zeros(1), 0.0), SZ, complete_basis(2, [hamiltonian_unit(SZ)[0]])),
    # A raw matrix for a basis.
    "non-basis expand_state": lambda: expand_state(DensityMatrix(np.eye(4) / 4.0), np.eye(4)),
    "non-basis reconstruct_state": lambda: reconstruct_state(StateCoordinates([0.5, 0.0, 0.0, 0.0]), np.eye(4)),
    "non-basis rotate_tail": lambda: rotate_tail(np.eye(4), np.eye(2)),
    # Model parameters and sampler scalars meet the scalar rule.
    "string coupling": lambda: TwoQubitXYParams(omega_S=2.0, omega_B=1.0, lam="x", beta=1.0),
    "None model beta": lambda: TwoQubitXYParams(omega_S=2.0, omega_B=1.0, lam=0.2, beta=None),
    "bool coupling": lambda: TwoQubitXYParams(omega_S=2.0, omega_B=1.0, lam=True, beta=1.0),
    "string Gibbs beta": lambda: sample_gibbs(2, "x", np.random.default_rng(0)),
    "string coupling_scale": lambda: sample_bipartite(2, 2, "x", np.random.default_rng(0)),
    # An argument of a package type that is not an instance of it.
    "binding_energy of a matrix": lambda: binding_energy(np.eye(4)),
    "mutual_information of a matrix": lambda: mutual_information(np.eye(4)),
    "correlation_log_hamiltonian of a matrix": lambda: correlation_log_hamiltonian(np.eye(4)),
    "chi_unit of a matrix": lambda: chi_unit(np.eye(4)),
    "correlation_inverse_temperature of a matrix": lambda: correlation_inverse_temperature(np.eye(4)),
    "verify_universal_relation of a matrix": lambda: verify_universal_relation(np.eye(4)),
    "relation_coefficients of a matrix": lambda: relation_coefficients(np.eye(4)),
    "tilde_inverse_temperatures of a matrix": lambda: tilde_inverse_temperatures(np.eye(4)),
    "expansion_coefficients of a matrix": lambda: expansion_coefficients(np.eye(4)),
    "gue_sample of a seed": lambda: gue_sample(2, 0),
    "sample_gibbs without a generator": lambda: sample_gibbs(2, 1.0, None),
    "sample_passive_pair without a generator": lambda: sample_passive_pair(2, None),
    "sample_inverted_pair without a generator": lambda: sample_inverted_pair(2, None),
    "sample_pure without a generator": lambda: sample_pure(2, None),
    "sample_full_rank without a generator": lambda: sample_full_rank(2, None),
    "sample_bipartite without a generator": lambda: sample_bipartite(2, 2, 0.5, None),
    "build_two_qubit_xy of a dict": lambda: build_two_qubit_xy(_XY_PARAMS),
    "closed_form of a dict": lambda: closed_form(_XY_PARAMS),
    "reconstruct_state of a list": lambda: reconstruct_state([0.5, 0.0, 0.0, 0.0], complete_basis(2, [])),
    "reconstruct_generalized_gibbs of a dict": lambda: reconstruct_generalized_gibbs(
        {"beta": 1.0}, SZ, complete_basis(2, [hamiltonian_unit(SZ)[0]])),
    # A clip is checked before a cached report is looked up: True == 1.0 and a list is unhashable.
    "cached report at a bool clip": lambda: _report_after_clip_1(True),
    "list clip": lambda: _report_after_clip_1([1]),
    # Value types hold their fields to the scalar rule and finite real arrays.
    "string generalized-Gibbs beta": lambda: GeneralizedGibbsForm("x", np.zeros(2), 0.0),
    "NaN generalized-Gibbs beta": lambda: GeneralizedGibbsForm(math.nan, np.zeros(2), 0.0),
    "infinite generalized-Gibbs coefficient": lambda: GeneralizedGibbsForm(0.5, [math.inf, 0.0], 0.0),
    "string coordinates": lambda: StateCoordinates("x"),
    # A coefficient or coordinate array of rank 2, whose size can still fit a basis.
    "2-d generalized-Gibbs coefficients": lambda: GeneralizedGibbsForm(1.0, np.zeros((1, 2)), 0.0),
    "2-d coordinates": lambda: StateCoordinates(np.zeros((2, 2))),
    "NaN coordinates": lambda: reconstruct_state(StateCoordinates([math.nan] * 4), complete_basis(2, [])),
    # Containers and indices of the wrong kind.
    "None seeds": lambda: complete_basis(2, None),
    "None partial_trace dims": lambda: partial_trace(np.eye(4), None, 0),
    "float keep": lambda: partial_trace(np.eye(4), (2, 2), 0.0),
    "bool keep": lambda: partial_trace(np.eye(4), (2, 2), True),
    # A serializer reads only its report type, and a report only its document.
    "temperature_report_dict of None": lambda: temperature_report_dict(None),
    "correlation_report_dict of a matrix": lambda: correlation_report_dict(np.eye(2)),
    "relation_dict of a dict": lambda: relation_dict({}),
    "report_document of None": lambda: report_document(None, {}),
}


@pytest.mark.parametrize("name", list(MALFORMED_INPUTS))
def test_malformed_input_is_a_validation_error(name):
    with pytest.raises(ValidationError):
        MALFORMED_INPUTS[name]()


@pytest.mark.parametrize("name", [name for name in MALFORMED_INPUTS if name.endswith(" tol_herm")])
def test_unchecked_tol_herm_is_named(name):
    with pytest.raises(ValidationError, match=r"^tol_herm must be a finite number of at least 0, got "):
        MALFORMED_INPUTS[name]()


@pytest.mark.parametrize("name", ["fractional pure-state dimension", "zero full-rank dimension", "fractional GUE dimension"])
def test_sampler_dimension_is_named(name):
    with pytest.raises(ValidationError, match=r"^dimension must be an integer of at least 1, got "):
        MALFORMED_INPUTS[name]()


@pytest.mark.parametrize("name,message", [
    ("heat_and_work Hamiltonian dimension", "Hamiltonian dimension mismatch: 3, expected 2"),
    ("heat_and_work dH dimension", "Hamiltonian variation dimension mismatch: 3, expected 2"),
    ("finite_difference_beta Hamiltonian dimension", "Hamiltonian dimension mismatch: 3, expected 2"),
    ("is_passive dimension", "Hamiltonian dimension mismatch: 3, expected 2"),
    ("variation_split dimension", "variation dimension mismatch: 3, expected 2"),
    ("expand_state dimension", "state dimension mismatch: 3, expected 2"),
    ("seed dimension", "seed dimension mismatch: 3, expected 2"),
    ("bipartite H_I dimension", "H_I dimension mismatch: 3, expected 4"),
])
def test_dimension_mismatch_names_the_argument(name, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        MALFORMED_INPUTS[name]()


@pytest.mark.parametrize("name,message", [
    ("verify_universal_relation of a matrix", "expected a BipartiteSystem, got ndarray"),
    ("sample_bipartite without a generator", "expected a Generator, got NoneType"),
    ("closed_form of a dict", "expected a TwoQubitXYParams, got dict"),
    ("reconstruct_state of a list", "expected a StateCoordinates, got list"),
    ("reconstruct_generalized_gibbs of a dict", "expected a GeneralizedGibbsForm, got dict"),
    ("raw expand_state state", "expected a DensityMatrix, got ndarray"),
    ("non-basis expand_state", "expected an OperatorBasis, got ndarray"),
    ("temperature_report_dict of None", "expected a TemperatureReport, got NoneType"),
    ("report_document of None", "expected an InputDocument, got NoneType"),
])
def test_type_mismatch_names_the_type(name, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        MALFORMED_INPUTS[name]()


NOT_ORTHONORMAL = {
    "eigenvector matrix not unitary: deviation 1.000e-01":
        lambda: SpectralDecomposition([0.0, 1.0], [[1.0, 0.1], [0.0, 1.0]]),
    "rotation matrix is not orthogonal: deviation 2.100e-01":
        lambda: rotate_tail(complete_basis(2, []), np.diag([1.0, 1.1])),
    "basis operators are not HS-orthonormal: Gram deviation 2.100e-01":
        lambda: OperatorBasis(2, complete_basis(2, []).mats * [[[1.0]], [[1.0]], [[1.1]], [[1.0]]]),
}


@pytest.mark.parametrize("message", list(NOT_ORTHONORMAL))
def test_one_orthonormality_rule(monkeypatch, message):
    # Eigenvectors, basis rows and tail rotations are held to UNITARY_TOL by linalg._check_unitary alone.
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        NOT_ORTHONORMAL[message]()
    monkeypatch.setattr(linalg, "UNITARY_TOL", 0.25)
    NOT_ORTHONORMAL[message]()


def test_non_finite_gram_fails_the_orthonormality_rule():
    with pytest.raises(ValidationError, match="^x nan$"):
        linalg._check_unitary(np.array([[math.nan]]), np.array([[1.0]]), "x")


def test_rotation_of_a_dimension_1_basis_is_named():
    # A d = 1 basis is I alone: the refusal comes before R is read.
    with pytest.raises(ValidationError, match=r"^a basis of dimension 1 has no basis\[1\] and no tail to rotate$"):
        MALFORMED_INPUTS["rotation of a dimension-1 basis"]()


def test_zero_tol_herm_means_exact_hermiticity():
    np.testing.assert_array_equal(HermitianOperator(np.diag([1.0, -1.0]), tol_herm=0.0).matrix, np.diag([1.0, -1.0]))
    with pytest.raises(ValidationError, match="not Hermitian"):
        HermitianOperator(np.array([[0.0, 1.0], [1.0 + 1e-15, 0.0]]), tol_herm=0.0)


#: Calls that take a scalar, each with a value that float16 holds too: a clip, a model frequency, a step.
NUMPY_SCALAR_CALLS = {
    "matrix_log clip": (1e-4, lambda x: matrix_log(DensityMatrix(np.diag([0.3, 0.7])), x).operator.matrix),
    "inverse_temperature clip": (1e-4, lambda x: inverse_temperature(DensityMatrix(np.diag([0.3, 0.7])), SZ, x).beta),
    "TwoQubitXYParams omega_S": (2.0, lambda x: TwoQubitXYParams(x, 1.0, 0.2, 1.0).omega_S),
    "finite_difference_beta step": (1e-4, lambda x: finite_difference_beta(
        DensityMatrix(np.diag([0.3, 0.7])), SZ, complete_basis(2, [hamiltonian_unit(SZ)[0]]), x)),
}


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
@pytest.mark.parametrize("name", list(NUMPY_SCALAR_CALLS))
def test_numpy_float_scalars_are_numbers(name, dtype):
    # Compared with the largest double, a float16 or float32 would cast it to its own type and overflow.
    value, call = NUMPY_SCALAR_CALLS[name]
    x = dtype(value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = call(x)
    np.testing.assert_array_equal(got, call(float(x)))


def test_numpy_integer_dimensions_are_dimensions():
    d = np.int64(2)
    rho = DensityMatrix(np.eye(4) / 4.0)
    np.testing.assert_array_equal(partial_trace(rho, (d, d), 0), partial_trace(rho, (2, 2), 0))
    system = BipartiteSystem(d, d, np.diag([1.0, -1.0]), np.diag([1.0, -1.0]), np.eye(4), rho)
    assert (type(system.d_S), system.dim) == (int, 4)
    np.testing.assert_array_equal(complete_basis(np.int64(3), []).mats, complete_basis(3, []).mats)
    for sample in (gue_sample, sample_pure, sample_full_rank):
        np.testing.assert_array_equal(sample(np.int64(3), np.random.default_rng(5)).matrix,
                                      sample(3, np.random.default_rng(5)).matrix)


_DRHO = np.array([[0.0, 0.1], [0.1, 0.0]])

#: The other public thermometry calls, given a state and a maker for their operators.
THERMOMETRY_CALLS = {
    "von_neumann_entropy": lambda rho, op: von_neumann_entropy(rho),
    "internal_energy": lambda rho, op: internal_energy(rho, op(SZ)),
    "is_passive": lambda rho, op: is_passive(rho, op(SZ)),
    "variation_split": lambda rho, op: variation_split(rho, op(_DRHO)),
    "heat_and_work": lambda rho, op: heat_and_work(rho, op(_DRHO), op(SZ), op(0.1 * SX)),
}


@pytest.mark.parametrize("name", list(THERMOMETRY_CALLS))
def test_thermometry_raw_arguments(name):
    """A raw Hermitian operator gets the validated operator's answer; a raw state is refused."""
    call = THERMOMETRY_CALLS[name]

    def values(result):
        if isinstance(result, VariationSplit):
            return result.d_ev.matrix.tolist(), result.d_ep.matrix.tolist()
        return result

    rho = DensityMatrix(np.diag([0.3, 0.7]))
    assert values(call(rho, np.asarray)) == values(call(rho, HermitianOperator))
    with pytest.raises(ValidationError, match="expected a DensityMatrix"):
        call(np.diag([0.3, 0.7]), HermitianOperator)


def test_raw_hamiltonians_are_validated_operators():
    rho = DensityMatrix(np.diag([0.3, 0.7]))
    assert inverse_temperature(rho, np.diag([1.0, -1.0])) == inverse_temperature(rho, HermitianOperator(SZ))
    rho_SB = DensityMatrix(np.kron(np.diag([0.3, 0.7]), np.diag([0.4, 0.6])))
    raw, ops = _bipartite(SZ, rho_SB), _bipartite(HermitianOperator(SZ), rho_SB)
    assert isinstance(raw.H_I, HermitianOperator)
    assert inverse_temperature(raw.rho_S, raw.effective.H_S_eff) == inverse_temperature(ops.rho_S, ops.effective.H_S_eff)
    with pytest.raises(ValidationError, match="not Hermitian"):
        _bipartite(np.array([[0.0, 1.0], [0.0, 0.0]]), rho_SB)
