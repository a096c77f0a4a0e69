"""Single-system temperature tests.

The inverse temperature is checked against a from-scratch spectral-sum
oracle (raw numpy eigendecompositions, explicit covariance loops) so the
library's two internal routes are validated by a third, independent one.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from neqtemp.basis import complete_basis, hamiltonian_unit
from neqtemp.exceptions import (
    DegenerateDirectionError,
    NumericalError,
    RankDeficiencyError,
    StepTooLargeError,
    UndefinedQuantityError,
    ValidationError,
)
from neqtemp.linalg import DEGENERACY_TOL, DensityMatrix, HermitianOperator, tensor_product
from neqtemp.models import sample_gibbs
from neqtemp.thermometry import (
    GeneralizedGibbsForm,
    finite_difference_beta,
    generalized_gibbs_decomposition,
    heat_and_work,
    helmholtz_free_energy,
    internal_energy,
    inverse_temperature,
    is_passive,
    reconstruct_generalized_gibbs,
    variation_split,
    von_neumann_entropy,
)
from oracles import passive_by_blocks, passive_by_diff

SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def gue(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return HermitianOperator((g + g.conj().T) / 2.0)


def full_rank(d, rng, floor=0.05):
    p = rng.dirichlet(np.ones(d)) + floor
    p /= p.sum()
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return DensityMatrix.from_spectrum(p, q)


def beta_spectral_sum_oracle(rho_matrix, h_matrix):
    """Independent beta: raw eigendecompositions and explicit moment sums.

    beta = Cov(H, -log rho)/Var(H) with moments w.r.t. I/d, written as double
    sums over both eigenbases with |<e_i|f_j>|^2 weights; shares no code with
    the implementation under test.
    """
    d = rho_matrix.shape[0]
    pw, pv = np.linalg.eigh(rho_matrix)
    hw, hv = np.linalg.eigh(h_matrix)
    overlap = np.abs(pv.conj().T @ hv) ** 2  # overlap[i, j] = |<p_i|h_j>|^2
    mean_h = hw.sum() / d
    mean_l = np.sum(np.log(pw)) / d
    cov = 0.0
    for i in range(d):
        for j in range(d):
            cov += (-math.log(pw[i])) * hw[j] * overlap[i, j] / d
    cov -= mean_h * (-mean_l)
    var = np.sum(hw**2) / d - mean_h**2
    return cov / var


class TestInverseTemperature:
    def test_spectral_sum_oracle(self):
        rng = np.random.default_rng(31)
        for i in range(40):
            d = 2 + i % 4
            h = gue(d, rng)
            rho = full_rank(d, rng)
            expected = beta_spectral_sum_oracle(rho.matrix, h.matrix)
            got = inverse_temperature(rho, h).beta
            assert got == pytest.approx(expected, abs=1e-10)

    def test_gibbs_qutrit(self):
        energies = np.array([-1.0, 0.3, 2.0])
        beta = 1.7
        w = np.exp(-beta * energies)
        rho = DensityMatrix.from_spectrum(w / w.sum(), np.eye(3))
        h = HermitianOperator(np.diag(energies))
        report = inverse_temperature(rho, h)
        assert report.beta == pytest.approx(beta, abs=1e-12)
        assert report.temperature == pytest.approx(1.0 / beta, abs=1e-12)

    def test_negative_beta_gibbs(self):
        energies = np.array([0.0, 1.0])
        beta = -0.8
        w = np.exp(-beta * energies)
        rho = DensityMatrix.from_spectrum(w / w.sum(), np.eye(2))
        report = inverse_temperature(rho, HermitianOperator(np.diag(energies)))
        assert report.beta == pytest.approx(beta, abs=1e-12)

    def test_maximally_mixed(self):
        rng = np.random.default_rng(5)
        report = inverse_temperature(DensityMatrix(np.eye(4) / 4.0), gue(4, rng))
        assert abs(report.beta) <= 1e-12
        assert report.temperature == math.inf
        assert math.isnan(report.free_energy)

    def test_pure_state(self):
        v = np.array([1.0, 0.0], dtype=complex)
        rho = DensityMatrix(np.outer(v, v))
        report = inverse_temperature(rho, HermitianOperator(SZ))
        assert report.temperature == 0.0
        assert math.isinf(report.beta)
        assert report.rank_deficient
        assert report.clipped

    @pytest.mark.parametrize("beta", [28.0, 35.0, 50.0, 100.0])
    def test_gibbs_recovery_below_rank_floor(self, beta):
        # The excited population e^-beta/Z is below the 1e-12 rank floor but
        # exact spectral data, so the state is not pure and beta is recovered.
        e = np.array([-0.5, 0.5])
        p = np.exp(-beta * (e - e[0]))
        rho = DensityMatrix.from_spectrum(p / p.sum(), np.eye(2))
        report = inverse_temperature(rho, HermitianOperator(np.diag(e)))
        assert abs(report.beta - beta) <= 1e-12 * beta
        assert not report.clipped
        assert report.rank_deficient

    def test_gibbs_recovery_below_clip(self):
        p = np.array([1.0, math.exp(-700.0)])
        rho = DensityMatrix.from_spectrum(p / p.sum(), np.eye(2))
        report = inverse_temperature(rho, HermitianOperator(np.diag([-0.5, 0.5])))
        assert report.beta == pytest.approx(300.0 * math.log(10.0), rel=1e-12)
        assert report.clipped

    @pytest.mark.parametrize("d", [2, 4, 6, 32])
    def test_haar_pure_state_from_matrix(self, d):
        rng = np.random.default_rng(d)
        for _ in range(20):
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            v /= np.linalg.norm(v)
            h = gue(d, rng)
            report = inverse_temperature(DensityMatrix(np.outer(v, v.conj())), h)
            assert report.temperature == 0.0
            # The null space enters log rho as log(clip), not as round-off, so the
            # sign says on which side of the mean energy Tr H/d the state lies.
            assert report.beta == (math.inf if np.vdot(v, h.matrix @ v).real < h.trace / d else -math.inf)
            assert report.clipped

    def test_identity_hamiltonian_rejected(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]))
        with pytest.raises(DegenerateDirectionError):
            inverse_temperature(rho, HermitianOperator(np.eye(2)))

    @pytest.mark.parametrize("scale", [1e-13, 1e-30, 0.0])
    def test_identity_hamiltonian_rejected_at_any_scale(self, scale):
        rho = DensityMatrix(np.diag([0.2, 0.3, 0.5]))
        with pytest.raises(DegenerateDirectionError):
            inverse_temperature(rho, HermitianOperator(scale * np.eye(3)))

    @pytest.mark.parametrize("c", [1e-13, 1e-30])
    def test_small_energy_unit(self, c):
        rng = np.random.default_rng(78)
        h = gue(2, rng)
        rho = full_rank(2, rng)
        beta = inverse_temperature(rho, h).beta
        scaled = inverse_temperature(rho, HermitianOperator(c * h.matrix)).beta
        assert c * scaled == pytest.approx(beta, rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("c", [1e-200, 1e-300])
    def test_weight_underflow_raises(self, c):
        # h^2 underflows to 0 at these scales although H is no multiple of I: the weight is not
        # representable, which is a numerical failure, not a degenerate direction.
        H, rho = sample_gibbs(4, 0.7, np.random.default_rng(1))
        with pytest.raises(NumericalError, match="underflows"):
            inverse_temperature(rho, HermitianOperator(c * H.matrix))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("c", [1e-200, 1e-300])
    def test_underflowing_identity_is_degenerate(self, d, c):
        rho = DensityMatrix(np.eye(d) / d)
        with pytest.raises(DegenerateDirectionError):
            inverse_temperature(rho, HermitianOperator(c * np.eye(d)))

    @pytest.mark.parametrize("c,beta_hex", [
        (1e-150, "0x1.b5f4a740a6c94p+497"), (1e-100, "0x1.99a58ce36ab4dp+331"),
        (1e-30, "0x1.1aba4db89fc41p+99"), (1.0, "0x1.666666666666ap-1"),
    ])
    def test_weight_above_underflow_unchanged(self, c, beta_hex):
        # Where h^2 does not underflow, beta is bit for bit what it was before the underflow rule.
        H, rho = sample_gibbs(4, 0.7, np.random.default_rng(1))
        assert inverse_temperature(rho, HermitianOperator(c * H.matrix)).beta.hex() == beta_hex

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("c", [1e12, 1e100, 1e150])
    def test_large_energy_unit(self, c):
        # A qubit Gibbs state at beta c = 1: the beta = 0 branch must judge
        # beta against the energy scale, or T reads infinite from c ~ 1e12 on.
        p = np.exp([0.5, -0.5])
        rho = DensityMatrix.from_spectrum(p / p.sum(), np.eye(2))
        h = HermitianOperator(c * np.diag([-0.5, 0.5]))
        report = inverse_temperature(rho, h)
        assert report.temperature / c == pytest.approx(1.0, rel=1e-12)
        basis = complete_basis(2, [hamiltonian_unit(h)[0]])
        assert helmholtz_free_energy(rho, h, basis) == pytest.approx(report.free_energy, rel=1e-12)
        mixed = inverse_temperature(DensityMatrix(np.eye(2) / 2.0), HermitianOperator(c * SZ))
        assert mixed.temperature == math.inf

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("c", [1e155, 1e160, 1e300])
    def test_energy_overflow_raises(self, c):
        h = HermitianOperator(c * np.diag([-0.5, 0.5]))
        with pytest.raises(NumericalError, match="overflow"):
            hamiltonian_unit(h)
        with pytest.raises(NumericalError, match="overflow"):
            inverse_temperature(DensityMatrix(np.diag([0.6, 0.4])), h)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_energy_offset_past_moment_overflow(self):
        # Tr[H^2] overflows, but beta reads H only through its finite traceless part:
        # the beta of 1e150 sigma_z, up to the rounding of the stored diagonal.
        h = HermitianOperator(1e155 * np.eye(2) + 1e150 * SZ)
        gap = float(h.matrix[0, 0].real - h.matrix[1, 1].real)
        report = inverse_temperature(DensityMatrix(np.diag([0.6, 0.4])), h)
        assert report.beta == pytest.approx(-math.log(1.5) / gap, rel=1e-14)
        assert report.beta == pytest.approx(-math.log(1.5) / 2e150, rel=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            inverse_temperature(DensityMatrix(np.eye(2) / 2.0), HermitianOperator(np.diag([1.0, 2.0, 3.0])))

    def test_trivial_extension(self):
        rng = np.random.default_rng(77)
        h = gue(3, rng)
        rho = full_rank(3, rng)
        beta = inverse_temperature(rho, h).beta
        rho_ext = DensityMatrix(tensor_product(rho.matrix, np.eye(2) / 2.0))
        h_ext = HermitianOperator(tensor_product(h.matrix, np.eye(2)))
        assert inverse_temperature(rho_ext, h_ext).beta == pytest.approx(beta, abs=1e-11)


class TestEntropyEnergy:
    def test_entropy_limits(self):
        v = np.array([0.6, 0.8j], dtype=complex)
        pure = DensityMatrix(np.outer(v, v.conj()))
        assert von_neumann_entropy(pure) == pytest.approx(0.0, abs=1e-12)
        mixed = DensityMatrix(np.eye(5) / 5.0)
        assert von_neumann_entropy(mixed) == pytest.approx(math.log(5.0), rel=1e-12)

    def test_entropy_binary(self):
        rho = DensityMatrix(np.diag([0.2, 0.8]))
        expected = -(0.2 * math.log(0.2) + 0.8 * math.log(0.8))
        assert von_neumann_entropy(rho) == pytest.approx(expected, rel=1e-12)

    def test_internal_energy(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]))
        h = HermitianOperator(np.diag([1.0, 3.0]))
        assert internal_energy(rho, h) == pytest.approx(2.5)


class TestPassivity:
    def test_passive_diagonal(self):
        rho = DensityMatrix(np.diag([0.8, 0.2]))
        h = HermitianOperator(np.diag([-0.5, 0.5]))
        assert is_passive(rho, h)

    def test_population_inverted(self):
        rho = DensityMatrix(np.diag([0.2, 0.8]))
        h = HermitianOperator(np.diag([-0.5, 0.5]))
        assert not is_passive(rho, h)

    def test_non_commuting(self):
        rho = DensityMatrix(np.array([[0.6, 0.2], [0.2, 0.4]]))
        h = HermitianOperator(np.diag([-1.0, 1.0]))
        assert not is_passive(rho, h)

    def test_degenerate_cluster_any_order(self):
        # Both populations sit in one degenerate energy cluster: passive by
        # definition regardless of their ordering.
        rho = DensityMatrix(np.diag([0.2, 0.8, 0.0]))
        h = HermitianOperator(np.diag([1.0, 1.0, 2.0]))
        assert is_passive(rho, h)

    def test_coherence_only_within_degenerate_clusters(self):
        # Two degenerate clusters: coherence inside a cluster is allowed, across them it is not.
        h = HermitianOperator(np.diag([1.0, 1.0, 2.0, 2.0]))
        rho = np.diag([0.3, 0.3, 0.2, 0.2]).astype(complex)
        rho[0, 1] = rho[1, 0] = 0.1
        assert is_passive(DensityMatrix(rho), h)
        rho[1, 2] = rho[2, 1] = 0.05
        assert not is_passive(DensityMatrix(rho), h)

    def test_rotated_frame(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        energies = np.array([-1.0, 0.0, 1.0])
        pops = np.array([0.5, 0.3, 0.2])
        h = HermitianOperator((q * energies) @ q.conj().T)
        rho = DensityMatrix.from_spectrum(pops, q)
        assert is_passive(rho, h)

    def test_passive_implies_nonnegative_beta(self):
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]))
        h = HermitianOperator(np.diag([-1.0, 0.0, 1.0]))
        assert is_passive(rho, h)
        assert inverse_temperature(rho, h).beta >= 0.0

    @pytest.mark.parametrize("excess,passive", [(0.0, True), (0.8e-12, True), (1.2e-12, False)])
    def test_ordering_margin(self, excess, passive):
        # A higher level may hold up to 1e-12 more population than the level below it.
        rho = DensityMatrix.from_spectrum([0.4, 0.4 + excess, 0.2 - excess], np.eye(3))
        h = HermitianOperator(np.diag([0.0, 1.0, 2.0]))
        assert is_passive(rho, h) is passive
        assert passive_by_blocks(rho, h) is passive


def _unitary(rng, d):
    g = rng.normal(size=(2, d, d))
    return np.linalg.qr(g[0] + 1j * g[1])[0]


@st.composite
def passivity_cases(draw):
    """(rho, H) at d <= 8 on the edges of every rule that ``is_passive`` applies.

    H has planted clusters of 1 to 3 levels. Levels within a cluster are equal
    or 0.5 DEGENERACY_TOL max|E| apart; consecutive clusters sit 2
    DEGENERACY_TOL max|E| or 0.25 apart. Populations are random or
    non-increasing, and non-increasing around one planted edge: one cluster's
    highest population set to the previous cluster's lowest plus 0 (a tie),
    1e-12 - 1e-13 or 1e-12 + 1e-13, or one entry of 0.5e-10 or 2e-10 between
    two clusters (a non-commuting state). The state and H share their
    eigenvectors: the standard basis, optionally mixed within each cluster,
    then optionally rotated as a whole.
    """
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(lambda s: sum(s) <= 8))
    wide = draw(st.lists(st.booleans(), min_size=len(sizes) - 1, max_size=len(sizes) - 1))
    tol = DEGENERACY_TOL * (1.0 + 0.25 * sum(wide))  # max|E| is 1 + 0.25 per wide gap, to within 1e-8
    inner = draw(st.sampled_from([0.0, 0.5])) * tol
    energies, members, e = [], [], 1.0
    for k, size in enumerate(sizes):
        e += k and (0.25 if wide[k - 1] else 2.0 * tol)
        members.append(list(range(len(energies), len(energies) + size)))
        energies += [e + inner * j for j in range(size)]
        e = energies[-1]
    d = len(energies)
    weights = np.array(draw(st.lists(st.integers(1, 16), min_size=d, max_size=d)), dtype=float)
    kind = draw(st.sampled_from(["plain", "margin", "coherence"] if len(sizes) > 1 else ["plain"]))
    if kind != "plain" or draw(st.booleans()):  # non-increasing, so that a planted edge decides
        weights = np.sort(weights)[::-1].copy()
    if kind == "margin":  # a tie in the weights, then an excess of 0, 0.9e-12 or 1.1e-12 in one population
        b = draw(st.integers(0, len(sizes) - 2))
        low, high, j = members[b], members[b + 1], draw(st.sampled_from(members[b + 1]))
        weights[high] = np.minimum(weights[high], min(weights[low]))
        weights[j] = min(weights[low])
    p = weights / weights.sum()
    if kind == "margin":
        p[j] += draw(st.sampled_from([0.0, 0.9e-12, 1.1e-12]))
    rng, q = np.random.default_rng(draw(st.integers(0, 2**16))), np.eye(d, dtype=complex)
    if draw(st.booleans()):
        for m in members:
            q[np.ix_(m, m)] = _unitary(rng, len(m))
    if draw(st.booleans()):
        q = _unitary(rng, d) @ q
    h = HermitianOperator((q * np.array(energies)) @ q.conj().T)
    if kind == "coherence":
        a, b = sorted(draw(st.lists(st.integers(0, len(sizes) - 1), min_size=2, max_size=2, unique=True)))
        i, j = draw(st.sampled_from(members[a])), draw(st.sampled_from(members[b]))
        m = np.diag(p).astype(complex)
        m[i, j] = m[j, i] = draw(st.sampled_from([0.5e-10, 2e-10]))
        return DensityMatrix(q @ m @ q.conj().T), h
    return DensityMatrix.from_spectrum(p, q), h


@settings(derandomize=True, deadline=None, max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(case=passivity_cases())
def test_is_passive_matches_the_cluster_loop(case):
    rho, h = case
    assert is_passive(rho, h) is passive_by_blocks(rho, h)
    assert is_passive(rho, h) is passive_by_diff(rho, h)


class TestVariationSplit:
    def test_diagonal_variation_is_eigenvalue_part(self):
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]))
        drho = HermitianOperator(np.diag([1e-3, -5e-4, -5e-4]))
        split = variation_split(rho, drho)
        np.testing.assert_allclose(split.d_ev.matrix, drho.matrix, atol=1e-15)
        np.testing.assert_allclose(split.d_ep.matrix, 0.0 * drho.matrix, atol=1e-15)

    def test_commutator_variation_is_projector_part(self):
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]))
        rng = np.random.default_rng(6)
        k = gue(3, rng).matrix
        drho = HermitianOperator(1e-3 * 1j * (rho.matrix @ k - k @ rho.matrix))
        split = variation_split(rho, drho)
        assert np.max(np.abs(split.d_ev.matrix)) < 1e-14
        np.testing.assert_allclose(split.d_ep.matrix, drho.matrix, atol=1e-14)

    def test_projector_part_is_isentropic(self):
        # First-order entropy change lives entirely in the eigenvalue part.
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]))
        rng = np.random.default_rng(16)
        k = gue(3, rng).matrix
        eps = 1e-6
        drho = HermitianOperator(eps * 1j * (rho.matrix @ k - k @ rho.matrix))
        perturbed = DensityMatrix(rho.matrix + drho.matrix)
        ds = von_neumann_entropy(perturbed) - von_neumann_entropy(rho)
        assert abs(ds) < 1e-10

    def test_degenerate_pair_keeps_its_coherence(self):
        # rho = U diag(0.4, 0.4, 0.2) U^dag. Coherence inside the degenerate pair moves
        # eigenvalues only, so it stays in d_ev; coherence across the clusters is rotation.
        rng = np.random.default_rng(23)
        u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))

        def frame(m):
            return u @ m @ u.conj().T

        rho = DensityMatrix(frame(np.diag([0.4, 0.4, 0.2])))
        inside = np.array([[1e-3, 2e-3 + 1e-3j, 0], [2e-3 - 1e-3j, 5e-4, 0], [0, 0, -1.5e-3]])
        across = np.zeros((3, 3), dtype=complex)
        across[:2, 2] = [1e-3j, -2e-3]
        across[2, :2] = across[:2, 2].conj()
        drho = HermitianOperator(frame(inside + across))
        split = variation_split(rho, drho)
        np.testing.assert_allclose(split.d_ev.matrix, frame(inside), atol=1e-14)
        np.testing.assert_allclose(split.d_ep.matrix, frame(across), atol=1e-14)
        np.testing.assert_allclose(split.d_ev.matrix + split.d_ep.matrix, drho.matrix, atol=1e-15)

    def test_rejects_traceful_variation(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        with pytest.raises(ValidationError):
            variation_split(rho, HermitianOperator(np.diag([1e-3, 1e-3])))


class TestHeatWork:
    def test_energy_balance(self):
        rng = np.random.default_rng(12)
        rho = full_rank(3, rng)
        h = gue(3, rng)
        dh = HermitianOperator(1e-3 * gue(3, rng).matrix)
        g = gue(3, rng).matrix
        drho = HermitianOperator(1e-3 * (g - np.trace(g) * np.eye(3) / 3.0))
        hw = heat_and_work(rho, drho, h, dh)
        assert hw.conventional_heat + hw.conventional_work == pytest.approx(
            hw.entropic_heat + hw.entropic_work, abs=1e-14
        )

    def test_diagonal_relaxation_is_pure_heat(self):
        rho = DensityMatrix(np.diag([0.6, 0.4]))
        h = HermitianOperator(np.diag([0.0, 1.0]))
        drho = HermitianOperator(np.diag([1e-3, -1e-3]))
        hw = heat_and_work(rho, drho, h, HermitianOperator(np.zeros((2, 2))))
        assert hw.entropic_heat == pytest.approx(hw.conventional_heat, abs=1e-15)
        assert hw.entropic_work == pytest.approx(0.0, abs=1e-15)
        assert hw.conventional_heat == pytest.approx(-1e-3)

    def test_hamiltonian_drive_is_pure_work(self):
        rho = DensityMatrix(np.diag([0.6, 0.4]))
        h = HermitianOperator(np.diag([0.0, 1.0]))
        dh = HermitianOperator(np.diag([0.0, 1e-3]))
        hw = heat_and_work(rho, HermitianOperator(np.zeros((2, 2))), h, dh)
        assert hw.conventional_heat == 0.0
        assert hw.conventional_work == pytest.approx(4e-4)


class TestGeneralizedGibbs:
    def test_reconstruction(self):
        rng = np.random.default_rng(23)
        for i in range(10):
            d = 2 + i % 3
            h = gue(d, rng)
            rho = full_rank(d, rng)
            o1, _ = hamiltonian_unit(h)
            basis = complete_basis(d, [o1])
            form = generalized_gibbs_decomposition(rho, h, basis)
            recon = reconstruct_generalized_gibbs(form, h, basis)
            assert np.max(np.abs(recon - rho.matrix)) < 1e-10
            assert np.trace(recon).real == pytest.approx(1.0, abs=1e-10)

    def test_beta_matches_report(self):
        rng = np.random.default_rng(24)
        h = gue(3, rng)
        rho = full_rank(3, rng)
        o1, _ = hamiltonian_unit(h)
        basis = complete_basis(3, [o1])
        form = generalized_gibbs_decomposition(rho, h, basis)
        assert form.beta == pytest.approx(inverse_temperature(rho, h).beta, rel=1e-12)

    def test_gibbs_state_has_zero_tail(self):
        energies = np.array([-1.0, 0.0, 1.5])
        beta = 0.9
        w = np.exp(-beta * energies)
        rho = DensityMatrix.from_spectrum(w / w.sum(), np.eye(3))
        h = HermitianOperator(np.diag(energies))
        o1, _ = hamiltonian_unit(h)
        basis = complete_basis(3, [o1])
        form = generalized_gibbs_decomposition(rho, h, basis)
        assert np.max(np.abs(form.c)) < 1e-10

    def test_rejects_rank_deficient(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        h = HermitianOperator(SZ)
        basis = complete_basis(2, [hamiltonian_unit(h)[0]])
        with pytest.raises(RankDeficiencyError):
            generalized_gibbs_decomposition(rho, h, basis)

    def test_rejects_mismatched_basis(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]))
        h = HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))
        basis = complete_basis(2, [hamiltonian_unit(HermitianOperator(SZ))[0]])
        with pytest.raises(ValidationError):
            generalized_gibbs_decomposition(rho, h, basis)


class TestHelmholtz:
    def test_gibbs_free_energy(self):
        energies = np.array([-0.7, 0.2, 1.1])
        beta = 1.3
        w = np.exp(-beta * energies)
        z = w.sum()
        rho = DensityMatrix.from_spectrum(w / z, np.eye(3))
        h = HermitianOperator(np.diag(energies))
        basis = complete_basis(3, [hamiltonian_unit(h)[0]])
        f = helmholtz_free_energy(rho, h, basis)
        assert f == pytest.approx(-math.log(z) / beta, rel=1e-10)

    def test_undefined_at_zero_beta(self):
        rho = DensityMatrix(np.eye(2) / 2.0)
        h = HermitianOperator(SZ)
        basis = complete_basis(2, [hamiltonian_unit(h)[0]])
        with pytest.raises(UndefinedQuantityError):
            helmholtz_free_energy(rho, h, basis)

    def test_rejects_mismatched_basis(self):
        # The basis of another Hamiltonian's direction is refused up front, as
        # generalized_gibbs_decomposition refuses it.
        rho = DensityMatrix(np.diag([0.2, 0.3, 0.5]))
        h = HermitianOperator(np.diag([1.0, 0.0, -1.0]))
        basis = complete_basis(3, [hamiltonian_unit(HermitianOperator(np.diag([1.0, -1.0, 0.0])))[0]])
        with pytest.raises(ValidationError, match=r"basis\[1\]"):
            helmholtz_free_energy(rho, h, basis)


#: The four analyses over a basis, on a full-rank state.
BASIS_ANALYSES = {
    "decomposition": generalized_gibbs_decomposition,
    "reconstruction": lambda rho, h, basis: reconstruct_generalized_gibbs(
        GeneralizedGibbsForm(beta=0.5, c=np.zeros(rho.dim**2 - 2), log_norm=0.0), h, basis),
    "free energy": helmholtz_free_energy,
    "finite difference": lambda rho, h, basis: finite_difference_beta(rho, h, basis, 1e-4),
}


class TestBasisDirection:
    """Every analysis over a basis reads H's direction from basis[1], checked once."""

    @pytest.mark.parametrize("name", list(BASIS_ANALYSES))
    def test_rejects_basis_of_another_hamiltonian(self, name):
        # Unchecked, finite_difference_beta gives 0.889 here, close to beta = 0.879.
        rng = np.random.default_rng(4)
        h, other = gue(3, rng), gue(3, rng)
        basis = complete_basis(3, [hamiltonian_unit(other)[0]])
        with pytest.raises(ValidationError, match=r"basis\[1\]"):
            BASIS_ANALYSES[name](full_rank(3, rng), h, basis)

    @pytest.mark.parametrize("name", list(BASIS_ANALYSES))
    def test_rejects_basis_of_another_dimension(self, name):
        rng = np.random.default_rng(5)
        h = gue(3, rng)
        with pytest.raises(ValidationError, match=r"basis\[1\]"):
            BASIS_ANALYSES[name](full_rank(3, rng), h, complete_basis(2, [hamiltonian_unit(h.matrix[:2, :2])[0]]))

    @pytest.mark.parametrize("name", list(BASIS_ANALYSES))
    def test_identity_hamiltonian_is_degenerate(self, name):
        rng = np.random.default_rng(6)
        with pytest.raises(DegenerateDirectionError):
            BASIS_ANALYSES[name](full_rank(3, rng), HermitianOperator(2.5 * np.eye(3)), complete_basis(3, []))


class TestFiniteDifference:
    def test_second_order_convergence(self):
        rng = np.random.default_rng(41)
        h = gue(3, rng)
        rho = full_rank(3, rng)
        beta = inverse_temperature(rho, h).beta
        basis = complete_basis(3, [hamiltonian_unit(h)[0]])
        e1 = abs(finite_difference_beta(rho, h, basis, 1e-3) - beta)
        e2 = abs(finite_difference_beta(rho, h, basis, 1e-4) - beta)
        # Central differences: shrinking the step by 10 divides the error
        # by about 100.
        assert e2 < e1 / 20.0

    def test_step_too_large(self):
        rho = DensityMatrix(np.diag([0.999, 0.001]))
        h = HermitianOperator(SZ)
        basis = complete_basis(2, [hamiltonian_unit(h)[0]])
        with pytest.raises(StepTooLargeError):
            finite_difference_beta(rho, h, basis, 0.5)

    def test_rejects_bad_step(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        h = HermitianOperator(SZ)
        basis = complete_basis(2, [hamiltonian_unit(h)[0]])
        with pytest.raises(ValidationError):
            finite_difference_beta(rho, h, basis, -1e-5)
