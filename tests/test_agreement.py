"""The agreement rule of the cross-checks, and what its derived bounds admit.

Every cross-check of two assemblies of one value (beta, beta_SB, beta_chi,
U_chi, the Helmholtz free energy, the spectral reconstruction and the
subadditivity of S_chi) goes through ``linalg._agree``: |a - b| <= K eps
magnitude, the magnitude summed over what the assemblies add. These tests
hold the rule at its bound, show that no derived bound is vacuous (a side
corrupted by a relative 1e-8 raises on desk-scale states), and that the
bounds admit what the literals they replaced refused: weakly coupled Gibbs
states, checked against a 40-digit mpmath reference, and rounding-size
negative mutual information on product states.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from neqtemp import correlation, linalg, thermometry
from neqtemp.basis import complete_basis, hamiltonian_unit
from neqtemp.correlation import BipartiteSystem, binding_energy, correlation_inverse_temperature, mutual_information
from neqtemp.exceptions import NumericalError
from neqtemp.linalg import DensityMatrix, HermitianOperator, _local_sum, eig_hermitian, tensor_product
from neqtemp.models import _gibbs_state, gue_sample, sample_bipartite, sample_full_rank, sample_gibbs
from neqtemp.relation import verify_universal_relation
from neqtemp.thermometry import helmholtz_free_energy, inverse_temperature, von_neumann_entropy

SKEW = 1e-8


class TestRule:
    def test_equality_at_the_bound_passes(self):
        bound = linalg._AGREE_K * linalg._EPS * 3.0  # exact: a power of two times 3
        assert linalg._agree(bound, 0.0, 3.0, "x") == (bound, bound)
        assert linalg._agree(-1.0, -1.0, 0.0, "x") == (0.0, 0.0)

    def test_past_the_bound_names_residual_and_bound(self):
        bound = linalg._AGREE_K * linalg._EPS * 3.0
        with pytest.raises(NumericalError, match=r"^x disagree: .* vs 0\.0, residual \S+ > bound 2\.132e-14$"):
            linalg._agree(float(np.nextafter(bound, 1.0)), 0.0, 3.0, "x")
        with pytest.raises(NumericalError, match=r"^beta forms disagree: 1\.0 vs 2\.0, residual 1\.000e\+00 > bound "):
            linalg._agree(1.0, 2.0, 1.0, "beta forms")

    @pytest.mark.parametrize("a, b", [(math.nan, 0.0), (0.0, math.nan), (math.inf, math.inf)])
    def test_nan_residual_fails(self, a, b):
        with pytest.raises(NumericalError, match="residual nan > bound"):
            linalg._agree(a, b, 1.0, "x")


def skew(monkeypatch, module, what):
    """Corrupt the first side of ``module``'s check ``what`` by a relative SKEW."""
    agree = linalg._agree

    def skewed(a, b, magnitude, label):
        return agree(a * (1.0 + SKEW) if label == what else a, b, magnitude, label)

    monkeypatch.setattr(module, "_agree", skewed)


def bipartite_states():
    rng = np.random.default_rng(5)
    return [sample_bipartite(d_s, d_b, 0.5, rng) for d_s, d_b in [(2, 2), (2, 3), (3, 4)]]


class TestNoVacuousBound:
    """Each check raises on tier-1 states at d <= 12 once one side moves by a relative 1e-8."""

    @pytest.mark.parametrize("d", [2, 4, 12])
    def test_beta(self, monkeypatch, d):
        h, rho = sample_gibbs(d, 0.7, np.random.default_rng(d))
        assert inverse_temperature(rho, h).beta == pytest.approx(0.7, rel=1e-12)
        skew(monkeypatch, thermometry, "temperature formulas")
        with pytest.raises(NumericalError, match="temperature formulas disagree"):
            inverse_temperature(rho, h)

    @pytest.mark.parametrize("index", range(3))
    def test_beta_sb(self, monkeypatch, index):
        # correlation reads _beta_of_moments for beta_SB alone; the local reports take thermometry's.
        beta_of_moments = thermometry._beta_of_moments
        monkeypatch.setattr(correlation, "_beta_of_moments", lambda rho, h, moments, beta_dir, magnitude:
                            beta_of_moments(rho, h, moments, beta_dir * (1.0 + SKEW), magnitude))
        with pytest.raises(NumericalError, match="temperature formulas disagree"):
            verify_universal_relation(bipartite_states()[index])

    @pytest.mark.parametrize("index", range(3))
    def test_beta_chi(self, monkeypatch, index):
        skew(monkeypatch, correlation, "correlation-temperature forms")
        with pytest.raises(NumericalError, match="correlation-temperature forms disagree"):
            correlation_inverse_temperature(bipartite_states()[index])

    @pytest.mark.parametrize("index", range(3))
    def test_binding_energy(self, monkeypatch, index):
        skew(monkeypatch, correlation, "binding-energy expressions")
        with pytest.raises(NumericalError, match="binding-energy expressions disagree"):
            binding_energy(bipartite_states()[index])

    @pytest.mark.parametrize("d", [2, 4, 12])
    def test_free_energy(self, monkeypatch, d):
        h, rho = sample_gibbs(d, 0.7, np.random.default_rng(d))
        basis = complete_basis(d, [hamiltonian_unit(h)[0]])
        helmholtz_free_energy(rho, h, basis)
        skew(monkeypatch, thermometry, "free-energy forms")
        with pytest.raises(NumericalError, match="free-energy forms disagree"):
            helmholtz_free_energy(rho, h, basis)

    @pytest.mark.parametrize("d", [2, 4, 12])
    def test_spectral_reconstruction(self, monkeypatch, d):
        rho = sample_full_rank(d, np.random.default_rng(d))
        eigh = np.linalg.eigh

        def skewed(a):
            w, v = eigh(a)
            return w * (1.0 + SKEW), v

        monkeypatch.setattr(np.linalg, "eigh", skewed)
        with pytest.raises(NumericalError, match="spectral reconstruction .* disagree"):
            DensityMatrix(rho.matrix)
        with pytest.raises(NumericalError, match="spectral reconstruction .* disagree"):
            eig_hermitian(gue_sample(d, np.random.default_rng(d)))


@pytest.mark.parametrize("c", [1e-310, 1e-320])
def test_subnormal_matrix_decomposes(c):
    # Products that underflow err absolutely, by eps times the smallest normal double: the reconstruction
    # bound counts that, so a matrix whose entries are subnormal still decomposes.
    for d in (2, 4, 12):
        h = gue_sample(d, np.random.default_rng(d)).matrix
        assert np.allclose(eig_hermitian(HermitianOperator(c * h)).eigenvalues / c, np.linalg.eigvalsh(h), rtol=1e-2)


def product_system(seed, d_s=2, d_b=3):
    """A product of two ``sample_full_rank`` marginals, with GUE Hamiltonians."""
    rng = np.random.default_rng(seed)
    rho = DensityMatrix(tensor_product(sample_full_rank(d_s, rng), sample_full_rank(d_b, rng)))
    h_s, h_b = gue_sample(d_s, rng), gue_sample(d_b, rng)
    return BipartiteSystem(d_s, d_b, h_s, h_b, HermitianOperator(0.4 * gue_sample(d_s * d_b, rng).matrix), rho)


class TestMutualInformation:
    def test_product_states_never_read_negative(self):
        # S(rho_S) + S(rho_B) - S(rho_SB) rounds below 0 on 91 of these 200 states, to at worst -1.8e-15.
        raw, read = [], []
        for seed in range(200):
            sys = product_system(seed)
            raw.append(sum(von_neumann_entropy(r) for r in (sys.rho_S, sys.rho_B)) - von_neumann_entropy(sys.rho_SB))
            read.append(mutual_information(sys))
        raw, read = np.array(raw), np.array(read)
        assert (raw < 0.0).sum() == 91 and raw.min() > -1e-14
        assert np.all(read[raw < 0.0] == 0.0) and np.array_equal(read[raw >= 0.0], raw[raw >= 0.0])
        assert correlation_inverse_temperature(product_system(int(np.argmin(raw)))).S_chi == 0.0

    def test_corrupted_entropy_raises(self, monkeypatch):
        sys = product_system(0)
        entropy = correlation.von_neumann_entropy
        monkeypatch.setattr(correlation, "von_neumann_entropy",
                            lambda r: entropy(r) * (1.0 + SKEW) if r is sys.rho_SB else entropy(r))
        with pytest.raises(NumericalError, match="subadditive entropies .* disagree"):
            mutual_information(sys)

    def test_correlated_state_unchanged(self):
        sys = bipartite_states()[1]
        s = [von_neumann_entropy(r) for r in (sys.rho_S, sys.rho_B, sys.rho_SB)]
        assert mutual_information(sys) == s[0] + s[1] - s[2] > 0.0


def weakly_coupled(seed, d_s, d_b, g, beta=0.7):
    """The global Gibbs state at beta of H_S x I + I x H_B + g H_I, GUE terms drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    h_s, h_b = gue_sample(d_s, rng), gue_sample(d_b, rng)
    h_i = HermitianOperator(g * gue_sample(d_s * d_b, rng).matrix)
    h_sb = HermitianOperator._of_exact(_local_sum(h_s, h_b, h_i))
    return BipartiteSystem(d_s, d_b, h_s, h_b, h_i, _gibbs_state(eig_hermitian(h_sb), beta))


DIMS = [(2, 2), (2, 3), (3, 3), (3, 4)]


class TestWeakCoupling:
    @pytest.mark.parametrize("g", [1e-4, 1e-5, 1e-6])
    def test_every_report_builds(self, g):
        # beta_chi + beta is O(g) (6.5e-6 at g = 1e-4), while both of its forms cancel O(1) traces and
        # divide by h_I h_chi^2 ~ g; a unit-scale literal bound refused most of these at g = 1e-6.
        worst = max(abs(verify_universal_relation(weakly_coupled(seed, d_s, d_b, g)).beta_chi + 0.7)
                    for seed in range(8) for d_s, d_b in DIMS)
        assert worst < 1e-1 * g

    @pytest.mark.parametrize("d_s, d_b", DIMS)
    def test_beta_chi_against_mpmath(self, d_s, d_b):
        sys = weakly_coupled(0, d_s, d_b, 1e-6)
        with mp.workdps(40):
            reference = mpmath_beta_chi(sys)
        assert abs(correlation_inverse_temperature(sys).beta_chi - float(reference)) <= 1e-9


def mpmath_beta_chi(sys):
    """beta_chi = -Tr[O_chi' HH_I]/(h_I h_chi^2) from the system's stored H_S, H_B, H_I and rho_SB matrices.

    O_chi' is O_I less its projections on O_S x I and I x O_B (norm h_chi); every logarithm is taken
    from an mpmath eigendecomposition of the stored matrix or of its partial traces.
    """
    d_s, d_b = sys.d_S, sys.d_B

    def mat(a):
        return mp.matrix([[mp.mpc(complex(z)) for z in row] for row in np.asarray(a)])

    def tr(a):
        return sum(a[i, i] for i in range(a.rows))

    def inner(a, b):
        return mp.re(sum(mp.conj(a[i, j]) * b[i, j] for i in range(a.rows) for j in range(a.cols)))

    def traceless(a):
        return a - (tr(a) / a.rows) * mp.eye(a.rows)

    def log(a):
        w, v = mp.eighe(a)
        return v * mp.diag([mp.log(x) for x in w]) * v.H

    def kron(a, b):
        return mp.matrix([[a[i // b.rows, j // b.cols] * b[i % b.rows, j % b.cols]
                           for j in range(a.cols * b.cols)] for i in range(a.rows * b.rows)])

    def part(m, keep):
        if keep == 0:
            return mp.matrix([[sum(m[i * d_b + k, j * d_b + k] for k in range(d_b)) for j in range(d_s)]
                              for i in range(d_s)])
        return mp.matrix([[sum(m[k * d_b + i, k * d_b + j] for k in range(d_s)) for j in range(d_b)]
                          for i in range(d_b)])

    rho = mat(sys.rho_SB.matrix)
    rho_s, rho_b = part(rho, 0), part(rho, 1)
    eye_s, eye_b = mp.eye(d_s), mp.eye(d_b)
    h_s, h_b, h_i = (traceless(mat(h.matrix)) for h in (sys.H_S, sys.H_B, sys.H_I))
    lamb_s, lamb_b = part(kron(eye_s, rho_b) * h_i, 0), part(kron(rho_s, eye_b) * h_i, 1)
    h_i_eff = h_i - kron(lamb_s, eye_b) - kron(eye_s, lamb_b) + mp.re(tr(rho_s * lamb_s)) * mp.eye(d_s * d_b)
    o_s, o_b, o_i = traceless(h_s + lamb_s), traceless(h_b + lamb_b), traceless(h_i_eff)
    o_s, o_b, h_I = o_s / mp.sqrt(inner(o_s, o_s)), o_b / mp.sqrt(inner(o_b, o_b)), mp.sqrt(inner(o_i, o_i))
    o_s, o_b, o_i = kron(o_s, eye_b), kron(eye_s, o_b), o_i / h_I
    o_chi = o_i - inner(o_i, o_s) / d_b * o_s - inner(o_i, o_b) / d_s * o_b
    hh = -log(rho) + kron(log(rho_s), eye_b) + kron(eye_s, log(rho_b))
    return -inner(o_chi, hh) / (h_I * inner(o_chi, o_chi))


@pytest.mark.parametrize("c", [1e-160, 1e-155, 1e-150, 1e150, 1e153])
def test_rescaled_hamiltonian_never_reads_a_wrong_beta(c):
    # At c = 1e-160 the moments are subnormal: the check must refuse, not pass a wrong beta.
    h, rho = sample_gibbs(4, 0.7, np.random.default_rng(1))
    beta_1 = inverse_temperature(rho, h).beta
    try:
        beta = inverse_temperature(rho, HermitianOperator(c * h.matrix)).beta
    except NumericalError:
        return
    assert abs(beta * c - beta_1) <= 1e-12 * abs(beta_1)
