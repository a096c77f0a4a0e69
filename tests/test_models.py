"""Model and sampler tests.

Closed-form values are pinned twice: against the frozen golden file and
against direct diagonalization of the assembled four-level system, so a
regression in either the formulas or the assembly shows up immediately.
"""

import json
import math
import pathlib
from dataclasses import asdict

import numpy as np
import pytest

from neqtemp.exceptions import NumericalError, ValidationError
from neqtemp.linalg import eig_hermitian, partial_trace
from neqtemp.models import (
    TwoQubitXYParams,
    build_two_qubit_xy,
    closed_form,
    sample_bipartite,
    sample_full_rank,
    sample_gibbs,
    sample_inverted_pair,
    sample_passive_pair,
    sample_pure,
)
from neqtemp.relation import verify_universal_relation
from neqtemp.thermometry import inverse_temperature, is_passive
from neqtemp.verify import GRID

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "two_qubit_closed_form.golden"


class TestClosedForm:
    def test_golden_file(self):
        # A header line, then one {"params", "values"} JSON record per grid point.
        header, *lines = GOLDEN_PATH.read_text(encoding="utf-8").splitlines()
        assert json.loads(header) == {"format": "two-qubit-xy-closed-form", "version": 1}
        assert len(lines) == len(GRID)
        for line, p in zip(lines, GRID):
            values = asdict(closed_form(p))
            values["E"] = list(values["E"])
            assert json.loads(line) == {"params": asdict(p), "values": values}

    @pytest.mark.parametrize("p", GRID[:9], ids=lambda p: f"l{p.lam}w{p.omega_S}")
    def test_spectrum_matches_diagonalization(self, p):
        sys = build_two_qubit_xy(p)
        spec = eig_hermitian(sys.H_SB())
        cf = closed_form(p)
        np.testing.assert_allclose(
            np.sort(np.array(cf.E)), spec.eigenvalues, atol=1e-12
        )

    def test_partition_function(self):
        p = TwoQubitXYParams(omega_S=2.0, omega_B=1.0, lam=0.3, beta=1.4)
        cf = closed_form(p)
        spec = eig_hermitian(build_two_qubit_xy(p).H_SB())
        assert cf.Z == pytest.approx(
            float(np.sum(np.exp(-p.beta * spec.eigenvalues))), rel=1e-12
        )

    def test_marginal_populations(self):
        p = TwoQubitXYParams(omega_S=5.0, omega_B=0.5, lam=1.0, beta=0.7)
        cf = closed_form(p)
        sys = build_two_qubit_xy(p)
        # sigma_z marginals are diagonal; the lower level of S carries mu1_plus.
        rs = sys.rho_S.matrix
        rb = sys.rho_B.matrix
        assert rs[1, 1].real == pytest.approx(cf.mu1_plus, rel=1e-12)
        assert rs[0, 0].real == pytest.approx(cf.mu1_minus, rel=1e-12)
        assert rb[1, 1].real == pytest.approx(cf.mu2_minus, rel=1e-12)
        assert rb[0, 0].real == pytest.approx(cf.mu2_plus, rel=1e-12)
        assert abs(rs[0, 1]) < 1e-14

    def test_local_betas_match_numeric_estimator(self):
        for p in GRID[::5]:
            cf = closed_form(p)
            sys = build_two_qubit_xy(p)
            assert cf.beta_S == pytest.approx(
                inverse_temperature(sys.rho_S, sys.H_S).beta, abs=1e-10
            )
            assert cf.beta_B == pytest.approx(
                inverse_temperature(sys.rho_B, sys.H_B).beta, abs=1e-10
            )

    def test_beta_s_nonnegative_on_grid(self):
        assert all(closed_form(p).beta_S >= 0.0 for p in GRID)

    def test_degenerate_bath_flag(self):
        cf = closed_form(TwoQubitXYParams(omega_S=1.0, omega_B=0.0, lam=0.2, beta=1.0))
        assert cf.omega_B_zero
        assert math.isnan(cf.beta_B)

    def test_zeta_normalization(self):
        cf = closed_form(TwoQubitXYParams(omega_S=3.0, omega_B=1.0, lam=0.4, beta=1.0))
        assert cf.zeta_plus**2 + cf.zeta_minus**2 == pytest.approx(1.0, rel=1e-14)

    # A cosh past the largest double (beta = +-1000); Z's sum past it, then 0/0 (beta = 696, omega_B = 0).
    @pytest.mark.parametrize("omega_B,beta", [(1.0, 1000.0), (1.0, -1000.0), (0.0, 696.0)])
    def test_overflow_is_a_numerical_error(self, omega_B, beta):
        with pytest.raises(NumericalError, match="closed form overflows"):
            closed_form(TwoQubitXYParams(omega_S=2.0, omega_B=omega_B, lam=0.2, beta=beta))


class TestParams:
    def test_rejects_order_violation(self):
        with pytest.raises(ValidationError):
            TwoQubitXYParams(omega_S=1.0, omega_B=2.0, lam=0.1, beta=1.0)

    def test_rejects_nonpositive_coupling(self):
        with pytest.raises(ValidationError):
            TwoQubitXYParams(omega_S=2.0, omega_B=1.0, lam=0.0, beta=1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            TwoQubitXYParams(omega_S=2.0, omega_B=1.0, lam=0.1, beta=math.inf)


class TestSamplers:
    def test_deterministic_at_fixed_seed(self):
        a = sample_bipartite(2, 3, 0.5, np.random.default_rng(123))
        b = sample_bipartite(2, 3, 0.5, np.random.default_rng(123))
        np.testing.assert_array_equal(a.rho_SB.matrix, b.rho_SB.matrix)
        np.testing.assert_array_equal(a.H_I.matrix, b.H_I.matrix)

    def test_gibbs_sample_has_expected_temperature(self):
        rng = np.random.default_rng(31)
        h, rho = sample_gibbs(4, -1.5, rng)
        assert inverse_temperature(rho, h).beta == pytest.approx(-1.5, abs=1e-10)

    def test_passive_pair_is_passive(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            h, rho = sample_passive_pair(4, rng)
            assert is_passive(rho, h)

    def test_inverted_pair_is_not_passive(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            h, rho = sample_inverted_pair(4, rng)
            assert not is_passive(rho, h)

    def test_pure_sample(self):
        rho = sample_pure(5, np.random.default_rng(34))
        assert rho.rank == 1
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_full_rank_floor(self):
        rng = np.random.default_rng(35)
        for d in (2, 4, 8):
            rho = sample_full_rank(d, rng)
            assert rho.eigenvalues[0] >= 1e-3 / d - 1e-15

    def test_bipartite_marginals_consistent(self):
        sys = sample_bipartite(2, 3, 0.5, np.random.default_rng(36))
        np.testing.assert_allclose(
            sys.rho_S.matrix,
            partial_trace(sys.rho_SB.matrix, (2, 3), keep=0),
            atol=1e-12,
        )

    def test_dimension_validation(self):
        rng = np.random.default_rng(37)
        with pytest.raises(ValidationError):
            sample_gibbs(1, 1.0, rng)

    def test_gibbs_exponent_overflow_is_a_numerical_error(self):
        # |E| > 1.8 on this GUE draw, so -beta E itself is past the largest double.
        with pytest.raises(NumericalError, match=r"overflow at beta = 1e\+308"):
            sample_gibbs(4, 1e308, np.random.default_rng(0))

    def test_gibbs_shift_overflow_is_a_zero_weight(self):
        # -beta E is finite (|E| <= 1.5) but its shift by the largest exponent is not: an underflowed
        # Boltzmann weight, exactly 0, so the state is the ground state, at zero temperature.
        sys = build_two_qubit_xy(TwoQubitXYParams(omega_S=2.0, omega_B=1.0, lam=0.2, beta=1e308))
        assert sys.rho_SB.rank == 1
        assert verify_universal_relation(sys).beta_SB == math.inf


class TestGoldenIO:
    def test_header_format_constant(self):
        # The header names the format on the first line; the file is plain
        # "\n"-separated JSON lines ending in a newline, so it stays byte-stable.
        raw = GOLDEN_PATH.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")
        header = raw.split(b"\n", 1)[0].decode("utf-8")
        assert json.loads(header)["format"] == "two-qubit-xy-closed-form"
