"""An energy offset c I changes no temperature (hypothesis, derandomized).

Every temperature is dS/dU along the Hamiltonian direction, so it reads H only
through its unit direction: adding c I to H, H_S, H_B or H_I moves U by c and
leaves beta where it was. A bipartite system reads only the traceless parts of
H_S, H_B and H_I, so the binding energy U_chi does not move either. The
Hamiltonians here have entries that are multiples of 2^-8 and c = +-2^k with
k <= 30, so H + c I is exact in a double. What an offset may still cost is the
rounding of a mean of size |c|, about eps |c| per entry of a direction of
weight h, hence the bound (1e-12 + 16 eps |c|/h) max(1, |beta|).
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from neqtemp.correlation import BipartiteSystem, binding_energy, correlation_inverse_temperature
from neqtemp.linalg import HermitianOperator, eig_hermitian
from neqtemp.models import TwoQubitXYParams, _gibbs_state, build_two_qubit_xy, sample_full_rank
from neqtemp.relation import verify_universal_relation
from neqtemp.thermometry import inverse_temperature

EPS = float(np.finfo(float).eps)

SETTINGS = settings(derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])

offsets = st.builds(lambda sign, k: sign * 2.0**k, st.sampled_from([1.0, -1.0]), st.integers(-8, 30))


def within(shifted, beta, c, h):
    return abs(shifted - beta) <= (1e-12 + 16.0 * EPS * abs(c) / h) * max(1.0, abs(beta))


@st.composite
def dyadic_hermitian(draw, d):
    """A d x d Hermitian matrix with entries k / 256, |k| <= 512, not proportional to I."""
    k = np.array(draw(st.lists(st.integers(-512, 512), min_size=d * d, max_size=d * d)), dtype=float) / 256.0
    m = np.zeros((d, d), dtype=complex)
    upper = np.triu_indices(d, 1)
    m[np.diag_indices(d)] = k[:d]
    m[upper] = k[d : d + upper[0].size] + 1j * k[d + upper[0].size :]
    m += np.triu(m, 1).conj().T
    assume(np.any(m != m[0, 0] * np.eye(d)))
    return m


def rounded(m):
    """m with its entries rounded to multiples of 2^-8."""
    return np.round(m * 256.0) / 256.0


@SETTINGS
@given(data=st.data(), c=offsets, beta=st.integers(-24, 24).map(lambda k: k / 8.0),
       state_seed=st.none() | st.integers(0, 2**16))
def test_single_system_offset(data, c, beta, state_seed):
    # The state is the Gibbs state of H at beta, or a generic full-rank state.
    d = data.draw(st.integers(2, 6))
    m = data.draw(dyadic_hermitian(d))
    h = HermitianOperator(m)
    if state_seed is None:
        rho = _gibbs_state(eig_hermitian(h), beta)
    else:
        rho = sample_full_rank(d, np.random.default_rng(state_seed))
    report = inverse_temperature(rho, h)
    shifted = inverse_temperature(rho, HermitianOperator(m + c * np.eye(d)))
    assert within(shifted.beta, report.beta, c, report.h)


def gue(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2.0


def model_system(lam):
    return build_two_qubit_xy(TwoQubitXYParams(omega_S=2.0, omega_B=1.0, lam=lam, beta=1.0))


def gue_gibbs_system(seed):
    """A 2 x 3 system in the Gibbs state of its dyadic GUE Hamiltonians at beta = 0.7."""
    rng = np.random.default_rng(seed)
    h_s, h_b, h_i = rounded(gue(2, rng)), rounded(gue(3, rng)), rounded(0.3 * gue(6, rng))
    total = HermitianOperator(np.kron(h_s, np.eye(3)) + np.kron(np.eye(2), h_b) + h_i)
    ops = (HermitianOperator(m) for m in (h_s, h_b, h_i))
    return BipartiteSystem(2, 3, *ops, _gibbs_state(eig_hermitian(total), 0.7))


systems = st.one_of(st.sampled_from([0.05, 0.2, 1.0]).map(model_system),
                    st.integers(0, 2**16).map(gue_gibbs_system))


def observables(sys):
    """The six temperatures, the binding energy and the correlation report's beta_chi."""
    rel = verify_universal_relation(sys)
    return (rel.beta_SB, rel.beta_tilde_S, rel.beta_tilde_B, rel.beta_chi, rel.local_S.beta, rel.local_B.beta,
            binding_energy(sys), correlation_inverse_temperature(sys).beta_chi)


def offset(sys, c, which):
    """``sys`` with c I added to H_S (which = 0), H_B (1) or H_I (2)."""
    hams = [sys.H_S.matrix, sys.H_B.matrix, sys.H_I.matrix]
    hams[which] = hams[which] + c * np.eye(len(hams[which]))
    return BipartiteSystem(sys.d_S, sys.d_B, *map(HermitianOperator, hams), sys.rho_SB)


@SETTINGS
@given(system=systems, on_bath=st.booleans(), c=offsets)
def test_bipartite_local_offset(system, on_bath, c):
    h = system.frame.h_B if on_bath else system.frame.h_S
    for got, want in zip(observables(offset(system, c, int(on_bath))), observables(system)):
        assert within(got, want, c, h)


@SETTINGS
@given(system=systems, c=offsets)
def test_bipartite_interaction_offset(system, c):
    # Tr H_I/d enters H_S_eff and H_B_eff, so its rounding can reach every direction.
    f = system.frame
    for got, want in zip(observables(offset(system, c, 2)), observables(system)):
        assert within(got, want, c, min(f.h_S, f.h_B, f.h_I))
