"""Symmetry laws of the bipartite temperatures, which need no reference value.

Exchange: relabelling S and B, with H_I and rho_SB conjugated by the swap
permutation, leaves beta_SB, beta_chi, the residual, U_chi and S_chi in
place and trades beta_S with beta_B and beta_tilde_S with beta_tilde_B.
Local unitaries: conjugating H_S by U_S, H_B by U_B, and H_I and rho_SB by
U_S x U_B leaves every temperature, the residual, U_chi and S_chi in place.
Both hold to 1e-12 max(1, |value|) on generic, global Gibbs, product and
rank-deficient states at unequal d_S and d_B, up to 3 x 4.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from neqtemp.models import sample_bipartite
from neqtemp.relation import verify_universal_relation
from oracles import exchanged, locally_rotated, product_system, rank_deficient_system, weakly_coupled

SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)

FAMILIES = {
    "generic": lambda seed, d_s, d_b: sample_bipartite(d_s, d_b, 0.5, np.random.default_rng(seed)),
    "gibbs": lambda seed, d_s, d_b: weakly_coupled(seed, d_s, d_b, 0.3),
    "product": product_system,
    "rank-deficient": rank_deficient_system,
}

states = st.builds(lambda family, seed, dims: FAMILIES[family](seed, *dims), st.sampled_from(sorted(FAMILIES)),
                   st.integers(0, 2**16), st.sampled_from([(2, 3), (3, 2), (2, 4), (4, 2), (3, 4), (4, 3)]))


def observables(sys):
    """The relation's report of ``sys`` as a dict of its temperatures, residual, U_chi and S_chi."""
    r = verify_universal_relation(sys)
    return {"beta_SB": r.beta_SB, "beta_chi": r.beta_chi, "residual": r.residual, "U_chi": r.U_chi,
            "S_chi": r.S_chi, "beta_S": r.local_S.beta, "beta_B": r.local_B.beta,
            "beta_tilde_S": r.beta_tilde_S, "beta_tilde_B": r.beta_tilde_B}


def assert_in_place(got, want):
    for name, value in want.items():
        assert abs(got[name] - value) <= 1e-12 * max(1.0, abs(value)), (name, got[name], value)


@SETTINGS
@given(sys=states)
def test_exchange_trades_the_local_temperatures(sys):
    swapped = observables(exchanged(sys))
    for a, b in (("beta_S", "beta_B"), ("beta_tilde_S", "beta_tilde_B")):
        swapped[a], swapped[b] = swapped[b], swapped[a]
    assert_in_place(swapped, observables(sys))


@SETTINGS
@given(sys=states, seed=st.integers(0, 2**16))
def test_local_unitaries_leave_every_temperature(sys, seed):
    assert_in_place(observables(locally_rotated(sys, np.random.default_rng(seed))), observables(sys))
