"""A one-seed completion equals the batched-SVD completion (hypothesis, derandomized).

With one seed, the seed's coordinates over a candidate's free set form one
column, whose SVD is its norm, so ``complete_basis`` takes every residual in
closed form. :func:`svd_completion` is the general algorithm, a batched SVD of
those columns, kept here as the reference. The seeds come from GUE, diagonal,
sparse and "Gell-Mann candidate + eps GUE" Hamiltonians: a small eps leaves the
seed close to one candidate, which then drops before the last one kept, and
the completion takes a second pass with that candidate freed for the ones
after it.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from neqtemp import basis as basis_module
from neqtemp.basis import DROP_TOL, RANGE_TOL, complete_basis, hamiltonian_unit
from neqtemp.linalg import HermitianOperator

SETTINGS = settings(derandomize=True, deadline=None, max_examples=150,
                    suppress_health_check=[HealthCheck.too_slow])


def svd_completion(d, seeds):
    """Frame coordinates of the completion, every residual from one batched SVD; and its pass count."""
    n = d * d
    need = n - 1 - len(seeds)
    s = basis_module._frame_coordinates(np.array([o.matrix for o in seeds]))
    t = s[:, 1:].T
    later = np.arange(n - 1) > np.arange(n - 1)[:, None]
    skipped = np.zeros(n - 1, dtype=bool)
    for passes in range(1, len(seeds) + 2):
        free = later | skipped
        free.flat[::n] = False
        u, sig, vh = np.linalg.svd(free[:, :, None] * t, full_matrices=False)
        c = (vh @ t[:, :, None])[:, :, 0]
        null = sig <= RANGE_TOL
        ratio = np.divide(c, sig, out=np.zeros_like(c), where=~null)
        gamma = 1.0 + (ratio * ratio).sum(axis=1)
        drop = (gamma * DROP_TOL**2 > 1.0) | (null & (np.abs(c) > RANGE_TOL)).any(axis=1)
        idx = np.flatnonzero(~drop)[:need]
        first = np.flatnonzero(drop & ~skipped)[:1]
        if not first.size or idx.size == need and not (first < idx[-1:]).any():
            break
        skipped[first] = True
    assert idx.size == need
    scale = 1.0 / np.sqrt(gamma[idx])
    rows = np.zeros((n, n))
    rows[0, 0] = 1.0
    rows[1:n - need] = s
    rows[n - need:, 1:] = np.einsum("kjb,kb->kj", u[idx], ratio[idx] * -scale[:, None]) * free[idx]
    rows[n - need + np.arange(need), idx + 1] = scale
    return rows, passes


def gell_mann_candidates(d):
    """The completion's candidates: the frame members after I/sqrt(d), from unit coordinates."""
    return basis_module._frame_operators(np.eye(d * d)[1:], d)


def gue(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2.0


def seed_hamiltonian(kind, d, rng, eps):
    if kind == "gue":
        return gue(d, rng)
    if kind == "diagonal":
        return np.diag(rng.normal(size=d)).astype(complex)
    if kind == "sparse":
        h = np.where(rng.random((d, d)) < 2.0 / d, gue(d, rng), 0.0)
        return (h + h.conj().T) / 2.0 + np.diag(np.arange(d) == rng.integers(d))
    cands = gell_mann_candidates(d)
    return cands[rng.integers(len(cands))] + eps * gue(d, rng)


def check_one_seed(d, seed):
    completed = complete_basis(d, [seed])
    rows = basis_module._frame_coordinates(completed.mats)
    reference, passes = svd_completion(d, [seed])
    assert np.max(np.abs(rows - reference)) <= 1e-12
    assert np.max(np.abs(rows @ rows.T - np.eye(d * d))) <= 1e-12
    return passes


@SETTINGS
@given(d=st.integers(2, 12), kind=st.sampled_from(["gue", "diagonal", "sparse", "gell-mann"]),
       rng_seed=st.integers(0, 2**16), eps=st.sampled_from([0.0, 1e-13, 1e-11, 1e-9, 1e-8, 1e-6, 1e-3]))
def test_one_seed_completion_matches_batched_svd(d, kind, rng_seed, eps):
    h = seed_hamiltonian(kind, d, np.random.default_rng(rng_seed), eps)
    check_one_seed(d, hamiltonian_unit(HermitianOperator(h))[0])


@pytest.mark.parametrize("d", [3, 7, 12])
def test_candidate_dropped_mid_sequence_takes_second_pass(d):
    # The seed is within 1e-10 of a mid-sequence candidate, which drops; the
    # candidates after it then see it among their free ones.
    rng = np.random.default_rng(d)
    cands = gell_mann_candidates(d)
    seed, _ = hamiltonian_unit(HermitianOperator(cands[len(cands) // 2] + 1e-10 * gue(d, rng)))
    assert check_one_seed(d, seed) == 2


@pytest.mark.parametrize("d", [2, 5, 12])
def test_two_seed_completion_is_the_batched_svd(d):
    rng = np.random.default_rng(d)
    o1, _ = hamiltonian_unit(HermitianOperator(gue(d, rng)))
    h2 = gue(d, rng)
    o2, _ = hamiltonian_unit(HermitianOperator(h2 - np.sum(o1.matrix.conj() * h2).real * o1.matrix))
    reference, _ = svd_completion(d, [o1, o2])
    assert np.array_equal(complete_basis(d, [o1, o2]).mats, basis_module._frame_operators(reference, d))
