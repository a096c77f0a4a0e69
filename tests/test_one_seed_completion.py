"""A seeded completion spans the batched-SVD completion's tail (hypothesis, derandomized).

:func:`svd_completion` is the operator-space Gram-Schmidt of the Gell-Mann
candidates against I/sqrt(d) and the seeds, every residual from one batched SVD
of the seeds' coordinates over each candidate's free set, with its drop rule
and second pass. It is kept here as an independent reference for
``complete_basis``, which completes the same head by one Householder QR: the
two share the head (e_0 and the seeds' frame coordinates) exactly, and their
tails are two orthonormal bases of one complement, so each is an orthogonal
rotation of the other and every basis-invariant output agrees to rounding. The
seeds come from GUE, diagonal, sparse and "Gell-Mann candidate + eps GUE"
Hamiltonians: a small eps leaves the seed close to one candidate, which the
reference drops.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from neqtemp import basis as basis_module
from neqtemp.basis import complete_basis, hamiltonian_unit
from neqtemp.linalg import HermitianOperator
from oracles import gell_mann_candidates, gue_matrix

SETTINGS = settings(derandomize=True, deadline=None, max_examples=150,
                    suppress_health_check=[HealthCheck.too_slow])

#: The reference's drop rule: candidates whose residual norm falls below this are discarded.
DROP_TOL = 1e-8

#: Singular values at or below this are taken as zero, and so are the
#: candidate's coordinates along them.
RANGE_TOL = 1e-13


def svd_completion(d, seeds):
    """Frame coordinates of the Gram-Schmidt completion, every residual from one batched SVD."""
    n = d * d
    need = n - 1 - len(seeds)
    s = basis_module._frame_coordinates(np.array([o.matrix for o in seeds]))
    t = s[:, 1:].T
    later = np.arange(n - 1) > np.arange(n - 1)[:, None]
    skipped = np.zeros(n - 1, dtype=bool)
    for _ in range(len(seeds) + 1):
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
    return rows


def seed_hamiltonian(kind, d, rng, eps):
    if kind == "gue":
        return gue_matrix(d, rng)
    if kind == "diagonal":
        return np.diag(rng.normal(size=d)).astype(complex)
    if kind == "sparse":
        h = np.where(rng.random((d, d)) < 2.0 / d, gue_matrix(d, rng), 0.0)
        return (h + h.conj().T) / 2.0 + np.diag(np.arange(d) == rng.integers(d))
    cands = gell_mann_candidates(d)
    return cands[rng.integers(len(cands))] + eps * gue_matrix(d, rng)


def check_spans_reference(d, seeds):
    """complete_basis shares the reference's head exactly and its tail up to a rotation within 1e-12."""
    completed = complete_basis(d, seeds)
    rows = basis_module._frame_coordinates(completed.mats)
    reference = svd_completion(d, seeds)
    head = len(seeds) + 1
    np.testing.assert_array_equal(completed.mats[:head], basis_module._frame_operators(reference, d)[:head])
    assert np.max(np.abs(reference @ reference.T - np.eye(d * d))) <= 1e-12
    rotation = rows[head:] @ reference[head:].T
    assert np.max(np.abs(rotation @ rotation.T - np.eye(d * d - head)), initial=0.0) <= 1e-12
    assert np.max(np.abs(rows[head:] - rotation @ reference[head:]), initial=0.0) <= 1e-12


@SETTINGS
@given(d=st.integers(2, 12), kind=st.sampled_from(["gue", "diagonal", "sparse", "gell-mann"]),
       rng_seed=st.integers(0, 2**16), eps=st.sampled_from([0.0, 1e-13, 1e-11, 1e-9, 1e-8, 1e-6, 1e-3]))
def test_one_seed_completion_matches_batched_svd(d, kind, rng_seed, eps):
    h = seed_hamiltonian(kind, d, np.random.default_rng(rng_seed), eps)
    check_spans_reference(d, [hamiltonian_unit(HermitianOperator(h))[0]])


@pytest.mark.parametrize("d", [2, 5, 12])
def test_two_seed_completion_is_the_batched_svd(d):
    rng = np.random.default_rng(d)
    o1, _ = hamiltonian_unit(HermitianOperator(gue_matrix(d, rng)))
    h2 = gue_matrix(d, rng)
    o2, _ = hamiltonian_unit(HermitianOperator(h2 - np.sum(o1.matrix.conj() * h2).real * o1.matrix))
    check_spans_reference(d, [o1, o2])
