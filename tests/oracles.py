"""Seeded draws and reference implementations for the tests.

Every seeded draw of the test battery comes from :mod:`neqtemp.models` or
from here, as do the bipartite families the tests share and the S<->B
exchange and Haar local-unitary relabellings of a system.

Joint-space operators of a bipartite system, assembled with np.kron. The
library reads every bipartite temperature by trace algebra and forms none
of these operators. The tests build them here, from the system's effective
Hamiltonians, its states and the frame's local directions O_S and O_B, and
never from the frame's scalars (weights, overlaps, h_chi, C), so checking
those scalars against these operators is not a check of the frame against
itself.

Passivity cluster by cluster (:func:`passive_by_blocks`), the loop that
``thermometry.is_passive`` replaced with one vectorized comparison.

The masked forms of the spectral reads, which the library replaced by reading
the ascending spectrum as a prefix and a suffix: cluster labels by ``np.diff``
(:func:`clusters_by_diff`), the unconditional clip and the ``count_nonzero``
ranks of a state's spectrum (:func:`install_by_clip`), the entropy over a
boolean mask (:func:`entropy_by_mask`) and passivity with its cluster starts
by ``np.diff`` and a loop over every cluster (:func:`passive_by_diff`). The
tests hold the library to these bit for bit.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from neqtemp.basis import _frame_operators
from neqtemp.correlation import BipartiteSystem
from neqtemp.linalg import (
    DEGENERACY_TOL, RANK_TOL, DensityMatrix, HermitianOperator, _local_sum, eig_hermitian, tensor_product,
)
from neqtemp.models import _gibbs_state, _haar_unitary, gue_sample, sample_bipartite, sample_full_rank


def gue_matrix(d, rng):
    """(g + g^dag)/2 of a complex Gaussian g, read-only; exactly Hermitian, so ``gue_sample`` stores it as is."""
    return gue_sample(d, rng).matrix


def full_rank(d, rng, floor=0.05):
    """A full-rank state: Dirichlet populations plus ``floor``, renormalized, on a QR eigenbasis."""
    p = rng.dirichlet(np.ones(d)) + floor
    p /= p.sum()
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return DensityMatrix.from_spectrum(p, q)


def gell_mann_candidates(d):
    """The completion's candidates: the frame members after I/sqrt(d), from unit coordinates."""
    return _frame_operators(np.eye(d * d)[1:], d)


def diagonal_product_gibbs(h_s, h_b, beta):
    """The product of the Gibbs states at beta of two diagonal Hamiltonians, each built from its spectrum."""

    def local(h):
        w = np.exp(-beta * np.diag(h.matrix).real)
        return DensityMatrix.from_spectrum(w / w.sum(), np.eye(len(w))).matrix

    return DensityMatrix(tensor_product(local(h_s), local(h_b)))


def bipartite_states():
    """Three ``sample_bipartite`` systems at coupling 0.5: 2x2, 2x3 and 3x4, drawn from one seed-5 stream."""
    rng = np.random.default_rng(5)
    return [sample_bipartite(d_s, d_b, 0.5, rng) for d_s, d_b in [(2, 2), (2, 3), (3, 4)]]


def product_system(seed, d_s=2, d_b=3):
    """A product of two ``sample_full_rank`` marginals, with GUE Hamiltonians."""
    rng = np.random.default_rng(seed)
    rho = DensityMatrix(tensor_product(sample_full_rank(d_s, rng), sample_full_rank(d_b, rng)))
    h_s, h_b = gue_sample(d_s, rng), gue_sample(d_b, rng)
    return BipartiteSystem(d_s, d_b, h_s, h_b, HermitianOperator(0.4 * gue_matrix(d_s * d_b, rng)), rho)


def weakly_coupled(seed, d_s, d_b, g, beta=0.7):
    """The global Gibbs state at beta of H_S x I + I x H_B + g H_I, GUE terms drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    h_s, h_b = gue_sample(d_s, rng), gue_sample(d_b, rng)
    h_i = HermitianOperator(g * gue_matrix(d_s * d_b, rng))
    h_sb = HermitianOperator._of_exact(_local_sum(h_s, h_b, h_i))
    return BipartiteSystem(d_s, d_b, h_s, h_b, h_i, _gibbs_state(eig_hermitian(h_sb), beta))


def rank_deficient_system(seed, d_s, d_b, rank=2):
    """GUE Hamiltonians (0.5 GUE H_I) and a uniform mixture of ``rank`` Haar pure states of the joint space."""
    rng = np.random.default_rng(seed)
    h_s, h_b = gue_sample(d_s, rng), gue_sample(d_b, rng)
    h_i = HermitianOperator(0.5 * gue_matrix(d_s * d_b, rng))
    psi = _haar_unitary(d_s * d_b, rng)[:, :rank]
    return BipartiteSystem(d_s, d_b, h_s, h_b, h_i, DensityMatrix(psi @ psi.conj().T / rank))


def swap(d_s, d_b):
    """The permutation P of the joint space with P (a x b) P^T = b x a for a on d_s levels and b on d_b."""
    i, j = np.divmod(np.arange(d_s * d_b), d_b)  # the joint index i d_b + j of |i> x |j>
    p = np.zeros((d_s * d_b, d_s * d_b))
    p[j * d_s + i, i * d_b + j] = 1.0
    return p


def exchanged(sys):
    """``sys`` with S and B relabelled: (d_B, d_S, H_B, H_S), with H_I and rho_SB conjugated by the swap."""
    p = swap(sys.d_S, sys.d_B)
    return BipartiteSystem(sys.d_B, sys.d_S, sys.H_B, sys.H_S, HermitianOperator(p @ sys.H_I.matrix @ p.T),
                           DensityMatrix(p @ sys.rho_SB.matrix @ p.T))


def locally_rotated(sys, rng):
    """``sys`` with H_S, H_B conjugated by Haar U_S, U_B (``models._haar_unitary``), and H_I, rho_SB by U_S x U_B."""
    u_s, u_b = _haar_unitary(sys.d_S, rng), _haar_unitary(sys.d_B, rng)
    u = np.kron(u_s, u_b)

    def rotated(cls, u, m):
        return cls((u @ m.matrix) @ u.conj().T)

    return BipartiteSystem(sys.d_S, sys.d_B, rotated(HermitianOperator, u_s, sys.H_S),
                           rotated(HermitianOperator, u_b, sys.H_B), rotated(HermitianOperator, u, sys.H_I),
                           rotated(DensityMatrix, u, sys.rho_SB))


class FrameOperators(NamedTuple):
    """The frame's directions in the joint space; O_I and O_chi are None without an interaction."""

    O_S_I: np.ndarray  #: O_S x I
    I_O_B: np.ndarray  #: I x O_B
    O_I: np.ndarray | None
    O_chi: np.ndarray | None
    O1_SB: np.ndarray


def unit(m: np.ndarray) -> np.ndarray:
    """The traceless part of m over its Frobenius norm."""
    t = m - (np.trace(m) / len(m)) * np.eye(len(m))
    return t / np.linalg.norm(t)


def frame_operators(sys) -> FrameOperators:
    """O_S x I, I x O_B, O_I, O_chi and O1_SB of ``sys``.

    O1_SB is the unit direction of H_S_eff x I + I x H_B_eff + H_I_eff, which
    is H_SB up to a multiple of the identity. O_I is the unit direction of
    H_I_eff, or None when H_I_eff's traceless part is rounding on H_I's scale.
    O_chi is O_I less its projections on O_S x I and I x O_B, normalized.
    """
    d_s, d_b, eff = sys.d_S, sys.d_B, sys.effective
    o_s_i = np.kron(sys.frame.O_S.matrix, np.eye(d_b))
    i_o_b = np.kron(np.eye(d_s), sys.frame.O_B.matrix)
    hi = eff.H_I_eff.matrix
    h_sb = np.kron(eff.H_S_eff.matrix, np.eye(d_b)) + np.kron(np.eye(d_s), eff.H_B_eff.matrix) + hi
    scale = max(np.max(np.abs(hi)), np.max(np.abs(sys.H_I.matrix)))
    if np.linalg.norm(hi - (np.trace(hi) / len(hi)) * np.eye(len(hi))) <= 1e-12 * scale:
        return FrameOperators(o_s_i, i_o_b, None, None, unit(h_sb))
    o_i = unit(hi)
    rest = o_i - (np.vdot(o_s_i, o_i).real / d_b) * o_s_i - (np.vdot(i_o_b, o_i).real / d_s) * i_o_b
    return FrameOperators(o_s_i, i_o_b, o_i, rest / np.linalg.norm(rest), unit(h_sb))


def correlations(sys) -> np.ndarray:
    """chi = rho_SB - rho_S x rho_B."""
    return sys.rho_SB.matrix - np.kron(sys.rho_S.matrix, sys.rho_B.matrix)


def passive_by_blocks(rho, H) -> bool:
    """``is_passive`` as a loop over H's energy clusters: one np.ix_ block and one eigvalsh per cluster."""
    spec = eig_hermitian(H)
    labels, v = spec.clusters(), spec.eigenvectors
    r = v.conj().T @ rho.matrix @ v
    if float(np.max(np.abs(r[labels[:, None] != labels]), initial=0.0)) > 1e-10:
        return False
    prev_min = float("inf")
    for k in range(labels[-1] + 1):
        block = r[np.ix_(labels == k, labels == k)]
        pops = np.linalg.eigvalsh((block + block.conj().T) / 2.0)
        if float(pops[-1]) > prev_min + 1e-12:
            return False
        prev_min = float(pops[0])
    return True


def clusters_by_diff(w: np.ndarray) -> np.ndarray:
    """``SpectralDecomposition.clusters`` of the ascending spectrum w, labelled through ``np.diff``."""
    gap = DEGENERACY_TOL * max(abs(float(w[0])), abs(float(w[-1])), 1e-300)
    return np.cumsum(np.diff(w, prepend=w[0]) >= gap)


def install_by_clip(w: np.ndarray, v: np.ndarray, noise: float, recon: np.ndarray | None = None):
    """(stored matrix before symmetrization, spectrum, rank, resolved_rank) of ``DensityMatrix._install``,
    clipping every spectrum and counting the ranks over boolean arrays; the trace and positivity checks
    are the caller's."""
    low = w < 0.0
    if recon is not None and low.any():
        recon = recon - (v[:, low] * w[low]) @ v[:, low].conj().T
    w = np.clip(w, 0.0, None)
    total = float(w.sum())
    w = w / total
    m = (v * w) @ v.conj().T if recon is None else recon / total
    return m, w, int(np.count_nonzero(w > RANK_TOL)), int(np.count_nonzero(w > noise * w[-1]))


def entropy_by_mask(w: np.ndarray) -> float:
    """``von_neumann_entropy`` of the spectrum w, over the mask w > 0."""
    pos = w[w > 0.0]
    return max(0.0, float(-(pos * np.log(pos)).sum()))


def passive_by_diff(rho, H) -> bool:
    """``is_passive`` with its cluster starts taken by ``np.diff`` and every cluster visited by the loop."""
    spec = eig_hermitian(H)
    labels, v = spec.clusters(), spec.eigenvectors
    r = v.conj().T @ rho.matrix @ v
    if float(abs(r[labels[:, None] != labels]).max(initial=0.0)) > 1e-10:
        return False
    starts = np.flatnonzero(np.diff(labels, prepend=-1))
    bounds, pops = [*starts.tolist(), len(labels)], r.diagonal().real.copy()
    for s, e in zip(bounds, bounds[1:]):
        if e - s > 1:
            block = r[s:e, s:e]
            pops[s:e] = np.linalg.eigvalsh((block + block.conj().T) / 2.0)
    return not (np.maximum.reduceat(pops, starts)[1:] > np.minimum.reduceat(pops, starts)[:-1] + 1e-12).any()
