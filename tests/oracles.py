"""Reference implementations for the tests.

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

from neqtemp.linalg import DEGENERACY_TOL, RANK_TOL, eig_hermitian


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
