"""The ascending spectrum read as a prefix and a suffix, against the masked forms (hypothesis, derandomized).

Every spectrum in the package ascends, so the library takes a state's
negative eigenvalues, its ranks and its positive part, and the runs of a
degenerate cluster, by ``searchsorted`` and ``cumsum`` rather than boolean
masks. The forms it replaced are kept in ``oracles``; here the two are held
equal bit for bit on the edges of each rule: exact ties and gaps exactly at
``DEGENERACY_TOL`` times the scale, eigenvalues exactly at ``RANK_TOL`` and at
noise times lambda_max, eigenvalues in [-PSD_TOL, 0) and -0.0, and d = 1.
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from neqtemp.linalg import (
    DEGENERACY_TOL, PSD_TOL, RANK_TOL, DensityMatrix, HermitianOperator, SpectralDecomposition,
)
from neqtemp.thermometry import von_neumann_entropy
from oracles import clusters_by_diff, entropy_by_mask, install_by_clip

EPS = float(np.finfo(float).eps)

SETTINGS = settings(derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def cluster_spectra(draw):
    """An ascending spectrum of 1 to 9 levels at one scale s: optionally -s, then 0 and steps of 0,
    DEGENERACY_TOL s and its neighbouring doubles, twice it, or s/4; optionally mirrored. From 0 the
    first steps of DEGENERACY_TOL s are exact, so gaps fall exactly on the rule's threshold."""
    scale = draw(st.sampled_from([1.0, 3.5, 2.0**-30, 1e-300, 1e300, 0.0]))
    gap = DEGENERACY_TOL * max(scale, 1e-300)
    steps = [0.0, gap, np.nextafter(gap, 0.0), np.nextafter(gap, np.inf), 2.0 * gap, 0.25 * scale]
    w = [-scale] if draw(st.booleans()) else []
    w.append(0.0)
    for step in draw(st.lists(st.sampled_from(steps), max_size=7)):
        w.append(w[-1] + step)
    w = np.array(w)
    return -w[::-1].copy() if draw(st.booleans()) else w


@SETTINGS
@given(w=cluster_spectra())
def test_clusters_match_the_diff_labels(w):
    labels = SpectralDecomposition(w, np.eye(w.size)).clusters()
    reference = clusters_by_diff(w)
    assert labels.dtype == reference.dtype and labels.tobytes() == reference.tobytes()


def test_cluster_gap_exactly_at_the_threshold_splits():
    gap = DEGENERACY_TOL  # the scale is max|w| = 1
    w = np.array([-1.0, 0.0, gap, 2.0 * gap])
    assert w[2] - w[1] == gap and w[3] - w[2] == gap
    assert SpectralDecomposition(w, np.eye(4)).clusters().tolist() == [0, 1, 2, 3]
    w[2:] = np.nextafter(gap, 0.0), 1.0
    assert SpectralDecomposition(w, np.eye(4)).clusters().tolist() == [0, 1, 1, 2]


def _land(w, i, threshold):
    """Move w[i] by a few doubles until w[i] / w.sum() equals ``threshold(w / w.sum())``; False if none does."""
    x = threshold(w / w.sum()) * w.sum()
    for _ in range(8):
        w[i] = x
        wn = w / w.sum()
        if wn[i] == threshold(wn):
            return True
        x = np.nextafter(x, np.inf if wn[i] < threshold(wn) else -np.inf)
    return False


@st.composite
def state_spectra(draw):
    """(w, noise): an ascending spectrum of trace 1 within TRACE_TOL at d = 1..6, and the resolution noise.

    Up to d - 1 levels are edges: 0.0, -0.0, -PSD_TOL, -PSD_TOL/2, the least negative double, RANK_TOL
    and its neighbouring doubles; the rest are positive. Optionally one edge is moved onto RANK_TOL or
    onto noise lambda_max exactly, after normalization.
    """
    d = draw(st.integers(1, 6))
    noise = draw(st.sampled_from([0.0, 4.0 * d * EPS]))
    edges = [0.0, -0.0, -PSD_TOL, -0.5 * PSD_TOL, -5e-324, RANK_TOL,
             np.nextafter(RANK_TOL, 0.0), np.nextafter(RANK_TOL, 1.0)]
    low = np.array(draw(st.lists(st.sampled_from(edges), max_size=d - 1)))
    rest = np.array(draw(st.lists(st.integers(1, 64), min_size=d - low.size, max_size=d - low.size)), float)
    w = np.sort(np.concatenate([low, rest / rest.sum() * (1.0 - low.sum())]))
    target = draw(st.sampled_from(["none", "rank", "noise"])) if low.size else "none"
    if target != "none":
        i = draw(st.integers(0, low.size - 1))
        if target == "rank":
            assume(_land(w, i, lambda wn: RANK_TOL))
        else:
            noise = 4.0 * d * EPS
            assume(_land(w, i, lambda wn: noise * wn[-1]))
        assume(np.all(w[1:] >= w[:-1]))
    return w, noise


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


@SETTINGS
@given(spectrum=state_spectra(), seed=st.integers(0, 2**16), with_recon=st.booleans())
def test_install_and_entropy_match_the_clip_path(spectrum, seed, with_recon):
    # With ``recon`` the spectrum comes as from the eigensolver (DensityMatrix(matrix)), without it as
    # from exact spectral data (DensityMatrix.from_spectrum).
    w, noise = spectrum
    g = np.random.default_rng(seed).normal(size=(2, w.size, w.size))
    v = np.linalg.qr(g[0] + 1j * g[1])[0]
    recon = (v * w) @ v.conj().T if with_recon else None
    rho = object.__new__(DensityMatrix)
    rho._install(w.copy(), v, noise, None if recon is None else recon.copy())
    m, w_ref, rank, resolved = install_by_clip(w, v, noise, recon)
    assert _bits(rho.eigenvalues) == _bits(w_ref)
    assert _bits(rho.matrix) == _bits(HermitianOperator._of_computed(m).matrix)
    assert (rho.rank, rho.resolved_rank) == (rank, resolved)
    assert von_neumann_entropy(rho).hex() == entropy_by_mask(rho.eigenvalues).hex()


def test_edges_are_reached():
    # The strategy's landing reaches both thresholds exactly at these spectra.
    w = np.array([-0.5 * PSD_TOL, RANK_TOL, 0.25, 0.75 + 0.5 * PSD_TOL - RANK_TOL])
    assert _land(w, 1, lambda wn: RANK_TOL) and (w / w.sum())[1] == RANK_TOL
    noise = 16.0 * EPS
    w = np.array([0.0, RANK_TOL, 0.25, 0.75 - RANK_TOL])
    assert _land(w, 1, lambda wn: noise * wn[-1])
    rho = object.__new__(DensityMatrix)
    rho._install(w.copy(), np.eye(4), noise)
    assert rho.eigenvalues[1] == noise * rho.eigenvalues[-1] and rho.resolved_rank == 2
    # A lowest eigenvalue of -0.0 is clipped to 0.0, as the clip path does.
    w = np.array([-0.0, 0.25, 0.75])
    rho = DensityMatrix.from_spectrum(w, np.eye(3))
    assert _bits(rho.eigenvalues) == _bits(install_by_clip(w, np.eye(3), 0.0)[1])
    assert not np.signbit(rho.eigenvalues[0])
