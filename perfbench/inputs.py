"""Seeded inputs and independent reference values for the neqtemp benchmark.

Everything here is plain numpy: the package under test is never imported, so
a change to its samplers or kernels cannot change the inputs, and the values
the reports are checked against come from a few lines of linear algebra that
share no code with it.

An input item is a flat dict of numpy arrays, floats and strings, so that one
item can be written to a ``.npz`` file and read back by a fresh process.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

WORKLOADS = ("bipartite-small", "bipartite-large", "thermo-batch", "basis-gibbs")

#: Range of beta times the spectral width of the (global) Hamiltonian. The
#: upper end keeps the smallest Gibbs population above about e^-8 of the
#: largest, so reading the state back through an eigensolver keeps its digits.
BETA_WIDTH = (1.0, 8.0)

#: Two-qubit exchange points span the ranges of the package's relation grid.
MODEL_BETA = (0.2, 5.0)
MODEL_LAMBDA = (0.05, 1.0)
MODEL_OMEGA_S = (1.0, 5.0)
MODEL_OMEGA_B = (0.5, 1.0)

#: bipartite-small rotation: one two-qubit model point, then one Gibbs system
#: of each size. Five equal classes put p50 and p90 in the middle of a class
#: whatever their latency order, so neither sits on a class boundary.
SMALL_DIMS = ((2, 2), (2, 3), (3, 4), (4, 4))
#: bipartite-large: six d=128 systems for every d=512 system, in this order.
#: The d=512 share (1/7) puts p50 inside the d=128 class and p90 inside the
#: d=512 class, and lets a 30 s run finish well over 100 reports.
LARGE_ROTATION = ((8, 16),) * 6 + ((8, 64),)
#: Five kinds at five dimensions: 25 equal classes, so again p50 and p90 fall
#: mid-class. "mixed" (rho = I/d) takes the beta = 0 branch, "pure" the T = 0 one.
THERMO_KINDS = ("gibbs", "passive", "inverted", "mixed", "pure")
THERMO_DIMS = (2, 3, 4, 5, 6)
BASIS_DIMS = (4, 8, 12)

#: Identity weight mixed into sampled full-rank states (min eigenvalue >= this/d).
FULL_RANK_FLOOR = 0.02

SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_MINUS = SIGMA_PLUS.T.copy()
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, WORKLOADS.index(workload)]))


def gue(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2.0


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def hermitian(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2.0


def from_spectrum(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    return hermitian((v * w) @ v.conj().T)


# --- independent references ---------------------------------------------------


def hs_weight(H: np.ndarray) -> float:
    """Hilbert-Schmidt norm of the traceless part of H."""
    d = H.shape[0]
    t = H - (np.trace(H).real / d) * np.eye(d)
    return math.sqrt(float(np.vdot(t, t).real))


def cov_var_beta(H: np.ndarray, rho: np.ndarray) -> float:
    """Cov(H, -log rho)/Var(H) with moments against I/d, from one eigh of rho."""
    d = H.shape[0]
    w, v = np.linalg.eigh(rho)
    log_rho = (v * np.log(w)) @ v.conj().T
    tr_h = np.trace(H).real
    cov = float(np.vdot(H, -log_rho).real) / d - (tr_h / d) * (-np.trace(log_rho).real / d)
    var = float(np.vdot(H, H).real) / d - (tr_h / d) ** 2
    return cov / var


def beta_bound(d: int, p_ratio: float, h: float, beta: float) -> float:
    """Error bound on a beta read back from a d x d state matrix.

    Roundoff of order d * eps on the state moves log of its smallest
    eigenvalue by that over the eigenvalue ratio; projecting onto the unit
    Hamiltonian direction adds sqrt(d) and divides by its weight h. The
    1e-10 prefactor is the tolerance of the package's own Gibbs and
    relation suites; the distance of an error below it is the headroom.
    """
    return 1e-10 * (d**1.5 * p_ratio / h + abs(beta))


def partial_traces(rho: np.ndarray, d_s: int, d_b: int) -> tuple[np.ndarray, np.ndarray]:
    t = rho.reshape(d_s, d_b, d_s, d_b)
    return np.einsum("ibjb->ij", t), np.einsum("aiaj->ij", t)


def local_references(item: dict) -> None:
    """Add beta_S_ref/beta_B_ref and their bounds for a bipartite item in place.

    H_S_eff = H_S + Tr_B[(I x rho_B) H_I] and symmetrically for B.
    """
    d_s, d_b = int(item["d_S"]), int(item["d_B"])
    rho_s, rho_b = partial_traces(item["rho_SB"], d_s, d_b)
    hi = item["H_I"].reshape(d_s, d_b, d_s, d_b)
    h_s_eff = hermitian(item["H_S"] + np.einsum("cb,ibjc->ij", rho_b, hi))
    h_b_eff = hermitian(item["H_B"] + np.einsum("ca,aicj->ij", rho_s, hi))
    for tag, h, r in (("S", h_s_eff, rho_s), ("B", h_b_eff, rho_b)):
        w = np.linalg.eigvalsh(hermitian(r))
        beta = cov_var_beta(h, hermitian(r))
        item[f"beta_{tag}_ref"] = beta
        item[f"beta_{tag}_bound"] = beta_bound(d_s * d_b, w[-1] / w[0], hs_weight(h), beta)


# --- bipartite Gibbs systems ----------------------------------------------------


def gibbs_bipartite(d_s: int, d_b: int, rng: np.random.Generator) -> dict:
    """Random GUE H_S, H_B, H_I and the global Gibbs state of their sum."""
    d = d_s * d_b
    h_s, h_b = gue(d_s, rng), gue(d_b, rng)
    h_i = gue(d, rng) / math.sqrt(d_b)
    h_sb = np.kron(h_s, np.eye(d_b)) + np.kron(np.eye(d_s), h_b) + h_i
    e, v = np.linalg.eigh(h_sb)
    beta = rng.uniform(*BETA_WIDTH) / (e[-1] - e[0])
    return _with_gibbs_state(
        {"kind": "bipartite", "d_S": d_s, "d_B": d_b, "H_S": h_s, "H_B": h_b, "H_I": h_i},
        h_sb, e, v, beta,
    )


def _with_gibbs_state(item, h_sb, e, v, beta) -> dict:
    p = np.exp(-beta * (e - e[0]))
    p /= p.sum()
    item["rho_SB"] = from_spectrum(p, v)
    item["beta"] = float(beta)
    item["beta_SB_bound"] = beta_bound(h_sb.shape[0], p[0] / p[-1], hs_weight(h_sb), beta)
    local_references(item)
    return item


def two_qubit_point(rng: np.random.Generator) -> dict:
    """Exchange model H_I = lam (s+ x s- + s- x s+) in its global Gibbs state."""
    params = {
        "omega_S": rng.uniform(*MODEL_OMEGA_S),
        "omega_B": rng.uniform(*MODEL_OMEGA_B),
        "lam": rng.uniform(*MODEL_LAMBDA),
        "beta": rng.uniform(*MODEL_BETA),
    }
    h_s = params["omega_S"] / 2.0 * SIGMA_Z
    h_b = params["omega_B"] / 2.0 * SIGMA_Z
    h_i = params["lam"] * (np.kron(SIGMA_PLUS, SIGMA_MINUS) + np.kron(SIGMA_MINUS, SIGMA_PLUS))
    h_sb = np.kron(h_s, np.eye(2)) + np.kron(np.eye(2), h_b) + h_i
    e, v = np.linalg.eigh(h_sb)
    item = {"kind": "model", "d_S": 2, "d_B": 2, "H_S": h_s, "H_B": h_b, "H_I": h_i}
    item.update({f"param_{k}": float(x) for k, x in params.items()})
    return _with_gibbs_state(item, h_sb, e, v, params["beta"])


def _pairs(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def input_document(item: dict) -> dict:
    """The CLI input document for a bipartite or model item."""
    if item["kind"] == "model":
        return {
            "kind": "model",
            "model_params": {k: item[f"param_{k}"] for k in ("omega_S", "omega_B", "lam", "beta")},
        }
    return {
        "kind": "bipartite",
        "dims": [int(item["d_S"]), int(item["d_B"])],
        "matrices": {k: _pairs(item[k]) for k in ("H_S", "H_B", "H_I", "rho_SB")},
    }


# --- single-system pairs ------------------------------------------------------------


def spectral_pair(d: int, kind: str, rng: np.random.Generator) -> dict:
    """(H, rho) for thermo-batch; every kind but "pure" commutes with H.

    Energies are spaced by at least 0.2 so the commuting pairs stay
    commuting after an eigensolver round trip of H.
    """
    if kind == "pure":
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        return {"kind": kind, "d": d, "H": gue(d, rng), "rho": hermitian(np.outer(psi, psi.conj()))}
    u = haar_unitary(d, rng)
    e = np.cumsum(rng.uniform(0.2, 1.5, size=d))
    e -= e.mean()
    item = {"kind": kind, "d": d, "H": from_spectrum(e, u)}
    if kind == "gibbs":
        beta = rng.uniform(*BETA_WIDTH) / (e[-1] - e[0])
        p = np.exp(-beta * (e - e[0]))
        p /= p.sum()
    elif kind == "mixed":
        p = np.full(d, 1.0 / d)
    else:
        p = np.sort(rng.dirichlet(np.ones(d)))
        p = (1.0 - FULL_RANK_FLOOR) * p + FULL_RANK_FLOOR / d
        if kind == "passive":
            p = p[::-1].copy()
    item["rho"] = from_spectrum(p, u)
    # In the common eigenbasis -log rho has eigenvalues -log p against E.
    lp = -np.log(p)
    beta_ref = float(np.mean(e * lp) - np.mean(e) * np.mean(lp)) / float(np.var(e))
    item["beta_ref"] = beta_ref
    item["beta_bound"] = beta_bound(d, p.max() / p.min(), hs_weight(item["H"]), beta_ref)
    return item


def full_rank_pair(d: int, rng: np.random.Generator) -> dict:
    """Random GUE H and a random full-rank state (Wishart mixed with I/d)."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    w = g @ g.conj().T
    rho = hermitian((1.0 - FULL_RANK_FLOOR) * w / np.trace(w).real + FULL_RANK_FLOOR * np.eye(d) / d)
    h = gue(d, rng)
    p = np.linalg.eigvalsh(rho)
    beta = cov_var_beta(h, rho)
    u = float(np.vdot(h, rho).real)
    s = float(-np.sum(p * np.log(p)))
    temp = 1.0 / beta
    b_bound = beta_bound(d, p[-1] / p[0], hs_weight(h), beta)
    return {
        "kind": "full-rank", "d": d, "H": h, "rho": rho,
        "beta_ref": beta, "beta_bound": b_bound,
        "F_ref": u - temp * s,
        # Roundoff in U and S, plus the beta error carried through T = 1/beta.
        "F_bound": 1e-10 * d * (abs(u) + abs(temp) * (s + 1.0)) + s * temp**2 * b_bound,
        "recon_bound": 1e-10 * d * (1.0 + abs(math.log(p[0]))),
    }


# --- pools -----------------------------------------------------------------------


#: Reports in one rotation of each workload; a timed run stops only at the end
#: of a rotation, so every run holds the same mix of inputs.
CYCLE = {
    "bipartite-small": 1 + len(SMALL_DIMS),
    "bipartite-large": len(LARGE_ROTATION),
    "thermo-batch": len(THERMO_KINDS) * len(THERMO_DIMS),
    "basis-gibbs": len(BASIS_DIMS),
}

#: Rotations per pool. A check's error is a fixed function of its input, so
#: the pool size sets how many inputs accuracy_headroom_dec is the median of.
ROTATIONS = {"bipartite-small": 24, "bipartite-large": 4, "thermo-batch": 16, "basis-gibbs": 32}


def make_pool(workload: str, seed: int) -> list[dict]:
    """Every input of one run, in the fixed order the closed loop visits them."""
    rng = rng_for(workload, seed)
    n = CYCLE[workload] * ROTATIONS[workload]
    if workload == "bipartite-small":
        cycle = CYCLE[workload]
        return [
            gibbs_bipartite(*SMALL_DIMS[i % cycle - 1], rng) if i % cycle else two_qubit_point(rng)
            for i in range(n)
        ]
    if workload == "bipartite-large":
        return [gibbs_bipartite(*LARGE_ROTATION[i % len(LARGE_ROTATION)], rng) for i in range(n)]
    if workload == "thermo-batch":
        return [
            spectral_pair(THERMO_DIMS[(i // len(THERMO_KINDS)) % len(THERMO_DIMS)],
                          THERMO_KINDS[i % len(THERMO_KINDS)], rng)
            for i in range(n)
        ]
    if workload == "basis-gibbs":
        return [full_rank_pair(BASIS_DIMS[i % len(BASIS_DIMS)], rng) for i in range(n)]
    raise ValueError(f"unknown workload {workload!r}")


def digest(pool: list[dict]) -> str:
    """SHA-256 over every value of every item, in order."""
    h = hashlib.sha256()
    for item in pool:
        for key in sorted(item):
            h.update(key.encode())
            v = item[key]
            if isinstance(v, np.ndarray):
                h.update(np.ascontiguousarray(v).tobytes())
            else:
                h.update(repr(v).encode())
    return h.hexdigest()


def write_documents(pool: list[dict], workdir: str) -> None:
    """Write each bipartite item's CLI input document and set its paths."""
    for i, item in enumerate(pool):
        path = os.path.join(workdir, f"in-{i:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(input_document(item), fh)
        item["doc_path"] = path
        item["out_path"] = os.path.join(workdir, "report.json")


def save_item(item: dict, path: str) -> None:
    np.savez(path, **{k: np.asarray(v) for k, v in item.items()})


def load_item(path: str) -> dict:
    with np.load(path) as z:
        return {k: (z[k][()] if z[k].ndim == 0 else z[k]) for k in z.files}
