"""Deterministic work counts of one bipartite and one generalized-Gibbs report.

A bipartite report is what ``neqtemp bipartite`` computes: the system, its
correlation temperature, the universal relation and both local temperatures.
Its counts are exact and independent of the dimension, so a change that adds
an eigendecomposition, a matrix logarithm, a unit-direction build, an HH_I
build, a full-dimension spectral product or an operator validation to the
report fails here. A generalized-Gibbs report builds a basis, decomposes and
reconstructs the state over it and evaluates the Helmholtz free energy; its
counts are pinned at d=8. The basis validates its d^2 members as one stack,
so they add no ``HermitianOperator`` validation of their own.

``HermitianOperator`` counts the public, validating constructor only: the
user's matrices and the two marginals. Logarithms and HH_I are cached on
their state and system, so ``logs`` and ``log_hamiltonians`` count the
builds (cache misses), not the calls. ``spectral_products`` counts the
d^3 products of ``SpectralDecomposition`` at the full dimension: its
eigenvector Gram check and each ``apply``. Calls are counted by wrapping from
the test; the package has no hooks. A bare ``@`` calls
``ndarray.__matmul__``, which cannot be wrapped this way, so the other
matrix products are not counted.
"""

import sys

import numpy as np
import pytest

from neqtemp import basis, correlation, linalg
from neqtemp.correlation import BipartiteSystem, correlation_inverse_temperature
from neqtemp.linalg import DensityMatrix, HermitianOperator, SpectralDecomposition
from neqtemp.relation import verify_universal_relation
from neqtemp.thermometry import (
    generalized_gibbs_decomposition,
    helmholtz_free_energy,
    inverse_temperature,
    reconstruct_generalized_gibbs,
)

EXPECTED = {
    "eigh": 3, "HermitianOperator": 6, "hamiltonian_unit": 9, "logs": 3,
    "log_hamiltonians": 1, "spectral_products": 3,
}

#: One generalized-Gibbs report at d=8.
EXPECTED_BASIS = {
    "eigh": 3, "HermitianOperator": 2, "hamiltonian_unit": 4, "logs": 1, "hs_inner": 2,
    "spectral_products": 8,
}


def gibbs_inputs(d_s, d_b, beta, rng):
    """Raw matrices of a global Gibbs state of random GUE Hamiltonians."""

    def gue(d, scale):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return scale * (g + g.conj().T) / 2.0

    h_s, h_b, h_i = gue(d_s, 1.0), gue(d_b, 1.0), gue(d_s * d_b, 0.3)
    total = np.kron(h_s, np.eye(d_b)) + np.kron(np.eye(d_s), h_b) + h_i
    w, v = np.linalg.eigh(total)
    p = np.exp(-beta * (w - w.min()))
    rho = (v * (p / p.sum())) @ v.conj().T
    return h_s, h_b, h_i, (rho + rho.conj().T) / 2.0


def report(d_s, d_b, h_s, h_b, h_i, rho):
    system = BipartiteSystem(
        d_s, d_b,
        HermitianOperator(h_s), HermitianOperator(h_b), HermitianOperator(h_i),
        DensityMatrix(rho),
    )
    correlation_inverse_temperature(system)
    verify_universal_relation(system)
    inverse_temperature(system.rho_S, system.effective.H_S_eff)
    inverse_temperature(system.rho_B, system.effective.H_B_eff)


def basis_report(H, rho):
    h_op, state = HermitianOperator(H), DensityMatrix(rho)
    o1, _ = basis.hamiltonian_unit(h_op)
    ops = basis.complete_basis(h_op.dim, [o1])
    form = generalized_gibbs_decomposition(state, h_op, ops)
    reconstruct_generalized_gibbs(form, h_op, ops)
    helmholtz_free_energy(state, h_op, ops)


def install_counters(monkeypatch, keys, dim):
    counts = dict.fromkeys(keys, 0)

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counted_product(fn):
        def wrapper(self, *args, **kwargs):
            out = fn(self, *args, **kwargs)
            if self.dim == dim:
                counts["spectral_products"] += 1
            return out

        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigh", np.linalg.eigvalsh))
    monkeypatch.setattr(
        HermitianOperator, "__init__",
        counted("HermitianOperator", HermitianOperator.__init__),
    )
    for attr in ("__init__", "apply"):
        monkeypatch.setattr(
            SpectralDecomposition, attr, counted_product(getattr(SpectralDecomposition, attr))
        )
    for key, mod, attr in (("logs", linalg, "_spectral_log"),
                           ("log_hamiltonians", correlation, "_build_log_hamiltonian")):
        if key in counts:
            monkeypatch.setattr(mod, attr, counted(key, getattr(mod, attr)))
    modules = [m for name, m in sys.modules.items() if name.startswith("neqtemp")]
    for key, orig in (("hamiltonian_unit", basis.hamiltonian_unit),
                      ("hs_inner", linalg.hs_inner)):
        if key not in counts:
            continue
        wrapped = counted(key, orig)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, wrapped)
    return counts


@pytest.mark.parametrize("d_s,d_b", [(2, 2), (4, 8)])
def test_bipartite_report_work_counts(monkeypatch, d_s, d_b):
    inputs = gibbs_inputs(d_s, d_b, 0.7, np.random.default_rng(d_s * d_b))
    counts = install_counters(monkeypatch, EXPECTED, d_s * d_b)
    report(d_s, d_b, *inputs)
    assert counts == EXPECTED


def test_basis_report_work_counts(monkeypatch):
    rng = np.random.default_rng(8)
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    H = (g + g.conj().T) / 2.0
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    p = rng.dirichlet(np.ones(8)) + 0.05
    rho = (q * (p / p.sum())) @ q.conj().T
    counts = install_counters(monkeypatch, EXPECTED_BASIS, 8)
    basis_report(H, (rho + rho.conj().T) / 2.0)
    assert counts == EXPECTED_BASIS
