"""Deterministic work counts of one bipartite and one generalized-Gibbs report.

A bipartite report is what ``neqtemp bipartite`` computes: the system, its
correlation temperature, the universal relation and both local temperatures.
Its counts are exact and independent of the dimension, so a change that adds
an eigendecomposition, a matrix logarithm, a joint-space unit-direction
build, an HH_I build, a joint-space d^3 product, Kronecker product or
computed operator, or an operator validation to the report fails here. The
report builds no joint-space operator beyond rho_SB, log rho_SB and H_I_eff:
every temperature is taken by trace algebra. A generalized-Gibbs report
builds a basis, decomposes and reconstructs the state over it and evaluates
the Helmholtz free energy; its counts are pinned at d=8. The basis validates
its d^2 members as one stack, so they add no ``HermitianOperator``
validation of their own.

``HermitianOperator`` counts the public, validating constructor only: the
user's matrices and the two marginals. Logarithms and HH_I are cached on
their state and system, so ``logs`` and ``log_hamiltonians`` count the
builds (cache misses), not the calls. ``products`` counts the d^3 products
at the full dimension d, which ``linalg`` makes through ``_matmul``: the
eigenvector Gram check, the reconstruction check and each spectral function.
``hamiltonian_unit``, ``of_computed`` and ``kron`` count the calls at the
full dimension. Calls are counted by wrapping from the test; the package has
no hooks.
"""

import sys

import numpy as np
import pytest

from neqtemp import basis, correlation, linalg
from neqtemp.correlation import BipartiteSystem, correlation_inverse_temperature
from neqtemp.linalg import DensityMatrix, HermitianOperator
from neqtemp.relation import verify_universal_relation
from neqtemp.thermometry import (
    generalized_gibbs_decomposition,
    helmholtz_free_energy,
    inverse_temperature,
    reconstruct_generalized_gibbs,
)

EXPECTED = {
    "eigh": 3, "HermitianOperator": 6, "hamiltonian_unit": 0, "logs": 3,
    "log_hamiltonians": 0, "products": 3, "of_computed": 3, "kron": 0,
}

#: One generalized-Gibbs report at d=8.
EXPECTED_BASIS = {
    "eigh": 3, "HermitianOperator": 2, "hamiltonian_unit": 4, "logs": 1, "hs_inner": 2,
    "products": 8,
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

    def counted_at_dim(key, fn, shape_of):
        def wrapper(*args, **kwargs):
            counts[key] += shape_of(*args) == dim
            return fn(*args, **kwargs)

        return wrapper

    def cubic(a, b):
        """d for a product of two d x d matrices, else 0."""
        return a.shape[0] if a.shape == b.shape == (a.shape[0],) * 2 else 0

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigh", np.linalg.eigvalsh))
    monkeypatch.setattr(
        HermitianOperator, "__init__",
        counted("HermitianOperator", HermitianOperator.__init__),
    )
    monkeypatch.setattr(linalg, "_matmul", counted_at_dim("products", linalg._matmul, cubic))
    if "of_computed" in counts:
        computed = HermitianOperator._of_computed.__func__
        monkeypatch.setattr(HermitianOperator, "_of_computed", classmethod(
            counted_at_dim("of_computed", computed, lambda cls, m: np.shape(m)[0])))
    if "kron" in counts:
        monkeypatch.setattr(np, "kron", counted_at_dim(
            "kron", np.kron, lambda a, b: np.shape(a)[0] * np.shape(b)[0]))
    for key, mod, attr in (("logs", linalg, "_spectral_log"),
                           ("log_hamiltonians", correlation, "_build_log_hamiltonian")):
        if key in counts:
            monkeypatch.setattr(mod, attr, counted(key, getattr(mod, attr)))
    modules = [m for name, m in sys.modules.items() if name.startswith("neqtemp")]
    for key, orig in (("hamiltonian_unit", basis.hamiltonian_unit),
                      ("hs_inner", linalg.hs_inner)):
        if key not in counts:
            continue
        if key == "hamiltonian_unit":
            wrapped = counted_at_dim(key, orig, lambda h: h.dim)
        else:
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
