"""Deterministic work counts of one bipartite and one generalized-Gibbs report.

A bipartite report is the library calls behind ``neqtemp bipartite``: the
system, its correlation temperature and the universal relation, whose result
carries both local temperatures. Its counts are exact and independent of the
dimension, so a change that adds an eigendecomposition, a matrix logarithm,
a joint-space unit-direction build, an HH_I build, a joint-space d^3
product, Kronecker product or computed operator, or an operator validation
to the report fails here. The report builds no joint-space operator beyond
rho_SB, log rho_SB and H_I_eff: every temperature is taken by trace algebra.
The CLI report itself is pinned by its temperature work: one temperature
record per clip, and one temperature per marginal, taken from the unit
direction the frame already holds (no public ``inverse_temperature``, one
``hamiltonian_unit`` per local Hamiltonian). Of the joint-space matrices,
``as_complex_matrix`` copies and scans only the user's H_I and rho_SB. The
report echoes the input's text as read: ``json.dumps`` never receives the
document's matrices. A generalized-Gibbs report builds a basis, decomposes
and reconstructs the state over it and evaluates the Helmholtz free energy;
its counts are pinned at d=8. The basis validates its d^2 members as one
stack, so they add no ``HermitianOperator`` validation of their own. Its
completion from O1, like one from two seeds, is one Householder QR, with no
SVD (``svd``). The completion checks its basis in frame coordinates, so
the public validation, ``OperatorBasis.__post_init__`` (``OperatorBasis``),
runs only for a basis built from the user's matrices. The report takes H's
unit direction once, to seed the basis (``hamiltonian_unit``); every
analysis over the basis reads it from ``basis[1]`` and checks it against the
unit kept on H, so H's traceless part and weight are derived once
(``unit_weight``). The analyses read the basis's frame coordinates, so the
report never builds the (d^2, d, d) operator stack (``stacks`` counts the
``_frame_operators`` calls given all d^2 rows). A single-system report
at d=6 validates H and rho, takes beta and the passivity verdict: two
eigendecompositions, rho's and H's, and one more per degenerate energy
cluster of H, and 7 d^3 products: two checks per eigendecomposition, the
logarithm, and the two that take rho into H's eigenbasis for passivity.

``HermitianOperator`` counts the public, validating constructor only: the
user's matrices (the marginals are computed operators). Logarithms and
bipartite reports are cached on their state and system, so ``logs`` and
``records`` count the builds (cache misses), not the calls. ``products`` counts the d^3 products
at the full dimension d, which the package makes through ``linalg._matmul``: the
eigenvector Gram check, the reconstruction check, each spectral function, and
the eigenbasis changes of ``is_passive`` and ``variation_split``.
``hamiltonian_unit``, ``of_computed``, ``kron`` and ``coerced`` count the
calls at the full dimension. ``of_computed`` counts the products wrapped
(symmetrized): a state and its logarithms. The sums H_I_eff and O1 take the
exact route, ``_of_exact``, and are not counted. Calls are counted by wrapping from the test; the
package has no hooks.
"""

import json
import sys

import numpy as np
import pytest

from neqtemp import basis, cli, correlation, linalg, thermometry
from neqtemp.correlation import BipartiteSystem, correlation_inverse_temperature
from neqtemp.io import matrix_to_pairs
from neqtemp.linalg import DensityMatrix, HermitianOperator
from neqtemp.relation import verify_universal_relation
from neqtemp.thermometry import (
    DEFAULT_CLIP,
    generalized_gibbs_decomposition,
    helmholtz_free_energy,
    inverse_temperature,
    reconstruct_generalized_gibbs,
)
from oracles import gue_matrix

EXPECTED = {
    "eigh": 3, "HermitianOperator": 4, "hamiltonian_unit": 0, "logs": 3,
    "log_hamiltonians": 0, "products": 3, "of_computed": 2, "kron": 0,
}

#: One single-system report at d=6, with a nondegenerate H: the state's and H's eigendecompositions.
EXPECTED_SINGLE = {"eigh": 2, "HermitianOperator": 2, "hamiltonian_unit": 1, "logs": 1, "products": 7,
                   "of_computed": 2}

#: One generalized-Gibbs report at d=8.
EXPECTED_BASIS = {
    "eigh": 2, "HermitianOperator": 2, "hamiltonian_unit": 1, "logs": 1, "hs_inner": 0,
    "products": 6, "svd": 0, "OperatorBasis": 0, "unit_weight": 1, "stacks": 0,
}


def gibbs_inputs(d_s, d_b, beta, rng):
    """Raw matrices of a global Gibbs state of random GUE Hamiltonians."""
    h_s, h_b, h_i = gue_matrix(d_s, rng), gue_matrix(d_b, rng), 0.3 * gue_matrix(d_s * d_b, rng)
    total = np.kron(h_s, np.eye(d_b)) + np.kron(np.eye(d_s), h_b) + h_i
    w, v = np.linalg.eigh(total)
    p = np.exp(-beta * (w - w.min()))
    rho = (v * (p / p.sum())) @ v.conj().T
    return h_s, h_b, h_i, (rho + rho.conj().T) / 2.0


def system_of(d_s, d_b, h_s, h_b, h_i, rho):
    return BipartiteSystem(
        d_s, d_b,
        HermitianOperator(h_s), HermitianOperator(h_b), HermitianOperator(h_i),
        DensityMatrix(rho),
    )


def report(d_s, d_b, h_s, h_b, h_i, rho):
    system = system_of(d_s, d_b, h_s, h_b, h_i, rho)
    correlation_inverse_temperature(system)
    verify_universal_relation(system)


def single_report(H, rho):
    h_op, state = HermitianOperator(H), DensityMatrix(rho)
    inverse_temperature(state, h_op)
    thermometry.is_passive(state, h_op)


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
    if "of_computed" in counts:
        computed = HermitianOperator._of_computed.__func__
        monkeypatch.setattr(HermitianOperator, "_of_computed", classmethod(
            counted_at_dim("of_computed", computed, lambda cls, m: np.shape(m)[0])))
    if "kron" in counts:
        monkeypatch.setattr(np, "kron", counted_at_dim(
            "kron", np.kron, lambda a, b: np.shape(a)[0] * np.shape(b)[0]))
    if "OperatorBasis" in counts:
        monkeypatch.setattr(basis.OperatorBasis, "__post_init__", counted(
            "OperatorBasis", basis.OperatorBasis.__post_init__))
    if "svd" in counts:
        monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    if "coerced" in counts:
        monkeypatch.setattr(linalg, "as_complex_matrix", counted_at_dim(
            "coerced", linalg.as_complex_matrix, lambda a: np.shape(a)[0]))
    for key, mod, attr in (("logs", linalg, "_spectral_log"),
                           ("log_hamiltonians", correlation, "correlation_log_hamiltonian"),
                           ("records", correlation, "_build_report")):
        if key in counts:
            monkeypatch.setattr(mod, attr, counted(key, getattr(mod, attr)))
    modules = [m for name, m in sys.modules.items() if name.startswith("neqtemp")]
    for key, orig in (("products", linalg._matmul),
                      ("hamiltonian_unit", basis.hamiltonian_unit),
                      ("unit_weight", basis._unit_weight),
                      ("stacks", basis._frame_operators),
                      ("hs_inner", linalg.hs_inner),
                      ("inverse_temperature", thermometry.inverse_temperature),
                      ("temperatures", thermometry._inverse_temperature)):
        if key not in counts:
            continue
        if key == "products":
            wrapped = counted_at_dim(key, orig, cubic)
        elif key == "hamiltonian_unit":
            wrapped = counted_at_dim(key, orig, lambda h: h.dim)
        elif key == "stacks":
            wrapped = counted_at_dim(key, orig, lambda rows, d: d if len(rows) == d * d else 0)
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
    counts = install_counters(monkeypatch, {**EXPECTED, "coerced": 0}, d_s * d_b)
    report(d_s, d_b, *inputs)
    # Of the joint-space matrices only the user's H_I and rho_SB are coerced (copied and scanned).
    assert counts == {**EXPECTED, "coerced": 2}


@pytest.mark.parametrize("clip", [[], ["--clip", "0.2"]])
def test_cli_bipartite_temperature_work(monkeypatch, tmp_path, clip):
    inputs = gibbs_inputs(2, 3, 0.7, np.random.default_rng(23))
    names = ("H_S", "H_B", "H_I", "rho_SB")
    matrices = {n: matrix_to_pairs(m) for n, m in zip(names, inputs)}
    doc = {"kind": "bipartite", "dims": [2, 3], "matrices": matrices}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    expected = {"eigh": 3, "HermitianOperator": 4, "products": 3, "inverse_temperature": 0, "temperatures": 2,
                "records": 1}
    counts = install_counters(monkeypatch, expected, 6)
    unit_dims, orig_unit = [], basis.hamiltonian_unit

    def unit(H):
        unit_dims.append(H.dim)
        return orig_unit(H)

    for mod in (correlation, thermometry):
        monkeypatch.setattr(mod, "hamiltonian_unit", unit)
    assert cli.main(["bipartite", str(path), "--out", str(tmp_path / "out.json"), *clip]) == 0
    assert counts == expected
    assert unit_dims == [2, 3]  # H_S_eff and H_B_eff, once each


def holds(obj, target) -> bool:
    """True when target is obj or sits anywhere inside its dicts, lists and tuples."""
    if obj == target:
        return True
    if isinstance(obj, dict):
        obj = obj.values()
    elif not isinstance(obj, (list, tuple)):
        return False
    return any(holds(item, target) for item in obj)


def test_cli_report_never_reencodes_the_input(monkeypatch, tmp_path):
    inputs = gibbs_inputs(4, 4, 0.7, np.random.default_rng(44))
    matrices = {n: matrix_to_pairs(m) for n, m in zip(("H_S", "H_B", "H_I", "rho_SB"), inputs)}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"kind": "bipartite", "dims": [4, 4], "matrices": matrices}))
    encoded, dumps = [], json.dumps

    def recording(obj, *args, **kwargs):
        encoded.append(obj)
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr("neqtemp.io.json.dumps", recording)
    assert cli.main(["bipartite", str(path), "--out", str(tmp_path / "out.json")]) == 0
    assert encoded, "the report body is encoded"
    assert not any(holds(obj, matrices) for obj in encoded)


@pytest.mark.parametrize("clip", [DEFAULT_CLIP, 0.2])
def test_relation_carries_local_temperatures(clip):
    system = system_of(2, 3, *gibbs_inputs(2, 3, 0.7, np.random.default_rng(23)))
    rel = verify_universal_relation(system, clip)
    assert rel.local_S == inverse_temperature(system.rho_S, system.effective.H_S_eff, clip)
    assert rel.local_B == inverse_temperature(system.rho_B, system.effective.H_B_eff, clip)
    assert rel.local_B.clipped == (clip == 0.2)


@pytest.mark.parametrize("energies,extra_eigh", [
    pytest.param([-1.0, -0.4, 0.1, 0.3, 0.8, 1.5], 0, id="nondegenerate"),
    pytest.param([-1.0, -0.4, 0.3, 0.3, 0.8, 1.5], 1, id="one-degenerate-pair"),
])
def test_single_system_report_work_counts(monkeypatch, energies, extra_eigh):
    rng = np.random.default_rng(6)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    p = np.sort(rng.dirichlet(np.ones(6)) + 0.05)[::-1]
    rho = (q * (p / p.sum())) @ q.conj().T
    H = (q * np.array(energies)) @ q.conj().T
    counts = install_counters(monkeypatch, EXPECTED_SINGLE, 6)
    single_report((H + H.conj().T) / 2.0, (rho + rho.conj().T) / 2.0)
    # Only a degenerate energy cluster takes an eigensolve of its own in is_passive.
    assert counts == {**EXPECTED_SINGLE, "eigh": EXPECTED_SINGLE["eigh"] + extra_eigh}


def test_basis_report_work_counts(monkeypatch):
    rng = np.random.default_rng(8)
    H = gue_matrix(8, rng)
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    p = rng.dirichlet(np.ones(8)) + 0.05
    rho = (q * (p / p.sum())) @ q.conj().T
    counts = install_counters(monkeypatch, EXPECTED_BASIS, 8)
    basis_report(H, (rho + rho.conj().T) / 2.0)
    assert counts == EXPECTED_BASIS


def test_two_seed_completion_takes_no_svd(monkeypatch):
    rng = np.random.default_rng(8)
    g = rng.normal(size=(2, 8, 8)) + 1j * rng.normal(size=(2, 8, 8))
    o1, _ = basis.hamiltonian_unit(HermitianOperator(g[0] + g[0].conj().T))
    h2 = g[1] + g[1].conj().T
    h2 -= np.sum(o1.matrix.conj() * h2).real * o1.matrix
    o2, _ = basis.hamiltonian_unit(HermitianOperator(h2))
    counts = install_counters(monkeypatch, {"svd": 0, "OperatorBasis": 0}, 8)
    basis.complete_basis(8, [o1, o2])
    assert counts == {"svd": 0, "OperatorBasis": 0}


def test_user_basis_is_validated_once(monkeypatch):
    mats = basis.complete_basis(8, []).mats
    counts = install_counters(monkeypatch, {"OperatorBasis": 0, "HermitianOperator": 0}, 8)
    basis.OperatorBasis(8, mats)
    assert counts == {"OperatorBasis": 1, "HermitianOperator": 0}
