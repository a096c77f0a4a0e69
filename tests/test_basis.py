"""Operator-basis tests: Gell-Mann candidates, completion, state expansion."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from neqtemp import basis as basis_module
from neqtemp.basis import (
    MAX_BASIS_DIM,
    OperatorBasis,
    complete_basis,
    expand_state,
    hamiltonian_unit,
    reconstruct_state,
    rotate_tail,
)
from neqtemp.exceptions import DegenerateDirectionError, ValidationError
from neqtemp.linalg import DensityMatrix, HermitianOperator, hs_inner

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def gue(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return HermitianOperator((g + g.conj().T) / 2.0)


def full_rank(d, rng):
    p = rng.dirichlet(np.ones(d)) + 0.05
    p /= p.sum()
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return DensityMatrix.from_spectrum(p, q)


def reference_candidates(d):
    """The Gell-Mann family built entry by entry, in the documented order."""
    out = []
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = m[k, j] = 1.0 / math.sqrt(2.0)
            out.append(m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1j / math.sqrt(2.0)
            m[k, j] = 1j / math.sqrt(2.0)
            out.append(m)
    for level in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        norm = math.sqrt(level * (level + 1))
        for j in range(level):
            m[j, j] = 1.0 / norm
        m[level, level] = -level / norm
        out.append(m)
    return out


def gell_mann_candidates(d):
    """The completion's candidates: the frame members after I/sqrt(d), from unit coordinates."""
    return basis_module._frame_operators(np.eye(d * d)[1:], d)


def reference_completion(d, seeds):
    """Modified Gram-Schmidt on the operators themselves, one candidate at a time."""
    accepted = [np.eye(d, dtype=complex) / math.sqrt(d)] + [s.matrix for s in seeds]
    for cand in reference_candidates(d):
        if len(accepted) == d * d:
            break
        v = cand.copy()
        for prev in accepted:
            v -= np.sum(prev.conj() * v) * prev
        v = (v + v.conj().T) / 2.0
        norm = math.sqrt(float(np.sum(np.abs(v) ** 2)))
        if norm >= 1e-8:
            accepted.append(v / norm)
    return np.stack(accepted)


def householder_rows(d, seeds):
    """The frame rows of complete_basis(d, seeds), checked against an independent complete QR.

    They are the rows the completion hands to ``OperatorBasis._of_rows``. The
    head rows must be e_0 and the seeds' frame coordinates exactly, every row
    orthonormal within 1e-12, and the tail within 1e-12 of the columns after
    the head's of Q in ``np.linalg.qr(head.T, mode="complete")``.
    """
    seen, of_rows = [], OperatorBasis._of_rows.__func__

    def capture(cls, rows):
        seen.append(rows)
        return of_rows(cls, rows)

    with mock.patch.object(OperatorBasis, "_of_rows", classmethod(capture)):
        complete_basis(d, seeds)
    (rows,) = seen
    m, n = len(seeds), d * d
    seed_rows = basis_module._frame_coordinates(np.array([s.matrix for s in seeds])) if m else np.zeros((0, n))
    head = np.vstack([np.eye(1, n), seed_rows])
    np.testing.assert_array_equal(rows[:m + 1], head)
    assert np.max(np.abs(rows @ rows.T - np.eye(n))) <= 1e-12
    reference = np.linalg.qr(head.T, mode="complete")[0].T[m + 1:]
    assert np.max(np.abs(rows[m + 1:] - reference), initial=0.0) <= 1e-12
    return rows


def orthonormal_seeds(hamiltonians):
    """The unit directions of the Hamiltonians, each orthogonalized against those before it."""
    seeds = []
    for h in hamiltonians:
        o = hamiltonian_unit(HermitianOperator(h))[0].matrix
        for prev in seeds:
            o = o - hs_inner(prev, o) * prev.matrix
        seeds.append(HermitianOperator(o / math.sqrt(float(np.sum(np.abs(o) ** 2)))))
    return seeds


class TestHamiltonianUnit:
    def test_pauli_z(self):
        o1, h = hamiltonian_unit(HermitianOperator(SZ))
        assert h == pytest.approx(math.sqrt(2.0))
        np.testing.assert_allclose(o1.matrix, SZ / math.sqrt(2.0), atol=1e-14)

    def test_identity_shift_invariance(self):
        rng = np.random.default_rng(1)
        H = gue(4, rng)
        o1, h = hamiltonian_unit(H)
        o1s, hs = hamiltonian_unit(HermitianOperator(H.matrix + 3.7 * np.eye(4)))
        assert hs == pytest.approx(h, rel=1e-12)
        np.testing.assert_allclose(o1s.matrix, o1.matrix, atol=1e-12)

    def test_weight_matches_direct_formula(self):
        rng = np.random.default_rng(2)
        for d in (2, 3, 5):
            H = gue(d, rng)
            _, h = hamiltonian_unit(H)
            m = H.matrix
            expected = math.sqrt(
                np.trace(m @ m).real - np.trace(m).real ** 2 / d
            )
            assert h == pytest.approx(expected, rel=1e-12)

    def test_identity_is_degenerate(self):
        with pytest.raises(DegenerateDirectionError):
            hamiltonian_unit(HermitianOperator(2.0 * np.eye(3)))

    @pytest.mark.parametrize("offset", [1e11, 1e13])
    def test_direction_resolved_under_large_offset(self, offset):
        # 0.5 is a multiple of the spacing of doubles near both offsets, so
        # H + c I is stored exactly. Degeneracy is judged on the rounding an
        # offset can leave (at most 0.05 at 1e13), not on max|H|.
        o1, h = hamiltonian_unit(HermitianOperator(np.diag([0.5, -0.5]) + offset * np.eye(2)))
        assert h == pytest.approx(math.sqrt(0.5), rel=1e-15)
        np.testing.assert_allclose(o1.matrix, SZ / math.sqrt(2.0), atol=1e-15)


class TestGellMannCandidates:
    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_count_trace_and_norm(self, d):
        cands = list(gell_mann_candidates(d))
        assert len(cands) == d * d - 1
        for m in cands:
            assert abs(np.trace(m)) < 1e-14
            assert np.sum(np.abs(m) ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_mutually_orthogonal(self):
        cands = list(gell_mann_candidates(3))
        for i, a in enumerate(cands):
            for b in cands[i + 1:]:
                assert abs(np.sum(a.conj() * b)) < 1e-14

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_matches_reference_construction(self, d):
        np.testing.assert_array_equal(
            gell_mann_candidates(d), np.array(reference_candidates(d)).reshape(d * d - 1, d, d)
        )

    def test_qubit_family_is_pauli(self):
        cands = list(gell_mann_candidates(2))
        np.testing.assert_allclose(cands[0], SX / math.sqrt(2.0), atol=1e-14)
        np.testing.assert_allclose(cands[1], SY / math.sqrt(2.0), atol=1e-14)
        np.testing.assert_allclose(cands[2], SZ / math.sqrt(2.0), atol=1e-14)


class TestCompleteBasis:
    def test_qubit_sigma_z_seed(self):
        # The one reflector that takes sigma_z's frame column to e_1 swaps
        # sigma_x and sigma_z, so the tail is sigma_y, then -sigma_x.
        seed = HermitianOperator(SZ / math.sqrt(2.0))
        basis = complete_basis(2, [seed])
        expected = [
            np.eye(2) / math.sqrt(2.0),
            SZ / math.sqrt(2.0),
            SY / math.sqrt(2.0),
            -SX / math.sqrt(2.0),
        ]
        for op, m in zip(basis, expected):
            np.testing.assert_allclose(op.matrix, m, atol=1e-12)
        householder_rows(2, [seed])

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_random_hamiltonian_seed_invariants(self, d):
        rng = np.random.default_rng(d)
        for _ in range(25):
            o1, _ = hamiltonian_unit(gue(d, rng))
            basis = complete_basis(d, [o1])
            assert len(basis) == d * d
            mats = np.stack([op.matrix for op in basis])
            gram = np.einsum("kij,lij->kl", mats.conj(), mats).real
            assert np.max(np.abs(gram - np.eye(d * d))) < 1e-10

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_matches_operator_space_gram_schmidt(self, d):
        # The Householder tail spans what Gram-Schmidt over the candidates
        # spans: the two tails differ by a rotation.
        rng = np.random.default_rng(40 + d)
        o1, _ = hamiltonian_unit(gue(d, rng))
        cands = reference_candidates(d)
        diagonal = HermitianOperator(cands[-1])
        # Equal to the first candidate, which Gram-Schmidt then drops at once.
        first = HermitianOperator(cands[0])
        # Two mid-sequence candidates: Gram-Schmidt drops the later one.
        a, b = len(cands) // 3, 2 * len(cands) // 3
        mid = HermitianOperator((cands[a] + cands[b]) / math.sqrt(2.0))
        o2, _ = hamiltonian_unit(gue(d, rng))
        o2 = o2.matrix - hs_inner(o1, o2) * o1.matrix
        o2 = HermitianOperator(o2 / math.sqrt(hs_inner(o2, o2)))
        for seeds in ([], [o1], [diagonal], [first], [mid], [o1, o2]):
            tail = householder_rows(d, seeds)[len(seeds) + 1:]
            reference = basis_module._frame_coordinates(reference_completion(d, seeds))[len(seeds) + 1:]
            rotation = tail @ reference.T
            assert np.max(np.abs(rotation @ rotation.T - np.eye(len(tail))), initial=0.0) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    @pytest.mark.parametrize("diagonal_scale", [1e-9, 1e-7, 1e-4])
    def test_nearly_off_diagonal_seeds(self, d, diagonal_scale):
        # Seeds whose diagonal (last) coordinates are small leave some
        # Gram-Schmidt residuals near 1e-8, where one projection no longer
        # keeps them orthonormal; the reflectors need no such care.
        rng = np.random.default_rng(60 + d)

        def nearly_off_diagonal():
            g = gue(d, rng).matrix
            return g - np.diag(np.diag(g)) + diagonal_scale * np.diag(rng.normal(size=d))

        seeds = orthonormal_seeds([nearly_off_diagonal(), nearly_off_diagonal()])
        for m in (1, 2):
            householder_rows(d, seeds[:m])

    def test_rejects_traceful_seed(self):
        with pytest.raises(ValidationError, match="seeds must be traceless"):
            complete_basis(2, [HermitianOperator(np.eye(2) / math.sqrt(2.0))])

    def test_rejects_unnormalized_seed(self):
        with pytest.raises(ValidationError, match="seeds are not HS-orthonormal"):
            complete_basis(2, [HermitianOperator(SZ)])

    def test_rejects_non_orthogonal_seeds(self):
        # Both seeds are traceless and of unit norm; their overlap is 1/sqrt(2).
        seeds = [HermitianOperator(SZ / math.sqrt(2.0)), HermitianOperator((SX + SZ) / 2.0)]
        with pytest.raises(ValidationError, match="seeds are not HS-orthonormal"):
            complete_basis(2, seeds)

    def test_rejects_seed_of_wrong_dimension(self):
        seed, _ = hamiltonian_unit(HermitianOperator(np.diag([1.0, 0.0, -1.0])))
        with pytest.raises(ValidationError, match="seed dimension mismatch"):
            complete_basis(2, [seed])

    @pytest.mark.parametrize("rule", ["trace", "norm", "overlap"])
    def test_seeds_meet_the_basis_bounds(self, rule):
        # Each seed set misses one seed rule by 0.9e-10. The seeds are held to
        # the basis's own bounds, Tr O/sqrt(d) within 1e-12/sqrt(d) and a Gram
        # deviation within 1e-10: a trace of 0.9e-10 and a norm of 1 + 0.9e-10
        # (Gram entry 1 + 1.8e-10) are refused as the seeds', an overlap of
        # 0.9e-10 completes.
        eps, z = 0.9e-10, SZ / math.sqrt(2.0)
        seeds, refusal = {
            "trace": ([z + (eps / 2.0) * np.eye(2)], "seeds must be traceless"),
            "norm": ([(1.0 + eps) * z], "seeds are not HS-orthonormal: Gram deviation 1.8"),
            "overlap": ([z, math.sqrt(1.0 - eps**2) * SX / math.sqrt(2.0) + eps * z], None),
        }[rule]
        seeds = [HermitianOperator(m) for m in seeds]
        if refusal is None:
            assert len(complete_basis(2, seeds)) == 4
        else:
            with pytest.raises(ValidationError, match=refusal):
                complete_basis(2, seeds)

    def test_rejects_dimension_above_cap_before_allocating(self, monkeypatch):
        # Every step of a completion that allocates beyond the seed fails here.
        def no_completion(*args, **kwargs):
            raise AssertionError("completion started above the dimension cap")

        seed, _ = hamiltonian_unit(gue(MAX_BASIS_DIM + 1, np.random.default_rng(35)))
        for name in ("_operator", "_frame_coordinates", "_frame_operators", "_check_frame_rows"):
            monkeypatch.setattr(basis_module, name, no_completion)
        monkeypatch.setattr(np.linalg, "qr", no_completion)
        with pytest.raises(ValidationError, match="unsupported basis dimension"):
            complete_basis(MAX_BASIS_DIM + 1, [seed])

    def test_builds_at_cap(self):
        d = MAX_BASIS_DIM
        o1, _ = hamiltonian_unit(gue(d, np.random.default_rng(11)))
        basis = complete_basis(d, [o1])
        assert len(basis) == d * d
        np.testing.assert_allclose(basis[1].matrix, o1.matrix, atol=1e-14)
        gram = basis.mats.reshape(d * d, -1).conj() @ basis.mats.reshape(d * d, -1).T
        assert np.max(np.abs(gram - np.eye(d * d))) < 1e-12

    def test_members_are_views_of_the_read_only_stack(self):
        basis = complete_basis(3, [])
        assert basis.mats.shape == (9, 3, 3)
        assert not basis.mats.flags.writeable
        assert len(tuple(basis)) == len(basis) == 9
        for op, m in zip(basis, basis.mats):
            assert np.shares_memory(op.matrix, basis.mats)
            np.testing.assert_array_equal(op.matrix, m)
            np.testing.assert_array_equal(op.matrix, op.matrix.conj().T)

    @pytest.mark.parametrize("d", range(1, 13))
    def test_completion_equals_its_validated_stack(self, d):
        # The completion's own check in frame coordinates stores what the
        # public constructor would store from the same stack, every member
        # exactly Hermitian.
        rng = np.random.default_rng(100 + d)
        seeds = orthonormal_seeds([gue(d, rng) for _ in range(min(2, d * d - 1))])
        for m in range(len(seeds) + 1):
            mats = complete_basis(d, seeds[:m]).mats
            np.testing.assert_array_equal(mats, OperatorBasis(d, mats).mats)
            np.testing.assert_array_equal(mats, mats.conj().transpose(0, 2, 1))

    def test_frame_rows_checked(self):
        # A completion is checked on its frame coordinates alone; each
        # corruption is refused with the public constructor's message.
        rng = np.random.default_rng(9)
        o1, _ = hamiltonian_unit(gue(3, rng))
        good = basis_module._frame_coordinates(complete_basis(3, [o1]).mats)
        accepted = OperatorBasis._of_rows(good.copy())
        np.testing.assert_array_equal(accepted.mats, basis_module._frame_operators(good, 3))
        corruptions = {
            "not HS-orthonormal": (np.s_[5], good[5] * (1.0 + 1e-9)),
            "non-finite": (np.s_[4, 7], np.nan),
            "normalized identity": (np.s_[0, 3], 1e-9),
            "traceless": (np.s_[6, 0], 1e-9),
        }
        for message, (where, value) in corruptions.items():
            rows = good.copy()
            rows[where] = value
            with pytest.raises(ValidationError, match=message):
                OperatorBasis._of_rows(rows)

    def test_basis_invariant_checks(self):
        good = complete_basis(2, [])
        with pytest.raises(ValidationError):
            OperatorBasis(2, list(good)[1:] + list(good)[:1])

    def test_accepts_members_or_stack(self):
        good = complete_basis(3, [])
        for given in (list(good), good.mats, list(good.mats)):
            np.testing.assert_array_equal(OperatorBasis(3, given).mats, good.mats)

    def test_rejects_non_hermitian_or_misshapen_members(self):
        good = complete_basis(2, [])
        skewed = np.array(good.mats)
        skewed[1, 0, 1] += 1e-6
        with pytest.raises(ValidationError, match="not Hermitian"):
            OperatorBasis(2, skewed)
        with pytest.raises(ValidationError):
            OperatorBasis(2, list(good.mats[:3]) + [np.eye(3)])
        with pytest.raises(ValidationError):
            OperatorBasis(2, good.mats[:3])

    def test_coordinates_reject_non_hermitian_operators(self):
        basis = complete_basis(2, [])
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValidationError, match="not Hermitian"):
            basis.coordinates(a)
        with pytest.raises(ValidationError, match="dimension mismatch"):
            basis.coordinates(HermitianOperator(np.eye(3)))
        np.testing.assert_allclose(
            basis.coordinates(a + a.T), [0.0, math.sqrt(2.0), 0.0, 0.0], atol=1e-15
        )


SETTINGS = settings(derandomize=True, deadline=None, max_examples=150,
                    suppress_health_check=[HealthCheck.too_slow])


def seed_hamiltonians(kind, d, m, rng, eps):
    """m Hamiltonians of one family: GUE, diagonal, sparse, or distinct Gell-Mann candidates plus eps GUE."""
    if kind == "gell-mann":
        cands = gell_mann_candidates(d)
        return [cands[k] + eps * gue(d, rng).matrix for k in rng.choice(len(cands), size=m, replace=False)]
    out = []
    for _ in range(m):
        if kind == "gue":
            out.append(gue(d, rng))
        elif kind == "diagonal":
            out.append(np.diag(rng.normal(size=d)))
        else:
            h = np.where(rng.random((d, d)) < 2.0 / d, gue(d, rng).matrix, 0.0)
            out.append((h + h.conj().T) / 2.0 + np.diag(np.arange(d) == rng.integers(d)))
    return out


class TestHouseholderCompletion:
    """complete_basis is the Householder completion of e_0 and its seeds, for 0, 1 and 2 seeds (derandomized)."""

    @SETTINGS
    @given(d=st.integers(2, 12), m=st.integers(0, 2),
           kind=st.sampled_from(["gue", "diagonal", "sparse", "gell-mann"]), rng_seed=st.integers(0, 2**16),
           eps=st.sampled_from([0.0, 1e-13, 1e-11, 1e-9, 1e-8, 1e-6, 1e-3]))
    def test_completion_matches_qr_reference(self, d, m, kind, rng_seed, eps):
        # The diagonal family's traceless span has d - 1 dimensions.
        if kind == "diagonal":
            m = min(m, d - 1)
        householder_rows(d, orthonormal_seeds(seed_hamiltonians(kind, d, m, np.random.default_rng(rng_seed), eps)))

    @pytest.mark.parametrize("d", [3, 7, 12])
    def test_seed_near_mid_sequence_candidate(self, d):
        # Within 1e-10 of a mid-sequence candidate, which Gram-Schmidt would
        # leave a residual of 1e-10 and drop; the reflectors decide nothing
        # per candidate.
        rng = np.random.default_rng(d)
        cands = gell_mann_candidates(d)
        householder_rows(d, orthonormal_seeds([cands[len(cands) // 2] + 1e-10 * gue(d, rng).matrix]))


class TestExpansion:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_parseval_and_reconstruction(self, d):
        rng = np.random.default_rng(d + 10)
        for _ in range(10):
            rho = full_rank(d, rng)
            o1, _ = hamiltonian_unit(gue(d, rng))
            basis = complete_basis(d, [o1])
            coords = expand_state(rho, basis)
            purity = float(np.trace(rho.matrix @ rho.matrix).real)
            assert np.sum(coords.x**2) == pytest.approx(purity, rel=1e-10)
            recon = reconstruct_state(coords, basis)
            assert np.max(np.abs(recon - rho.matrix)) < 1e-10

    def test_identity_coordinate(self):
        rho = DensityMatrix(np.diag([0.2, 0.8]))
        basis = complete_basis(2, [])
        x = expand_state(rho, basis).x
        assert x[0] == pytest.approx(1.0 / math.sqrt(2.0))


class TestRotateTail:
    def test_preserves_head_and_orthonormality(self):
        rng = np.random.default_rng(7)
        d = 3
        o1, _ = hamiltonian_unit(gue(d, rng))
        basis = complete_basis(d, [o1])
        n = d * d - 2
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        rotated = rotate_tail(basis, q)
        np.testing.assert_allclose(rotated[0].matrix, basis[0].matrix, atol=1e-14)
        np.testing.assert_allclose(rotated[1].matrix, basis[1].matrix, atol=1e-14)
        # Post-init of OperatorBasis re-validates orthonormality, but check the
        # span too: old tail members expand exactly in the new tail.
        old = basis[2].matrix
        back = sum(
            hs_inner(rotated[i], basis[2]) * rotated[i].matrix
            for i in range(2, len(basis))
        )
        np.testing.assert_allclose(back, old, atol=1e-10)

    def test_rejects_non_orthogonal(self):
        basis = complete_basis(2, [])
        with pytest.raises(ValidationError):
            rotate_tail(basis, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_wrong_shape(self):
        basis = complete_basis(2, [])
        with pytest.raises(ValidationError):
            rotate_tail(basis, np.eye(3))
