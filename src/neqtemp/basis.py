"""Hilbert-Schmidt orthonormal Hermitian operator bases.

A basis here is an ordered family of d^2 Hermitian operators with
``ops[0] = I/sqrt(d)`` and the remaining members traceless and mutually
orthonormal in the Hilbert-Schmidt inner product. The normalized traceless
Hamiltonian direction is installed as ``ops[1]`` and the rest of the family
is completed by Gram-Schmidt over the generalized Gell-Mann candidates in a
fixed, documented order (symmetric pairs (j,k) lexicographically, then
antisymmetric pairs, then diagonal generators). That ordering makes bases
deterministic and therefore golden-testable; any other completion is related
to it by a tail rotation, which leaves every reported physical quantity
unchanged.

The completion runs in coefficient space. ``{I/sqrt(d)}`` together with the
Gell-Mann family is itself an orthonormal frame, so every Hermitian operator
is a real vector of length d^2 over it: candidate i is the unit vector e_i
and each seed's coordinates come from one matrix product with the frame.
Gram-Schmidt then works on those real vectors, projecting each candidate
twice against the accepted rows (classical Gram-Schmidt with one
reorthogonalization), and the operators come out of one contraction of the
accepted rows with the frame. Candidate order and the ``DROP_TOL`` drop
rule are those of the operator-space algorithm, so the bases agree with it
to rounding; the second projection keeps them orthonormal to about 1e-15.
The work grows as d^6, so :func:`complete_basis` refuses dimensions above
``MAX_BASIS_DIM`` instead of running for minutes.

:class:`OperatorBasis` owns its members as one read-only (d^2, d, d) array,
``mats``, validated as a whole; the members it hands out are views of that
array. Expansions and resummations over a basis are single matrix products
with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import DegenerateDirectionError, NumericalError, ValidationError
from .linalg import HERM_TOL, RANK_TOL, DensityMatrix, HermitianOperator

__all__ = [
    "MAX_BASIS_DIM",
    "OperatorBasis",
    "StateCoordinates",
    "hamiltonian_unit",
    "gell_mann_candidates",
    "complete_basis",
    "expand_state",
    "reconstruct_state",
    "rotate_tail",
]

#: Candidates whose post-projection norm falls below this are discarded.
DROP_TOL = 1e-8

#: Largest dimension :func:`complete_basis` accepts: the largest d whose
#: completion finishes in under 1 s. Measured on a 2-core x86-64 VM (numpy
#: 2.4, OpenBLAS, two threads): 0.62 s at d=32, 0.79 s at d=34, 1.2 s at
#: d=35 and 1.8 s at d=36.
MAX_BASIS_DIM = 34


def hamiltonian_unit(H: HermitianOperator) -> tuple[HermitianOperator, float]:
    """Normalized traceless part of H and its Hilbert-Schmidt weight h.

    Returns ``(O1, h)`` with ``O1 = (H - (Tr H / d) I)/h`` and
    ``h = sqrt(Tr[H^2] - (Tr H)^2/d)``. Adding c I to H leaves the output
    unchanged up to the rounding of H + c I itself, however large c, and so
    does rescaling H (up to h), however small its entries.

    :raises DegenerateDirectionError: if H is proportional to the identity
        (the temperature direction is then undefined, the energy variance
        w.r.t. I/d being zero).
    :raises NumericalError: if h^2 overflows a double (entries of H beyond
        about 1e154).
    """
    if not isinstance(H, HermitianOperator):
        H = HermitianOperator(H)
    traceless, h = _traceless_weight(H.matrix)
    if h <= RANK_TOL * float(np.max(np.abs(H.matrix))):
        raise DegenerateDirectionError(
            "Hamiltonian is proportional to the identity; its traceless direction "
            "(and hence the temperature) is undefined"
        )
    return HermitianOperator._of_computed(traceless / h), h


def _traceless_weight(m: np.ndarray) -> tuple[np.ndarray, float]:
    """The traceless part m - (Tr m / d) I of a Hermitian matrix and its norm h.

    :raises NumericalError: if h^2 overflows a double.
    """
    d = m.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        traceless = np.array(m, dtype=complex)  # m - (Tr m / d) I without a d x d identity
        traceless.flat[:: d + 1] -= float(np.trace(m).real) / d
        traceless.flat[:: d + 1] -= float(np.trace(traceless).real) / d  # the first mean's rounding
        h_sq = float(np.sum(np.abs(traceless) ** 2))
    if not math.isfinite(h_sq):
        raise NumericalError(f"Hamiltonian weight overflows: h^2 = {h_sq!r}")
    return traceless, math.sqrt(h_sq)


def gell_mann_candidates(d: int) -> np.ndarray:
    """Generalized Gell-Mann family for dimension d, unit HS norm.

    Returns a (d^2 - 1, d, d) stack holding, in this fixed order: symmetric
    generators ``(|j><k| + |k><j|)/sqrt(2)`` for j < k lexicographically,
    then the antisymmetric generators ``(-i|j><k| + i|k><j|)/sqrt(2)``, then
    the diagonal generators ``diag(1,...,1,-l,0,...)/sqrt(l(l+1))``.
    """
    j, k = np.triu_indices(d, 1)
    pairs = np.arange(j.size)
    s = 1.0 / math.sqrt(2.0)
    out = np.zeros((d * d - 1, d, d), dtype=complex)
    out[pairs, j, k] = out[pairs, k, j] = s
    out[j.size + pairs, j, k] = -1j * s
    out[j.size + pairs, k, j] = 1j * s
    level = np.arange(1, d)
    norm = np.sqrt(level * (level + 1.0))
    diag = (np.arange(d) < level[:, None]) / norm[:, None]
    diag[level - 1, level] = -level / norm
    out[2 * j.size + level[:, None] - 1, np.arange(d), np.arange(d)] = diag
    return out


def _real_rows(mats: np.ndarray) -> np.ndarray:
    """(n, 2 d^2) real view of a complex (n, d, d) stack.

    Re Tr[A^dag B] is the dot product of two such rows, so Hilbert-Schmidt
    inner products over a stack become one real matrix product.
    """
    return np.ascontiguousarray(mats).reshape(len(mats), -1).view(np.float64)


@dataclass(frozen=True, eq=False)
class OperatorBasis:
    """Ordered Hilbert-Schmidt orthonormal Hermitian basis of d^2 operators.

    ``mats`` is given as a (d^2, d, d) stack or a sequence of d^2 matrices or
    :class:`HermitianOperator` s. The basis validates it once, stores it
    symmetrized and read-only, and hands out its members as views of it.
    """

    dim: int
    mats: np.ndarray = field(repr=False)

    def __post_init__(self):
        d = self.dim
        src = self.mats
        if not isinstance(src, np.ndarray):
            src = [getattr(m, "matrix", m) for m in src]
        try:
            a = np.asarray(src, dtype=complex)
        except ValueError as exc:
            raise ValidationError(f"basis members must be {d}x{d} matrices") from exc
        if a.ndim != 3 or a.shape[1:] != (d, d):
            raise ValidationError(f"basis members must be {d}x{d} matrices, got shape {a.shape}")
        if len(a) != d * d:
            raise ValidationError(f"basis must contain {d * d} operators, got {len(a)}")
        if not np.all(np.isfinite(a)):
            raise ValidationError("basis has non-finite entries")
        # Symmetrize and measure the deviation with two stack-sized buffers.
        adj = a.conj().transpose(0, 2, 1)
        mats = a + adj
        mats *= 0.5
        adj -= a
        dev = float(np.max(np.abs(adj)))
        if dev > HERM_TOL:
            raise ValidationError(f"basis operators are not Hermitian: max deviation {dev:.3e}")
        mats.setflags(write=False)
        object.__setattr__(self, "mats", mats)
        if float(np.max(np.abs(mats[0] - np.eye(d) / math.sqrt(d)))) > 1e-12:
            raise ValidationError("ops[0] must be the normalized identity I/sqrt(d)")
        traces = np.einsum("kii->k", mats[1:])
        if traces.size and float(np.max(np.abs(traces))) > 1e-12:
            raise ValidationError("basis operators beyond ops[0] must be traceless")
        rows = _real_rows(mats)
        gram = rows @ rows.T
        gram[np.diag_indices(d * d)] -= 1.0
        dev = float(np.max(np.abs(gram)))
        if dev > 1e-10:
            raise ValidationError(f"basis is not HS-orthonormal: Gram deviation {dev:.3e}")

    @cached_property
    def ops(self) -> tuple[HermitianOperator, ...]:
        """The members in order, as views of ``mats``."""
        return tuple(HermitianOperator._of_checked(m) for m in self.mats)

    def __len__(self) -> int:
        return len(self.mats)

    def __getitem__(self, i: int) -> HermitianOperator:
        return self.ops[i]

    def coordinates(self, A: HermitianOperator) -> np.ndarray:
        """Tr[O_i A] for every member O_i.

        :raises ValidationError: if A is not Hermitian (then some Tr[O_i A]
            are not real) or not d x d.
        """
        if not isinstance(A, HermitianOperator):
            A = HermitianOperator(A)
        if A.dim != self.dim:
            raise ValidationError(f"dimension mismatch: operator {A.dim}, basis {self.dim}")
        return _real_rows(self.mats) @ _real_rows(A.matrix[None])[0]


@dataclass(frozen=True)
class StateCoordinates:
    """Real expansion coordinates x_i = Tr[rho O_i] of a state."""

    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.array(self.x, dtype=float))
        self.x.setflags(write=False)


def complete_basis(d: int, seeds: list[HermitianOperator]) -> OperatorBasis:
    """Complete ``(I/sqrt(d), *seeds)`` to a full orthonormal basis.

    Seeds must be traceless, unit-norm and mutually orthogonal; they are kept
    at positions 1..len(seeds). Gell-Mann candidates are then orthogonalized
    against everything accepted so far, keeping those whose residual norm is
    at least ``DROP_TOL``. The work is done on real coordinate vectors over
    the frame ``{I/sqrt(d)} + gell_mann_candidates(d)`` (see the module
    docstring).

    :raises ValidationError: for d outside ``1..MAX_BASIS_DIM``, before any
        allocation, or for seeds that break the conditions above.
    """
    if d < 1 or d > MAX_BASIS_DIM:
        raise ValidationError(
            f"unsupported basis dimension {d}; complete_basis accepts 1..{MAX_BASIS_DIM}"
        )
    seed_mats: list[np.ndarray] = []
    for s in seeds:
        m = s.matrix if isinstance(s, HermitianOperator) else HermitianOperator(s).matrix
        if m.shape != (d, d):
            raise ValidationError("seed dimension mismatch")
        if abs(np.trace(m)) > 1e-10:
            raise ValidationError("seeds must be traceless")
        for prev in seed_mats:
            if abs(np.sum(prev.conj() * m).real) > 1e-10:
                raise ValidationError("seeds must be mutually orthogonal")
        norm = math.sqrt(float(np.sum(np.abs(m) ** 2)))
        if abs(norm - 1.0) > 1e-10:
            raise ValidationError("seeds must have unit Hilbert-Schmidt norm")
        seed_mats.append(m)
    n = d * d
    frame = np.concatenate([np.eye(d, dtype=complex)[None] / math.sqrt(d), gell_mann_candidates(d)])
    # Row k holds the frame coordinates of accepted operator k.
    rows = np.zeros((n, n))
    rows[0, 0] = 1.0
    kept = 1 + len(seed_mats)
    if seed_mats:
        rows[1:kept] = _real_rows(np.stack(seed_mats)) @ _real_rows(frame).T
    for i in range(1, n):
        if kept == n:
            break
        acc = rows[:kept]
        # Candidate e_i minus its projection on the accepted rows, then a
        # second projection to remove what rounding left of them.
        v = -(acc[:, i] @ acc)
        v[i] += 1.0
        v -= (acc @ v) @ acc
        norm = math.sqrt(float(v @ v))
        if norm >= DROP_TOL:
            rows[kept] = v / norm
            kept += 1
    if kept != n:
        raise ValidationError(
            f"basis completion produced {kept} of {n} operators; "
            "seeds were likely not independent of the candidate family"
        )
    mats = (rows @ _real_rows(frame)).view(complex).reshape(n, d, d)
    return OperatorBasis(d, mats)


def expand_state(rho: DensityMatrix, basis: OperatorBasis) -> StateCoordinates:
    """Coordinates x_i = Tr[rho O_i]; satisfies Parseval and reconstruction."""
    if rho.dim != basis.dim:
        raise ValidationError(f"dimension mismatch: state {rho.dim}, basis {basis.dim}")
    return StateCoordinates(basis.coordinates(rho.operator))


def reconstruct_state(coords: StateCoordinates, basis: OperatorBasis) -> np.ndarray:
    """Resum sum_i x_i O_i; inverse of expand_state."""
    if coords.x.size != len(basis):
        raise ValidationError("coordinate count does not match basis size")
    return np.tensordot(coords.x, basis.mats, axes=1)


def rotate_tail(basis: OperatorBasis, R: np.ndarray) -> OperatorBasis:
    """Rotate the tail operators ops[2:] by an orthogonal matrix R.

    ops[0] and ops[1] are untouched; the new tail is O'_k = sum_i R[i, k] O_i.
    Physical outputs (beta, the Helmholtz tail sum) are invariant under this.
    """
    n = len(basis) - 2
    r = np.array(R, dtype=float)
    if r.shape != (n, n):
        raise ValidationError(f"rotation must be {n}x{n}, got {r.shape}")
    dev = float(np.max(np.abs(r.T @ r - np.eye(n))))
    if dev > 1e-10:
        raise ValidationError(f"rotation matrix is not orthogonal: deviation {dev:.3e}")
    new_tail = np.tensordot(r.T, basis.mats[2:], axes=1)
    return OperatorBasis(basis.dim, np.concatenate([basis.mats[:2], new_tail]))
