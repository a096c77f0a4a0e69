"""Hilbert-Schmidt orthonormal Hermitian operator bases.

A basis here is an ordered family of d^2 Hermitian operators with
``basis[0] = I/sqrt(d)`` and the remaining members traceless and mutually
orthonormal in the Hilbert-Schmidt inner product. The normalized traceless
Hamiltonian direction is installed as ``basis[1]`` and the rest of the family
is completed from the d^2 - 1 generalized Gell-Mann candidates of unit HS
norm, in this fixed order: the symmetric generators
``(|j><k| + |k><j|)/sqrt(2)`` for j < k lexicographically, then the
antisymmetric ``(-i|j><k| + i|k><j|)/sqrt(2)``, then the diagonal
``diag(1,...,1,-l,0,...)/sqrt(l(l+1))`` for l = 1..d-1. That ordering makes
bases deterministic and therefore golden-testable; any other completion is
related to it by a tail rotation, which leaves every reported physical
quantity unchanged.

The completion runs in coefficient space. ``I/sqrt(d)`` followed by the
candidates is itself an orthonormal frame, so every Hermitian operator is a
real vector of length d^2 over it: candidate k is the unit vector e_k, and
the seeds' coordinates come from their entries by index arithmetic. The
head, e_0 followed by the m seeds' rows, is completed by one Householder QR
of its transpose (Householder 1958): the m + 1 reflectors that take the
head's columns to the first m + 1 unit vectors take e_{m+1}, ..., e_{d^2-1}
back to an orthonormal tail orthogonal to the head, to about 1e-15 however
the seeds lie. Without seeds the one reflector is the identity, and the
basis is the frame itself, I/sqrt(d) and the candidates in the order above.
The operators come out of the rows by the same index arithmetic, exactly
Hermitian, and the basis is checked on the rows alone: its Gram matrix is
``rows @ rows.T``, one O(d^6) product. The completion costs O(d^4 (m + 1))
for m seeds, so that product and the operator build dominate, and
:func:`complete_basis` still refuses dimensions above ``MAX_BASIS_DIM``.

:class:`OperatorBasis` owns its members as one read-only (d^2, d, d) array,
``mats``, validated as a whole; the members it hands out are views of that
array. Expansions and resummations over a basis are single matrix products
with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .exceptions import DegenerateDirectionError, NumericalError, ValidationError
from .linalg import (
    _EPS, HERM_TOL, DensityMatrix, HermitianOperator, _check_finite, _check_unitary, _dimension, _frozen, _instance,
    _operator, _real_array, _sized, _state, _symmetrize, as_complex_matrix,
)

__all__ = [
    "MAX_BASIS_DIM",
    "OperatorBasis",
    "StateCoordinates",
    "hamiltonian_unit",
    "complete_basis",
    "expand_state",
    "reconstruct_state",
    "rotate_tail",
]

#: Largest dimension :func:`complete_basis` accepts: a basis is one (d^2, d, d) complex
#: operator stack (21 MB at d=34), checked by a (d^2, d^2) Gram product, O(d^6).
MAX_BASIS_DIM = 34


def hamiltonian_unit(H: HermitianOperator) -> tuple[HermitianOperator, float]:
    """Normalized traceless part of H and its Hilbert-Schmidt weight h.

    Returns ``(O1, h)`` with ``O1 = (H - (Tr H / d) I)/h`` and
    ``h = sqrt(Tr[H^2] - (Tr H)^2/d)``. Adding c I to H leaves the output
    unchanged up to the rounding of H + c I itself, however large c, and so
    does rescaling H (up to h), down to entries of about 1e-150.

    :raises DegenerateDirectionError: if H is proportional to the identity
        (the temperature direction is then undefined): h is at most
        16 sqrt(d) eps |Tr H|/d, the rounding an offset can leave in it.
    :raises NumericalError: if h^2 overflows a double (entries of H beyond
        about 1e154), or underflows to 0 while H is no multiple of the
        identity (a traceless part below about 1e-162).
    """
    traceless, h = _unit_weight(_operator(H))
    return HermitianOperator._of_exact(traceless / h), h


def _unit_weight(H: HermitianOperator) -> tuple[np.ndarray, float]:
    """The traceless part of H and its weight h, under :func:`hamiltonian_unit`'s rules.

    When h^2 underflows to 0 but the traceless part t is not 0, degeneracy is
    judged on the weight rescaled by s = max|t|, s ||t/s||, and a direction
    that is not degenerate raises NumericalError, as h^2 is not representable.
    """
    traceless, h = _traceless_weight(H.matrix)
    underflow = h == 0.0 and traceless.any()
    if underflow:
        s = float(abs(traceless).max())
        h = s * math.sqrt(float((abs(traceless / s) ** 2).sum()))
    if h <= 16.0 * _EPS * abs(H.trace) / math.sqrt(H.dim):
        raise DegenerateDirectionError(
            "Hamiltonian is proportional to the identity; its traceless direction "
            "(and hence the temperature) is undefined"
        )
    if underflow:
        raise NumericalError(f"Hamiltonian weight underflows: h = {h!r} squares to 0")
    return traceless, h


def _basis_direction(H: HermitianOperator, basis: OperatorBasis) -> tuple[HermitianOperator, float]:
    """``(basis[1], h)``, once ``basis[1]`` is checked to be H's unit direction: the one reading of it.

    :raises DegenerateDirectionError: if H is proportional to the identity.
    :raises ValidationError: if ``basis`` is not an :class:`OperatorBasis` of
        H's dimension, or max|H_0/h - basis[1]| exceeds 1e-8, H_0 being the
        traceless part of H.
    """
    basis = _sized(_instance(basis, OperatorBasis), H.dim, "basis[1]")
    traceless, h = _unit_weight(H)
    if float(abs(traceless / h - basis.mats[1]).max()) > 1e-8:
        raise ValidationError("basis[1] must equal the Hamiltonian unit direction of H")
    return basis[1], h


def _traceless(m: np.ndarray) -> np.ndarray:
    """m - (Tr m / d) I as a fresh array; the second pass takes out the first mean's rounding.

    Call it under ``np.errstate(over="ignore", invalid="ignore")``: a trace
    that overflows leaves non-finite entries, which the caller's check refuses.
    """
    d = m.shape[0]
    traceless = np.array(m, dtype=complex, order="C")  # m - (Tr m / d) I without a d x d identity
    diag = traceless.reshape(-1)[:: d + 1]  # a view, as the copy is C-contiguous
    diag -= m.trace().real / d
    diag -= diag.sum().real / d
    return traceless


def _traceless_weight(m: np.ndarray) -> tuple[np.ndarray, float]:
    """The traceless part of a Hermitian matrix and its norm h; NumericalError if h^2 overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        traceless = _traceless(m)
        h_sq = float((abs(traceless) ** 2).sum())
    if not math.isfinite(h_sq):
        raise NumericalError(f"Hamiltonian weight overflows: h^2 = {h_sq!r}")
    return traceless, math.sqrt(h_sq)


@cache
def _frame_layout(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Where the members of the frame, I/sqrt(d) and the candidates, sit.

    Returns the flat positions of entries (j, k) and (k, j) of each pair
    j < k, the frame indices of the diagonal members (I/sqrt(d), then the
    diagonal generators) and their (d, d) diagonals. Read-only, one per d.
    """
    j, k = np.triu_indices(d, 1)
    level = np.arange(1, d)
    norm = np.sqrt(level * (level + 1.0))
    diag = np.empty((d, d))
    diag[0] = 1.0 / math.sqrt(d)
    diag[1:] = (np.arange(d) < level[:, None]) / norm[:, None]
    diag[level, level] = -level / norm
    layout = (j * d + k, k * d + j, np.r_[0, 2 * j.size + 1:d * d], diag)
    for a in layout:
        a.setflags(write=False)
    return layout


def _frame_coordinates(mats: np.ndarray) -> np.ndarray:
    """(m, d^2) real coordinates of a Hermitian (m, d, d) stack over the frame.

    Pair (j, k) has sqrt(2) Re and -sqrt(2) Im of entry (j, k) as its
    symmetric and antisymmetric coordinates; the diagonal takes one product.
    """
    d = mats.shape[-1]
    upper, _, _, diag = _frame_layout(d)
    flat = mats.reshape(len(mats), -1)
    off = flat[:, upper] * math.sqrt(2.0)
    on = flat[:, :: d + 1].real @ diag.T
    return np.concatenate([on[:, :1], off.real, -off.imag, on[:, 1:]], axis=1)


def _frame_operators(rows: np.ndarray, d: int) -> np.ndarray:
    """(N, d, d) operators with the given (N, d^2) frame coordinates.

    The inverse of :func:`_frame_coordinates`, by the same index arithmetic.
    """
    upper, lower, diag_members, diag = _frame_layout(d)
    p = upper.size
    sym = rows[:, 1:p + 1] / math.sqrt(2.0)
    anti = rows[:, p + 1:2 * p + 1] / math.sqrt(2.0)
    out = np.zeros((len(rows), d * d, 2))
    out[:, upper, 0] = out[:, lower, 0] = sym
    out[:, upper, 1] = -anti
    out[:, lower, 1] = anti
    out[:, :: d + 1, 0] = rows[:, diag_members] @ diag
    return out.view(complex).reshape(-1, d, d)


def _check_frame_rows(rows: np.ndarray, what: str = "basis operators") -> None:
    """Raise ValidationError, naming ``what``, unless frame coordinates are orthonormal rows led by e_0.

    ``rows`` is (m, d^2): a whole basis, or I/sqrt(d) followed by seeds. Row
    0 must be e_0 within sqrt(d) 1e-12 in every coordinate, the other rows'
    Tr O_i/sqrt(d) within 1e-12/sqrt(d), and ``rows @ rows.T`` the identity
    within ``UNITARY_TOL`` (``linalg._check_unitary``).
    """
    n, d = rows.shape[1], math.isqrt(rows.shape[1])
    if float(np.max(np.abs(rows[0] - (np.arange(n) == 0)))) > math.sqrt(d) * 1e-12:
        raise ValidationError("basis[0] must be the normalized identity I/sqrt(d)")
    if np.any(np.abs(rows[1:, 0]) > 1e-12 / math.sqrt(d)):
        raise ValidationError(f"{what} must be traceless")
    _check_unitary(rows.T, rows, f"{what} are not HS-orthonormal: Gram deviation")


@dataclass(frozen=True, eq=False)
class OperatorBasis:
    """Ordered Hilbert-Schmidt orthonormal Hermitian basis of d^2 operators.

    ``mats`` is given as a (d^2, d, d) stack or a sequence of d^2 matrices or
    :class:`HermitianOperator` s. The basis validates it once, stores it
    symmetrized and read-only, and hands out its members as views of it: the
    stack is coerced and symmetrized under :class:`HermitianOperator`'s rules,
    and basis[0], the traces and the Gram matrix are checked by
    :func:`_check_frame_rows` alone.
    """

    dim: int
    mats: np.ndarray = field(repr=False)

    def __post_init__(self):
        d, src = _dimension(self.dim), self.mats
        if not isinstance(src, np.ndarray):
            src = [getattr(m, "matrix", m) for m in src]
        a = as_complex_matrix(src, ndim=3)
        if a.shape != (d * d, d, d):
            raise ValidationError(f"basis must hold {d * d} matrices of {d}x{d}, got shape {a.shape}")
        object.__setattr__(self, "mats", _frozen(_symmetrize(a, HERM_TOL)))
        _check_frame_rows(_frame_coordinates(self.mats))

    @classmethod
    def _of_rows(cls, rows: np.ndarray) -> "OperatorBasis":
        """The basis with frame coordinates ``rows``; they alone are checked."""
        _check_finite(rows, "basis")
        _check_frame_rows(rows)
        basis = object.__new__(cls)
        object.__setattr__(basis, "dim", math.isqrt(len(rows)))
        object.__setattr__(basis, "mats", _frozen(_frame_operators(rows, basis.dim)))
        return basis

    def __len__(self) -> int:
        return len(self.mats)

    def __getitem__(self, i: int) -> HermitianOperator:
        return HermitianOperator._of_checked(self.mats[i])

    def coordinates(self, A: HermitianOperator) -> np.ndarray:
        """Tr[O_i A] for every member O_i.

        :raises ValidationError: if A is not Hermitian (then some Tr[O_i A]
            are not real) or not d x d.
        """
        A = _operator(A, self.dim)
        # Re Tr[O_i^dag A] is the dot product of the real views of O_i and A.
        real = np.ascontiguousarray(A.matrix).reshape(-1).view(np.float64)
        return self.mats.reshape(len(self), -1).view(np.float64) @ real


@dataclass(frozen=True)
class StateCoordinates:
    """Real expansion coordinates x_i = Tr[rho O_i] of a state."""

    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _frozen(_real_array(self.x, "coordinates")))


def complete_basis(d: int, seeds: list[HermitianOperator]) -> OperatorBasis:
    """Complete ``(I/sqrt(d), *seeds)`` to a full orthonormal basis.

    Seeds must be traceless, unit-norm and mutually orthogonal; they are kept
    at positions 1..len(seeds), and checked once, on their frame coordinates
    after those of I/sqrt(d), by the basis's own rules (see
    :func:`_check_frame_rows`): Tr O/sqrt(d) within 1e-12/sqrt(d) and the
    Gram matrix within ``UNITARY_TOL``. The tail is frame members m+1 .. d^2-1, for m
    seeds, carried through the Householder reflectors of the head (see the
    module docstring); without seeds the basis is the frame itself.

    :raises ValidationError: for d not an integer in ``1..MAX_BASIS_DIM``,
        before any allocation, or for seeds that break the conditions above.
    """
    if _dimension(d) > MAX_BASIS_DIM:
        raise ValidationError(f"unsupported basis dimension {d}; complete_basis accepts 1..{MAX_BASIS_DIM}")
    if not isinstance(seeds, (list, tuple)):
        raise ValidationError(f"seeds must be a list or tuple of operators, got {type(seeds).__name__}")
    mats = [_operator(seed, d, "seed").matrix for seed in seeds]
    m, n = len(mats), d * d
    # Row a of the head after e_0, the coordinates of I/sqrt(d), holds seed
    # a's frame coordinates; they are held to the basis rules before the completion.
    head = np.vstack([np.eye(1, n), _frame_coordinates(np.array(mats)) if m else np.zeros((0, n))])
    _check_frame_rows(head, "seeds")
    # head.T = Q R with Q = H_0 ... H_m, H_i = I - tau_i v_i v_i^T; the tail is
    # rows m+1 .. n-1 of Q^T, e_j^T H_m ... H_0, and v_i is zero before i.
    h, tau = np.linalg.qr(head.T, mode="raw")
    rows = np.eye(n)
    rows[:m + 1] = head
    for i in range(m, -1, -1):
        v = np.concatenate([[1.0], h[i, i + 1:]])
        rows[m + 1:, i:] -= np.outer(rows[m + 1:, i:] @ (tau[i] * v), v)
    return OperatorBasis._of_rows(rows)


def expand_state(rho: DensityMatrix, basis: OperatorBasis) -> StateCoordinates:
    """Coordinates x_i = Tr[rho O_i]; satisfies Parseval and reconstruction."""
    return StateCoordinates(_instance(basis, OperatorBasis).coordinates(_state(rho, basis.dim).operator))


def reconstruct_state(coords: StateCoordinates, basis: OperatorBasis) -> np.ndarray:
    """Resum sum_i x_i O_i; inverse of expand_state."""
    if _instance(coords, StateCoordinates).x.size != len(_instance(basis, OperatorBasis)):
        raise ValidationError(f"coordinate count mismatch: {coords.x.size}, expected {len(basis)}")
    return np.tensordot(coords.x, basis.mats, axes=1)


def rotate_tail(basis: OperatorBasis, R: np.ndarray) -> OperatorBasis:
    """Rotate the tail operators basis[2:] by an orthogonal matrix R.

    basis[0] and basis[1] are untouched; the new tail is O'_k = sum_i R[i, k] O_i.
    Physical outputs (beta, the Helmholtz tail sum) are invariant under this.
    """
    if _instance(basis, OperatorBasis).dim == 1:
        raise ValidationError("a basis of dimension 1 has no basis[1] and no tail to rotate")
    n, r = len(basis) - 2, _real_array(R, "rotation", 2)
    if r.shape != (n, n):
        raise ValidationError(f"rotation must be {n}x{n}, got {r.shape}")
    _check_unitary(r, r.T, "rotation matrix is not orthogonal: deviation")
    new_tail = np.tensordot(r.T, basis.mats[2:], axes=1)
    return OperatorBasis(basis.dim, np.concatenate([basis.mats[:2], new_tail]))
