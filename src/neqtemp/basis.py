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
is a real vector of length d^2 over it: candidate k is the unit vector e_k,
and the seeds' coordinates t_j on each e_j come from their entries by index
arithmetic. Gram-Schmidt over the candidates then has a closed form. Before
candidate k, the span holds I, the seeds and every kept e_j, so k's residual
is e_k - z_k, where z_k is the least-norm vector over k's free candidates
(those after k, and the dropped ones before k) with sum_j z_k[j] t_j = t_k.
Its norm is 1/sqrt(1 + |z_k|^2). One batched SVD of the seeds' coordinates
over each candidate's free set gives every z_k at once. With one seed and no
drop before k, tau_k^2 = sum_{j>=k} t_j^2 and the normalized residual has
tau_(k+1)/tau_k on e_k and -t_k t_j/(tau_k tau_(k+1)) on each later e_j.
A drop frees its candidate for the ones after it, and a further pass settles
them; at most one pass per seed is added. Candidate order and the
``DROP_TOL`` drop rule are those of the operator-space algorithm, so the
bases agree with it to rounding, and the SVD keeps them orthonormal to about
1e-15 however ill-conditioned the seeds' coordinates. The operators come out
of the kept rows by the same index arithmetic, exactly Hermitian, and the
basis is checked on the rows alone: its Gram matrix is ``rows @ rows.T``, one
O(d^6) product. The completion costs O(d^4 m^2) for m seeds, so at large d
that product and the operator build dominate, and :func:`complete_basis`
still refuses dimensions above ``MAX_BASIS_DIM``.

:class:`OperatorBasis` owns its members as one read-only (d^2, d, d) array,
``mats``, validated as a whole; the members it hands out are views of that
array. Expansions and resummations over a basis are single matrix products
with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .exceptions import DegenerateDirectionError, NumericalError, ValidationError
from .linalg import HERM_TOL, DensityMatrix, HermitianOperator, _frozen, _operator, _real_array

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

#: Singular values of the seeds' coordinates over a candidate's free set at or
#: below this are taken as zero, and so are the candidate's coordinates along
#: them: well above the rounding of unit-norm seeds.
RANGE_TOL = 1e-13

#: Largest dimension :func:`complete_basis` accepts, set when a completion took
#: 0.8 s at d=34. It now takes 51 ms at d=32, 69 ms at d=34 and 98 ms at
#: d=36, about a quarter of it the O(d^6) Gram check in frame coordinates
#: and 40% the build of the operator stack. Measured on a 2-core x86-64 VM
#: (numpy 2.4, OpenBLAS, two threads).
MAX_BASIS_DIM = 34


def hamiltonian_unit(H: HermitianOperator) -> tuple[HermitianOperator, float]:
    """Normalized traceless part of H and its Hilbert-Schmidt weight h.

    Returns ``(O1, h)`` with ``O1 = (H - (Tr H / d) I)/h`` and
    ``h = sqrt(Tr[H^2] - (Tr H)^2/d)``. Adding c I to H leaves the output
    unchanged up to the rounding of H + c I itself, however large c, and so
    does rescaling H (up to h), however small its entries.

    :raises DegenerateDirectionError: if H is proportional to the identity
        (the temperature direction is then undefined): h is at most
        16 sqrt(d) eps |Tr H|/d, the rounding an offset can leave in it.
    :raises NumericalError: if h^2 overflows a double (entries of H beyond
        about 1e154).
    """
    traceless, h = _unit_weight(_operator(H))
    return HermitianOperator._of_computed(traceless / h), h


def _unit_weight(H: HermitianOperator) -> tuple[np.ndarray, float]:
    """The traceless part of H and its weight h, under :func:`hamiltonian_unit`'s rules."""
    traceless, h = _traceless_weight(H.matrix)
    if h <= 16.0 * np.finfo(float).eps * abs(H.trace) / math.sqrt(H.dim):
        raise DegenerateDirectionError(
            "Hamiltonian is proportional to the identity; its traceless direction "
            "(and hence the temperature) is undefined"
        )
    return traceless, h


def _basis_direction(H: HermitianOperator, basis: OperatorBasis) -> tuple[HermitianOperator, float]:
    """``(basis[1], h)``, once ``basis[1]`` is checked to be H's unit direction: the one reading of it.

    :raises DegenerateDirectionError: if H is proportional to the identity.
    :raises ValidationError: if the dimensions differ or max|H_0/h - basis[1]|
        exceeds 1e-8, H_0 being the traceless part of H.
    """
    traceless, h = _unit_weight(H)
    if basis.dim != H.dim or float(np.max(np.abs(traceless / h - basis.mats[1]))) > 1e-8:
        raise ValidationError("basis[1] must equal the Hamiltonian unit direction of H")
    return basis[1], h


def _traceless(m: np.ndarray) -> np.ndarray:
    """m - (Tr m / d) I as a fresh array; the second pass takes out the first mean's rounding."""
    d = m.shape[0]
    traceless = np.array(m, dtype=complex, order="C")  # m - (Tr m / d) I without a d x d identity
    diag = traceless.reshape(-1)[:: d + 1]  # a view, as the copy is C-contiguous
    with np.errstate(over="ignore", invalid="ignore"):
        diag -= m.trace().real / d
        diag -= diag.sum().real / d
    return traceless


def _traceless_weight(m: np.ndarray) -> tuple[np.ndarray, float]:
    """The traceless part of a Hermitian matrix and its norm h; NumericalError if h^2 overflows."""
    traceless = _traceless(m)
    with np.errstate(over="ignore", invalid="ignore"):
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
    upper, lower, _, diag = _frame_layout(d)
    pairs = np.arange(upper.size)
    s = 1.0 / math.sqrt(2.0)
    out = np.zeros((d * d - 1, d * d), dtype=complex)
    out[pairs, upper] = out[pairs, lower] = s
    out[upper.size + pairs, upper] = -1j * s
    out[upper.size + pairs, lower] = 1j * s
    out[2 * upper.size:, :: d + 1] = diag[1:]
    return out.reshape(-1, d, d)


@cache
def _frame_layout(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Where the members of the frame ``{I/sqrt(d)} + gell_mann_candidates(d)`` sit.

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


def _check_frame_rows(rows: np.ndarray) -> None:
    """Raise ValidationError unless (d^2, d^2) frame coordinates are a basis.

    Row 0 must be e_0 within sqrt(d) 1e-12 (an entry-wise 1e-12 bound on
    ops[0] - I/sqrt(d)), the rows' Tr O_i/sqrt(d) within 1e-12/sqrt(d), and
    ``rows @ rows.T`` the identity within 1e-10.
    """
    n, d = len(rows), math.isqrt(len(rows))
    if not np.all(np.isfinite(rows)):
        raise ValidationError("basis has non-finite entries")
    if float(np.max(np.abs(rows[0] - (np.arange(n) == 0)))) > math.sqrt(d) * 1e-12:
        raise ValidationError("ops[0] must be the normalized identity I/sqrt(d)")
    if np.any(np.abs(rows[1:, 0]) > 1e-12 / math.sqrt(d)):
        raise ValidationError("basis operators beyond ops[0] must be traceless")
    gram = rows @ rows.T
    gram.flat[:: n + 1] -= 1.0
    dev = float(np.max(np.abs(gram)))
    if dev > 1e-10:
        raise ValidationError(f"basis is not HS-orthonormal: Gram deviation {dev:.3e}")


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
        except (TypeError, ValueError) as exc:
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
        object.__setattr__(self, "mats", _frozen(mats))
        if float(np.max(np.abs(mats[0] - np.eye(d) / math.sqrt(d)))) > 1e-12:
            raise ValidationError("ops[0] must be the normalized identity I/sqrt(d)")
        _check_frame_rows(_frame_coordinates(mats))

    @classmethod
    def _of_rows(cls, rows: np.ndarray) -> "OperatorBasis":
        """The basis with frame coordinates ``rows``; they alone are checked."""
        _check_frame_rows(rows)
        basis = object.__new__(cls)
        object.__setattr__(basis, "dim", math.isqrt(len(rows)))
        object.__setattr__(basis, "mats", _frozen(_frame_operators(rows, basis.dim)))
        return basis

    @cached_property
    def ops(self) -> tuple[HermitianOperator, ...]:
        """The members in order, as views of ``mats``."""
        return tuple(HermitianOperator._of_checked(m) for m in self.mats)

    def __len__(self) -> int:
        return len(self.mats)

    def __getitem__(self, i: int) -> HermitianOperator:
        return HermitianOperator._of_checked(self.mats[i])

    def coordinates(self, A: HermitianOperator) -> np.ndarray:
        """Tr[O_i A] for every member O_i.

        :raises ValidationError: if A is not Hermitian (then some Tr[O_i A]
            are not real) or not d x d.
        """
        A = _operator(A)
        if A.dim != self.dim:
            raise ValidationError(f"dimension mismatch: operator {A.dim}, basis {self.dim}")
        # Re Tr[O_i^dag A] is the dot product of the real views of O_i and A.
        real = np.ascontiguousarray(A.matrix).reshape(-1).view(np.float64)
        return self.mats.reshape(len(self), -1).view(np.float64) @ real


@dataclass(frozen=True)
class StateCoordinates:
    """Real expansion coordinates x_i = Tr[rho O_i] of a state."""

    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _frozen(np.array(self.x, dtype=float)))


def complete_basis(d: int, seeds: list[HermitianOperator]) -> OperatorBasis:
    """Complete ``(I/sqrt(d), *seeds)`` to a full orthonormal basis.

    Seeds must be traceless, unit-norm and mutually orthogonal; they are kept
    at positions 1..len(seeds). Gell-Mann candidates are then orthogonalized
    against everything accepted so far, keeping those whose residual norm is
    at least ``DROP_TOL``. Every residual comes from a closed form over the
    frame ``{I/sqrt(d)} + gell_mann_candidates(d)`` (see the module
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
        m = _operator(s).matrix
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
    need = n - 1 - len(seed_mats)
    # Row a of s holds seed a's frame coordinates; candidate k is frame member
    # k + 1, and t[k] holds the seeds' coordinates on it. Candidate k's
    # residual is e_k - z_k (see the module docstring). A pass settles every
    # decision up to its first drop not yet freed, and at most len(seeds)
    # candidates drop before the last one kept.
    s = _frame_coordinates(np.array(seed_mats)) if seed_mats else np.zeros((0, n))
    t = s[:, 1:].T
    later = np.arange(n - 1) > np.arange(n - 1)[:, None]
    skipped = np.zeros(n - 1, dtype=bool)
    for _ in range(len(seed_mats) + 1):
        free = later | skipped
        free.flat[::n] = False
        # The free part of t is u sig vh for candidate k, so z_k = u (vh t[k] / sig).
        u, sig, vh = np.linalg.svd(free[:, :, None] * t, full_matrices=False)
        c = (vh @ t[:, :, None])[:, :, 0]
        null = sig <= RANGE_TOL
        ratio = np.divide(c, sig, out=np.zeros_like(c), where=~null)
        gamma = 1.0 + (ratio * ratio).sum(axis=1)
        # t[k] along a null direction puts e_k in the span: residual 0.
        drop = (gamma * DROP_TOL**2 > 1.0) | (null & (np.abs(c) > RANGE_TOL)).any(axis=1)
        idx = np.flatnonzero(~drop)[:need]
        first = np.flatnonzero(drop & ~skipped)[:1]
        if not first.size or idx.size == need and not (first < idx[-1:]).any():
            break
        skipped[first] = True
    if idx.size != need:
        raise ValidationError(
            f"basis completion produced {n - need + idx.size} of {n} operators; "
            "seeds were likely not independent of the candidate family"
        )
    # Row of candidate k: (e_k - z_k)/sqrt(gamma_k), zero off k's free set.
    scale = 1.0 / np.sqrt(gamma[idx])
    rows = np.zeros((n, n))
    rows[0, 0] = 1.0
    rows[1:n - need] = s
    rows[n - need:, 1:] = np.einsum("kjb,kb->kj", u[idx], ratio[idx] * -scale[:, None]) * free[idx]
    rows[n - need + np.arange(need), idx + 1] = scale
    return OperatorBasis._of_rows(rows)


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
    r = _real_array(R, "rotation")
    if r.shape != (n, n):
        raise ValidationError(f"rotation must be {n}x{n}, got {r.shape}")
    dev = float(np.max(np.abs(r.T @ r - np.eye(n))))
    if dev > 1e-10:
        raise ValidationError(f"rotation matrix is not orthogonal: deviation {dev:.3e}")
    new_tail = np.tensordot(r.T, basis.mats[2:], axes=1)
    return OperatorBasis(basis.dim, np.concatenate([basis.mats[:2], new_tail]))
