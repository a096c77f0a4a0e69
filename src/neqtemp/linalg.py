"""Dense Hermitian matrix kernel.

Eigendecompositions, spectral matrix functions, tensor products, partial
traces and the Hilbert-Schmidt inner product, wrapped in validated immutable
value types. Everything downstream (operator bases, thermometry, the
bipartite machinery) is built on these primitives.

Conventions used throughout the package:

* the subsystem labelled S is always the left (slow) tensor factor;
* natural logarithms, k_B = 1;
* eigenvalues are reported in ascending order, and read as such: a
  spectrum's negative part is a prefix and its positive part a suffix, found
  by ``searchsorted`` without a boolean mask, and a degenerate cluster is a
  contiguous run.

Validation happens once, at the boundary. ``HermitianOperator(matrix)``
(and through it ``DensityMatrix(matrix)``) is the entry for matrices from
outside the package: it copies, checks finiteness, shape and Hermiticity,
and symmetrizes (refusing entries whose sum A + A^dag overflows), by the same
``as_complex_matrix`` and ``_symmetrize`` that an ``OperatorBasis`` applies to
its (d^2, d, d) stack; ``_dimension`` checks every dimension argument and
``_number`` every scalar one (a tolerance, a clip, a step). An operator
argument is read through ``_operator``, and every other package-typed one (a
state, basis, system, generator) through ``_instance``, the one type rule;
``_sized``, the one dimension rule, holds each to its partner's dimension
and names it when they differ.
Operators the package computes from operators it has already validated are
checked finite and wrapped by one of two routes. A product (a reconstruction,
a spectral function, a contraction) is Hermitian only up to rounding, so
``HermitianOperator._of_computed`` takes ownership of the fresh array and
symmetrizes it in place. A sum, difference or real rescaling of exactly
Hermitian operators is exactly Hermitian, as conjugation commutes with
rounding and each diagonal stays real, so ``_of_exact`` skips that no-op.
``_of_checked`` wraps views of a stack validated as a whole. Likewise the
eigenvector Gram check runs once per eigendecomposition (``from_spectrum``
checks the caller's spectrum itself), and ``hs_inner``, ``partial_trace`` and
``tensor_product`` read a validated operator's matrix without copying it.
Every matrix product of this module goes through ``_matmul``.
``DensityMatrix(matrix)`` makes two d^3 products, the Gram check and the
reconstruction check, and derives its stored matrix from the reconstruction;
each logarithm makes one more.

All values are immutable after construction and all operations are pure
functions, so they are safe to share across threads. A ``DensityMatrix``
caches its logarithm per clip (see :func:`matrix_log`), and a ``HermitianOperator``
its unit (O1, h) (``basis.hamiltonian_unit``), on the instance; there is no module-level cache.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError, ValidationError

__all__ = [
    "MAX_DIM", "HermitianOperator", "SpectralDecomposition", "DensityMatrix", "MatrixLog", "as_complex_matrix",
    "eig_hermitian", "matrix_log", "matrix_exp", "tensor_product", "partial_trace", "hs_inner",
]

#: Hard cap on matrix dimension; this library targets desk-scale problems.
MAX_DIM = 1024

#: Largest eigenvalue matrix_exp accepts before exp() overflows a double.
EXP_OVERFLOW_BOUND = 700.0

# Fixed numerical thresholds, double-precision headroom at desk scale.
HERM_TOL = 1e-10  #: max|A - A^dag|, the default ``tol_herm``
TRACE_TOL = 1e-10  #: max |Tr rho - 1|
PSD_TOL = 1e-10  #: eigenvalues in [-PSD_TOL, 0) are clipped to 0, lower ones rejected
RANK_TOL = 1e-12  #: eigenvalues above it count toward ``DensityMatrix.rank``
UNITARY_TOL = 1e-10  #: max|Q^dag Q - I| of eigenvectors, of a basis's frame rows and of a tail rotation
DEGENERACY_TOL = 1e-9  #: eigenvalue gap within a cluster, relative to max|eigenvalue|
IMAG_TOL = 1e-10  #: max imaginary residue of ``hs_inner``, relative to max(1, |value|)

_EPS = sys.float_info.epsilon  # double machine epsilon, 2^-52
_AGREE_K = 32.0  # the agreement rule's margin over its forward-error bound (see _agree)


def as_complex_matrix(entries, ndim: int = 2) -> np.ndarray:
    """Coerce input to a finite complex array of rank ``ndim`` (copying, C-contiguous).

    Only the matrix sides are capped at ``MAX_DIM``, not a stack's length.
    """
    try:
        a = np.array(entries, dtype=complex, order="C")
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"matrix entries must be numbers in rectangular rows: {exc}") from exc
    if a.ndim != ndim:
        raise ValidationError(f"expected a {ndim}-d array of matrices, got shape {a.shape}")
    _check_finite(a, "matrix")
    if max(a.shape[-2:], default=0) > MAX_DIM:
        raise ValidationError(f"matrix dimension {max(a.shape[-2:])} exceeds the supported cap {MAX_DIM}")
    return a


def _check_finite(a: np.ndarray, what: str) -> None:
    """Raise ValidationError, naming ``what``, unless every entry of a is finite."""
    if not np.isfinite(a).all():
        raise ValidationError(f"{what} has non-finite entries")


def _symmetrize(a: np.ndarray, tol: float) -> np.ndarray:
    """A fresh finite (..., d, d) array a, symmetrized in place to (A + A^dag)/2.

    :raises ValidationError: if max|A - A^dag| > tol, or if A + A^dag overflows.
    """
    adj = a.conj().swapaxes(-1, -2)
    with np.errstate(over="ignore", invalid="ignore"):
        dev = float(abs(a - adj).max())
        if dev > tol:
            raise ValidationError(f"matrix is not Hermitian: max deviation {dev:.3e} > {tol:.3e}")
        a += adj
    if not np.isfinite(a).all():
        raise ValidationError("matrix entries overflow when symmetrized: A + A^dag is not finite")
    a *= 0.5
    return a


def _dimension(d, least: int = 1, error: str | None = None) -> int:
    """d as an int, once it is an integer (Python or numpy, not a bool) of at least ``least``; else ``error``."""
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < least:
        raise ValidationError(error or f"dimension must be an integer of at least {least}, got {d!r}")
    return int(d)


def _number(x, what: str, least: float = -sys.float_info.max, above: bool = False) -> float:
    """x as a float, once it is a finite real number (Python or numpy, not a bool) of at least ``least``,
    or above it if ``above``; else ValidationError ``"<what>, got <x!r>"``."""
    number = not isinstance(x, bool) and isinstance(x, (int, float, np.integer, np.floating))
    v = float(x) if isinstance(x, np.floating) else x  # float32(x) <= 1.8e308 would cast 1.8e308 to float32
    if not number or not (v > least if above else v >= least) or not v <= sys.float_info.max:
        raise ValidationError(f"{what}, got {x!r}")
    return float(x)


def _real_array(entries, what: str, ndim: int = 1) -> np.ndarray:
    """Coerce input to a finite float array of rank ``ndim`` (copying); else ValidationError, naming ``what``."""
    try:
        a = np.array(entries, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be real numbers: {exc}") from exc
    if a.ndim != ndim:
        raise ValidationError(f"{what} must be a {ndim}-d array, got shape {a.shape}")
    _check_finite(a, what)
    return a


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, the one route of this module's matrix products (so they can be counted)."""
    return a @ b


class HermitianOperator:
    """A validated d x d Hermitian matrix.

    The stored matrix is the symmetrization (A + A^dag)/2 of the input, which
    must already be Hermitian within ``tol_herm``: a finite max|A - A^dag|
    of at least 0, where 0 asks for exact Hermiticity.
    """

    __slots__ = ("matrix", "_unit")

    def __init__(self, matrix, tol_herm: float = HERM_TOL):
        tol_herm = _number(tol_herm, "tol_herm must be a finite number of at least 0", 0.0)
        a = as_complex_matrix(getattr(matrix, "matrix", matrix))
        if a.shape[0] != a.shape[1]:
            raise ValidationError(f"Hermitian operator must be square, got {a.shape}")
        if a.shape[0] == 0:
            raise ValidationError("empty matrix")
        _symmetrize(a, tol_herm)
        self.matrix: np.ndarray = _frozen(a)
        self._unit = None  # (O1, h), kept by basis.hamiltonian_unit on first use

    @classmethod
    def _of_checked(cls, matrix: np.ndarray) -> "HermitianOperator":
        """Wrap a read-only matrix that is already exactly Hermitian.

        No copy and no check: for containers that validated and symmetrized
        a whole stack of operators at once and hand out views of it, and for
        both computed routes, ``_of_computed`` and ``_of_exact``, once checked.
        """
        op = object.__new__(cls)
        op.matrix, op._unit = matrix, None
        return op

    @classmethod
    def _of_computed(cls, matrix: np.ndarray) -> "HermitianOperator":
        """Wrap a square matrix the package computed as a product of validated operators.

        Takes ownership of ``matrix``, a fresh array no caller keeps: it is
        symmetrized in place to (A + A^dag)/2, as by the public constructor,
        then wrapped by :meth:`_of_exact`. There is no Hermiticity tolerance:
        the operands were Hermitian, so any deviation is rounding on their
        scale, whatever that scale is.

        :raises NumericalError: if an entry is not finite (an overflow).
        """
        a = np.asarray(matrix, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            a += a.conj().T
            a /= 2.0
        return cls._of_exact(a)

    @classmethod
    def _of_exact(cls, matrix: np.ndarray) -> "HermitianOperator":
        """Freeze and wrap a fresh, exactly Hermitian complex array (module docstring); NumericalError if not finite."""
        if not np.isfinite(matrix).all():
            raise NumericalError("computed operator has non-finite entries (overflow)")
        return cls._of_checked(_frozen(matrix))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(self.matrix.trace().real)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HermitianOperator(dim={self.dim})"


class SpectralDecomposition:
    """Eigenvalues (ascending) and eigenvector columns of a Hermitian matrix.

    :meth:`clusters` labels its degenerate clusters, by the one rule that
    passivity and the eigenvalue/eigenprojector heat split both read.
    """

    __slots__ = ("eigenvalues", "eigenvectors")

    def __init__(self, eigenvalues, eigenvectors):
        w, v = _spectral_data(eigenvalues, eigenvectors)
        if np.any(np.diff(w) < 0):
            raise ValidationError("eigenvalues must be ascending")
        self.eigenvalues: np.ndarray = _frozen(w)
        self.eigenvectors: np.ndarray = _frozen(v)

    @classmethod
    def _of_checked(cls, eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> "SpectralDecomposition":
        """Wrap ascending eigenvalues and eigenvectors whose Gram check already ran."""
        spec = object.__new__(cls)
        spec.eigenvalues = _frozen(eigenvalues)
        spec.eigenvectors = _frozen(eigenvectors)
        return spec

    def apply(self, fn) -> np.ndarray:
        """V diag(fn(lambda)) V^dag for a scalar function fn.

        The product is returned as computed, Hermitian up to rounding; wrap it
        with ``HermitianOperator._of_computed`` to symmetrize it.
        """
        v = self.eigenvectors
        return _matmul(v * fn(self.eigenvalues), v.conj().T)

    def clusters(self) -> np.ndarray:
        """One integer label per eigenvalue: 0, 1, ... along the ascending spectrum.

        Adjacent eigenvalues share a label, and so a degenerate cluster, when
        their gap is below ``DEGENERACY_TOL`` times the spectrum's largest
        |eigenvalue| (floored at 1e-300). This is the package's one
        degeneracy rule; for a density matrix the scale is lambda_max.
        """
        w = self.eigenvalues
        gap = DEGENERACY_TOL * max(abs(float(w[0])), abs(float(w[-1])), 1e-300)
        labels = np.empty(w.size, np.intp)
        labels[0] = 0
        np.cumsum(w[1:] - w[:-1] >= gap, out=labels[1:])
        return labels


def _spectral_data(eigenvalues, eigenvectors) -> tuple[np.ndarray, np.ndarray]:
    """Coerced spectral data: finite real eigenvalues and a unitary eigenvector matrix of matching shape."""
    w = _real_array(eigenvalues, "eigenvalues")
    v = as_complex_matrix(eigenvectors)
    if v.shape != (w.size, w.size):
        raise ValidationError("inconsistent spectral data shapes")
    if w.size == 0:
        raise ValidationError("empty spectrum")
    _check_unitary(v, v.conj().T)
    return w, v


def _check_unitary(v: np.ndarray, vh: np.ndarray, what: str = "eigenvector matrix not unitary: deviation") -> None:
    """The one orthonormality rule: ValidationError "<what> <deviation>" unless max|V^dag V - I| <= UNITARY_TOL,
    vh being V^dag (the transpose of a real V). A non-finite V fails too."""
    gram = _matmul(vh, v)
    gram.reshape(-1)[:: len(gram) + 1] -= 1.0  # the diagonal, as a view of the fresh product
    dev = float(abs(gram).max())
    if not dev <= UNITARY_TOL:
        raise ValidationError(f"{what} {dev:.3e}")


def eig_hermitian(A: HermitianOperator) -> SpectralDecomposition:
    """Ascending eigenvalues and eigenvector columns of A, by LAPACK ``heevd`` (``numpy.linalg.eigh``).

    :raises ValidationError: if the eigenvectors fail the Gram check, max|V^dag V - I| <= ``UNITARY_TOL``.
    :raises NumericalError: if V diag(lambda) V^dag fails to reconstruct A under the agreement rule ``_agree``.
    """
    return _checked_eigh(_operator(A))[0]


def _checked_eigh(A: HermitianOperator) -> tuple[SpectralDecomposition, np.ndarray]:
    """The checked spectrum of A and its reconstruction V diag(lambda) V^dag."""
    try:
        w, v = np.linalg.eigh(A.matrix)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"Hermitian eigensolver failed to converge: {exc}") from exc
    # LAPACK returns ascending eigenvalues and fresh arrays: only the Gram check is needed; it shares V^dag with recon.
    vh = v.conj().T
    _check_unitary(v, vh)
    recon = _matmul(v * w, vh)
    # Each entry sums d products v_ik lambda_k conj(v_jk), of |summand| sum at most max|lambda| = |A|_2; a product
    # that underflows errs by up to eps times the smallest normal double, so each counts at least that.
    dev = float(abs(recon - A.matrix).max())
    _agree(dev, 0.0, len(w) * (float(max(-w[0], w[-1])) + sys.float_info.min),
           "spectral reconstruction max|V diag(w) V^dag - A| and 0")
    return SpectralDecomposition._of_checked(w, v), recon


class DensityMatrix:
    """Unit-trace positive-semidefinite Hermitian matrix with cached spectrum.

    Construction validates trace and positivity once, on the spectrum (the
    sum of the eigenvalues is the trace); eigenvalues in
    ``[-PSD_TOL, 0)`` are clipped to zero and the spectrum renormalized, so
    the stored matrix and spectrum are exactly consistent with each other.

    ``DensityMatrix(matrix)`` validates a raw matrix through
    :class:`HermitianOperator` (an operator passed in was validated when it
    was built) and checks the eigendecomposition once, in
    :func:`eig_hermitian`; the spectrum installed is that checked one.
    :meth:`from_spectrum` checks the spectral data it is given. The matrix
    logarithm is cached per clip on the instance (see :func:`matrix_log`).

    ``rank`` counts eigenvalues above ``RANK_TOL``; ``resolved_rank`` those
    the source tells apart from zero: above 4 d eps lambda_max for an
    eigensolver's spectrum, above 0 for exact spectral data and for an
    exactly diagonal matrix (whose diagonal the eigensolver returns as is).
    """

    __slots__ = ("operator", "spectrum", "rank", "resolved_rank", "_logs")

    def __init__(self, matrix):
        op = _operator(matrix)
        spec, recon = _checked_eigh(op)
        # Round-off eigenvalues of Haar pure states stayed below 0.94 d eps
        # lambda_max (50,000 draws at d = 2, less at larger d): a 4x margin.
        a = op.matrix
        diagonal = not np.any(a[0, 1:]) and np.count_nonzero(a) == np.count_nonzero(np.diagonal(a))
        noise = 0.0 if diagonal else 4.0 * op.dim * _EPS
        self._install(spec.eigenvalues, spec.eigenvectors, noise, recon)

    @classmethod
    def from_spectrum(cls, eigenvalues, eigenvectors) -> "DensityMatrix":
        """Build directly from known spectral data.

        Analytic constructions (Gibbs states, explicit mixtures) know their
        eigenvalues exactly; going through the assembled matrix and back
        through the eigensolver would lose all relative precision on the
        small ones. Eigenvalues need not be sorted; the data are checked as by
        :class:`SpectralDecomposition`.
        """
        w, v = _spectral_data(eigenvalues, eigenvectors)
        order = np.argsort(w, kind="stable")
        obj = object.__new__(cls)
        obj._install(w[order], v[:, order], 0.0)
        return obj

    def _install(self, w: np.ndarray, v: np.ndarray, noise: float, recon: np.ndarray | None = None) -> None:
        """Clip, renormalize and store a spectrum whose eigenvectors were checked.

        Eigenvalues at or below ``noise * lambda_max`` are not resolved from 0.
        ``recon``, a fresh V diag(w) V^dag, becomes the stored matrix once the
        clipped eigenvalues' rank-k term is removed and it is renormalized, so
        no second d^3 product is made.
        """
        total = float(w.sum())
        if not abs(total - 1.0) <= TRACE_TOL:
            raise ValidationError(f"density matrix trace {total!r} deviates from 1")
        if w[0] < -PSD_TOL:
            raise ValidationError(
                f"matrix is not positive semidefinite: min eigenvalue {w[0]:.3e}"
            )
        if w[0] <= 0.0:  # the spectrum ascends: only then is an eigenvalue negative (or a -0.0 to clip to 0.0)
            low = w < 0.0
            if recon is not None and low.any():
                recon -= _matmul(v[:, low] * w[low], v[:, low].conj().T)
            w = np.clip(w, 0.0, None)
            total = float(w.sum())
        w = w / total
        m = _matmul(v * w, v.conj().T) if recon is None else np.divide(recon, total, out=recon)
        self.operator = HermitianOperator._of_computed(m)
        self.spectrum = SpectralDecomposition._of_checked(w, v)
        n = w.size
        self.rank = n - int(np.searchsorted(w, RANK_TOL, side="right"))
        self.resolved_rank = n - int(np.searchsorted(w, noise * w[-1], side="right"))
        self._logs: dict[float, MatrixLog] = {}

    @property
    def matrix(self) -> np.ndarray:
        return self.operator.matrix

    @property
    def dim(self) -> int:
        return self.operator.dim

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.spectrum.eigenvalues

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DensityMatrix(dim={self.dim}, rank={self.rank})"


@dataclass(frozen=True)
class MatrixLog:
    """Result of a clipped matrix logarithm."""

    operator: HermitianOperator
    clipped: bool


def matrix_log(rho: DensityMatrix, clip: float) -> MatrixLog:
    """Spectral logarithm V diag(log max(lambda_i, clip)) V^dag.

    The ``dim - resolved_rank`` eigenvalues not resolved from zero count as 0,
    so they become log(clip) whatever round-off the eigensolver left in them.
    Clipping is explicit and never silent: whenever any eigenvalue sat below
    ``clip``, or was not resolved, the result carries ``clipped=True``. For
    full-rank states with min eigenvalue above ``clip`` this is the exact
    natural log.

    The result is computed once per (state, clip) and cached on ``rho``, so
    every caller of one state's log shares one operator.
    """
    _state(rho)
    clip = _number(clip, "clip must be finite and positive", 0.0, above=True)
    return _cached(rho._logs, clip, lambda: _spectral_log(rho, clip))


def _cached(cache: dict, key, build):
    """cache[key], built by ``build()`` on a miss.

    setdefault is atomic: threads racing on a first call may each build the
    value, but all of them return the one stored.
    """
    value = cache.get(key)
    return cache.setdefault(key, build()) if value is None else value


def _spectral_log(rho: DensityMatrix, clip: float) -> MatrixLog:
    unresolved = rho.dim - rho.resolved_rank  # the lowest eigenvalues, as they ascend
    w = np.maximum(rho.eigenvalues, clip)
    w[:unresolved] = clip
    mat = rho.spectrum.apply(lambda _: np.log(w))
    return MatrixLog(HermitianOperator._of_computed(mat), unresolved > 0 or bool(rho.eigenvalues[0] < clip))


def matrix_exp(A: HermitianOperator) -> HermitianOperator:
    """Spectral exponential V diag(e^{lambda_i}) V^dag."""
    spec = eig_hermitian(A)
    top = float(spec.eigenvalues[-1])
    if top > EXP_OVERFLOW_BOUND:
        raise NumericalError(f"matrix_exp overflow: max eigenvalue {top:.3e} > {EXP_OVERFLOW_BOUND}")
    return HermitianOperator._of_computed(spec.apply(np.exp))


def _sized(x, dim: int | None, what: str):
    """x, once x.dim is ``dim`` (any if None); else ValidationError naming ``what``. The one dimension rule."""
    if dim is not None and x.dim != dim:
        raise ValidationError(f"{what} dimension mismatch: {x.dim}, expected {dim}")
    return x


def _operator(A, dim: int | None = None, what: str = "operator") -> HermitianOperator:
    """A as a validated :class:`HermitianOperator` (A itself if it is one), checked to be dim x dim."""
    return _sized(A if isinstance(A, HermitianOperator) else HermitianOperator(A), dim, what)


def _instance(x, cls: type):
    """x, once it is a ``cls``; else ValidationError "expected a <cls>, got <type>". The one type rule."""
    if not isinstance(x, cls):
        name = cls.__name__
        raise ValidationError(f"expected {'an' if name[0] in 'AEIOU' else 'a'} {name}, got {type(x).__name__}")
    return x


def _state(rho, dim: int | None = None, what: str = "state") -> DensityMatrix:
    """rho, once checked to be a dim x dim :class:`DensityMatrix` (a raw matrix is not diagonalized here)."""
    return _sized(_instance(rho, DensityMatrix), dim, what)


def _matrix_of(A) -> np.ndarray:
    """The matrix of a validated operator as stored, or a raw input coerced."""
    if isinstance(A, (HermitianOperator, DensityMatrix)):
        return A.matrix
    return as_complex_matrix(getattr(A, "matrix", A))


def tensor_product(A, B) -> np.ndarray:
    """Kronecker product with (i_A * d_B + i_B) row indexing."""
    a = _matrix_of(A)
    b = _matrix_of(B)
    if a.shape[0] * b.shape[0] > MAX_DIM or a.shape[1] * b.shape[1] > MAX_DIM:
        raise ValidationError("tensor_product dimension overflow")
    return np.kron(a, b)


def _local_sum(a, b, m=None) -> np.ndarray:
    """a x I + I x b + m as a fresh complex array (m = 0 when None), d_S and d_B read from a and b.

    Each local term is added into the diagonal blocks of a (d_S, d_B, d_S, d_B)
    view, after m, so no Kronecker product and no identity is formed.
    """
    a, b = getattr(a, "matrix", a), getattr(b, "matrix", b)
    d_s, d_b = len(a), len(b)
    out = np.zeros((d_s * d_b,) * 2, complex) if m is None else np.array(getattr(m, "matrix", m), complex)
    t, s, j = out.reshape(d_s, d_b, d_s, d_b), np.arange(d_s), np.arange(d_b)
    t[:, j, :, j] += a
    t[s, :, s, :] += b
    return out


def partial_trace(M, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one factor of a (d_S * d_B)-dimensional square matrix.

    ``keep=0`` keeps the S (left) factor, ``keep=1`` the B (right) factor.
    """
    m = _matrix_of(M)
    if not (isinstance(dims, (list, tuple)) and len(dims) == 2):
        raise ValidationError(f"dims must be a pair (d_S, d_B), got {dims!r}")
    d_s, d_b = _dimension(dims[0]), _dimension(dims[1])
    if m.shape != (d_s * d_b, d_s * d_b):
        raise ValidationError(f"matrix shape {m.shape} does not match dims {dims!r}")
    if isinstance(keep, bool) or not isinstance(keep, (int, np.integer)) or keep not in (0, 1):
        raise ValidationError(f"keep must be 0 (S) or 1 (B), got {keep!r}")
    return _marginals(m, d_s, d_b)[keep]


def _marginals(m: np.ndarray, d_s: int, d_b: int) -> tuple[np.ndarray, np.ndarray]:
    """(Tr_B m, Tr_S m), fresh arrays, of a (d_s d_b)-square array: the one partial-trace contraction, unchecked."""
    t = m.reshape(d_s, d_b, d_s, d_b)
    return np.einsum("ibjb->ij", t), np.einsum("aiaj->ij", t)


def _tr(a, b) -> float:
    """Re Tr[A B] of two Hermitian operators or matrices, as one unchecked vdot."""
    return float(np.vdot(getattr(a, "matrix", a), getattr(b, "matrix", b)).real)


def _norm(a) -> float:
    """The Frobenius norm |A|_F = Tr[A^2]^(1/2) of a Hermitian operator or matrix, by :func:`_tr`."""
    return _tr(a, a) ** 0.5


def _agree(a: float, b: float, magnitude: float, what: str) -> tuple[float, float]:
    """(|a - b|, bound) once two assemblies of one value agree, |a - b| <= _AGREE_K eps magnitude: the one rule
    of every cross-check. ``magnitude`` is a term-count factor, the dimension d, times the sum of |summand| over
    the terms both assemblies add, a trace Tr[X Y] counting |X|_F |Y|_F (Cauchy-Schwarz): the forward-error bound
    of sums and inner products (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3-4), with d the
    square root of a trace's d^2 products (32 d >= d^2 up to d = 32). A NaN residual fails: NumericalError
    "<what> disagree: a vs b, residual ... > bound ...".
    """
    residual, bound = abs(a - b), _AGREE_K * _EPS * magnitude
    if not residual <= bound:
        raise NumericalError(f"{what} disagree: {float(a)!r} vs {float(b)!r}, "
                             f"residual {residual:.3e} > bound {bound:.3e}")
    return residual, bound


def hs_inner(A, B) -> float:
    """Hilbert-Schmidt inner product Tr[A^dag B], real for Hermitian inputs.

    An imaginary residue above ``IMAG_TOL`` (relative) raises; below it, the
    residue is discarded.
    """
    a = _matrix_of(A)
    b = _matrix_of(B)
    if a.shape != b.shape:
        raise ValidationError(f"hs_inner dimension mismatch: {a.shape} vs {b.shape}")
    val = complex(np.sum(a.conj() * b))
    if abs(val.imag) > IMAG_TOL * max(1.0, abs(val)):
        raise NumericalError(f"hs_inner imaginary residue {val.imag:.3e} too large")
    return float(val.real)
