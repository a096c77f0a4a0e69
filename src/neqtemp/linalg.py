"""Dense Hermitian matrix kernel.

Eigendecompositions, spectral matrix functions, tensor products, partial
traces and the Hilbert-Schmidt inner product, wrapped in validated immutable
value types. Everything downstream (operator bases, thermometry, the
bipartite machinery) is built on these primitives.

Conventions used throughout the package:

* the subsystem labelled S is always the left (slow) tensor factor;
* natural logarithms, k_B = 1;
* eigenvalues are reported in ascending order.

All values are immutable after construction and all operations are pure
functions, so they are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError, ValidationError

__all__ = [
    "MAX_DIM",
    "Tolerances",
    "DEFAULT_TOLS",
    "HermitianOperator",
    "SpectralDecomposition",
    "DensityMatrix",
    "MatrixLog",
    "as_complex_matrix",
    "eig_hermitian",
    "matrix_log",
    "matrix_exp",
    "tensor_product",
    "partial_trace",
    "hs_inner",
]

#: Hard cap on matrix dimension; this library targets desk-scale problems.
MAX_DIM = 1024

#: Largest eigenvalue matrix_exp accepts before exp() overflows a double.
EXP_OVERFLOW_BOUND = 700.0


@dataclass(frozen=True)
class Tolerances:
    """Default numerical tolerances (double-precision headroom at desk scale).

    All of them can be overridden per call or per constructed object.

    :ivar herm: max allowed deviation from Hermiticity, ``max|A - A^dag|``.
    :ivar trace: max allowed deviation of a density-matrix trace from 1.
    :ivar psd: eigenvalues above ``-psd`` are clipped to zero; anything more
        negative is rejected.
    :ivar rank: eigenvalues above ``rank`` count toward the numerical rank.
    :ivar unitary: max deviation of eigenvector matrices from unitarity.
    :ivar recon: max reconstruction error of a spectral decomposition.
    :ivar degeneracy: relative eigenvalue gap under which eigenvalues are
        grouped into one degenerate cluster.
    """

    herm: float = 1e-10
    trace: float = 1e-10
    psd: float = 1e-10
    rank: float = 1e-12
    unitary: float = 1e-10
    recon: float = 1e-10
    degeneracy: float = 1e-9


DEFAULT_TOLS = Tolerances()


def as_complex_matrix(entries) -> np.ndarray:
    """Coerce input to a finite complex 2-d array (copying, C-contiguous)."""
    a = np.array(entries, dtype=complex, order="C")
    if a.ndim != 2:
        raise ValidationError(f"expected a 2-d matrix, got array of shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise ValidationError("matrix has non-finite entries")
    if max(a.shape, default=0) > MAX_DIM:
        raise ValidationError(
            f"matrix dimension {max(a.shape)} exceeds the supported cap {MAX_DIM}"
        )
    return a


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class HermitianOperator:
    """A validated d x d Hermitian matrix.

    The stored matrix is the symmetrization (A + A^dag)/2 of the input, which
    must already be Hermitian within ``tol_herm``.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix, tol_herm: float = DEFAULT_TOLS.herm):
        a = as_complex_matrix(getattr(matrix, "matrix", matrix))
        if a.shape[0] != a.shape[1]:
            raise ValidationError(f"Hermitian operator must be square, got {a.shape}")
        if a.shape[0] == 0:
            raise ValidationError("empty matrix")
        dev = float(np.max(np.abs(a - a.conj().T)))
        if dev > tol_herm:
            raise ValidationError(
                f"matrix is not Hermitian: max deviation {dev:.3e} > {tol_herm:.3e}"
            )
        self.matrix: np.ndarray = _frozen((a + a.conj().T) / 2.0)

    @classmethod
    def _of_checked(cls, matrix: np.ndarray) -> "HermitianOperator":
        """Wrap a read-only matrix that is already exactly Hermitian.

        No copy and no check: for containers that validated and symmetrized
        a whole stack of operators at once and hand out views of it.
        """
        op = object.__new__(cls)
        op.matrix = matrix
        return op

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HermitianOperator(dim={self.dim})"


class SpectralDecomposition:
    """Eigenvalues (ascending) and eigenvector columns of a Hermitian matrix."""

    __slots__ = ("eigenvalues", "eigenvectors")

    def __init__(self, eigenvalues, eigenvectors, tols: Tolerances = DEFAULT_TOLS):
        w = np.array(eigenvalues, dtype=float)
        v = as_complex_matrix(eigenvectors)
        if w.ndim != 1 or v.shape != (w.size, w.size):
            raise ValidationError("inconsistent spectral data shapes")
        if np.any(np.diff(w) < 0):
            raise ValidationError("eigenvalues must be ascending")
        gram = v.conj().T @ v
        dev = float(np.max(np.abs(gram - np.eye(w.size))))
        if dev > tols.unitary:
            raise ValidationError(f"eigenvector matrix not unitary: deviation {dev:.3e}")
        self.eigenvalues: np.ndarray = _frozen(w)
        self.eigenvectors: np.ndarray = _frozen(v)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def apply(self, fn) -> np.ndarray:
        """V diag(fn(lambda)) V^dag for a scalar function fn."""
        v = self.eigenvectors
        m = (v * fn(self.eigenvalues)) @ v.conj().T
        return (m + m.conj().T) / 2.0

    def clusters(self, gap: float) -> list[np.ndarray]:
        """Group indices of eigenvalues closer than ``gap`` into clusters."""
        w = self.eigenvalues
        groups: list[list[int]] = [[0]]
        for i in range(1, w.size):
            if w[i] - w[groups[-1][-1]] < gap:
                groups[-1].append(i)
            else:
                groups.append([i])
        return [np.array(g, dtype=int) for g in groups]

    def projectors(self, gap: float) -> list[np.ndarray]:
        """Orthogonal projectors onto the degenerate clusters."""
        v = self.eigenvectors
        out = []
        for idx in self.clusters(gap):
            cols = v[:, idx]
            p = cols @ cols.conj().T
            out.append((p + p.conj().T) / 2.0)
        return out


def eig_hermitian(A: HermitianOperator, tols: Tolerances = DEFAULT_TOLS) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian operator.

    Uses tridiagonalization plus a divide-and-conquer/QR backend (LAPACK
    ``heevd``); dimensions here are tiny, so robustness wins over speed.
    """
    if not isinstance(A, HermitianOperator):
        A = HermitianOperator(A)
    try:
        w, v = np.linalg.eigh(A.matrix)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"Hermitian eigensolver failed to converge: {exc}") from exc
    spec = SpectralDecomposition(w, v, tols)
    recon = spec.apply(lambda x: x)
    dev = float(np.max(np.abs(recon - A.matrix)))
    scale = max(1.0, float(np.max(np.abs(A.matrix))))
    if dev > tols.recon * scale:
        raise NumericalError(f"spectral reconstruction error {dev:.3e} exceeds tolerance")
    return spec


class DensityMatrix:
    """Unit-trace positive-semidefinite Hermitian matrix with cached spectrum.

    Construction validates trace and positivity; eigenvalues in
    ``[-psd, 0)`` are clipped to zero and the spectrum renormalized, so the
    stored matrix and spectrum are exactly consistent with each other.
    """

    __slots__ = ("operator", "spectrum", "rank")

    def __init__(self, matrix, tols: Tolerances = DEFAULT_TOLS):
        op = matrix if isinstance(matrix, HermitianOperator) else HermitianOperator(matrix, tols.herm)
        tr = op.trace
        if abs(tr - 1.0) > tols.trace:
            raise ValidationError(f"density matrix trace {tr!r} deviates from 1 beyond tolerance")
        spec = eig_hermitian(op, tols)
        self._install(spec.eigenvalues, spec.eigenvectors, tols)

    @classmethod
    def from_spectrum(cls, eigenvalues, eigenvectors, tols: Tolerances = DEFAULT_TOLS) -> "DensityMatrix":
        """Build directly from known spectral data.

        Analytic constructions (Gibbs states, explicit mixtures) know their
        eigenvalues exactly; going through the assembled matrix and back
        through the eigensolver would lose all relative precision on the
        small ones. Eigenvalues need not be sorted.
        """
        w = np.array(eigenvalues, dtype=float)
        v = as_complex_matrix(eigenvectors)
        if w.ndim != 1 or v.shape != (w.size, w.size):
            raise ValidationError("inconsistent spectral data shapes")
        order = np.argsort(w, kind="stable")
        obj = object.__new__(cls)
        obj._install(w[order], v[:, order], tols)
        return obj

    def _install(self, w: np.ndarray, v: np.ndarray, tols: Tolerances) -> None:
        if abs(float(w.sum()) - 1.0) > tols.trace:
            raise ValidationError(f"density matrix trace {float(w.sum())!r} deviates from 1")
        if w[0] < -tols.psd:
            raise ValidationError(
                f"matrix is not positive semidefinite: min eigenvalue {w[0]:.3e}"
            )
        w = np.clip(w, 0.0, None)
        w = w / float(w.sum())
        rebuilt = (v * w) @ v.conj().T
        self.operator = HermitianOperator(rebuilt, tol_herm=1.0)  # symmetrization only
        self.spectrum = SpectralDecomposition(w, v, tols)
        self.rank = int(np.count_nonzero(w > tols.rank))

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

    Clipping is explicit and never silent: whenever any eigenvalue sat below
    ``clip`` the result carries ``clipped=True``. For full-rank states with
    min eigenvalue above ``clip`` this is the exact natural log.
    """
    if not isinstance(rho, DensityMatrix):
        raise ValidationError("matrix_log expects a DensityMatrix")
    if not (clip > 0.0):
        raise ValidationError(f"clip must be positive, got {clip!r}")
    w = rho.eigenvalues
    clipped = bool(np.any(w < clip))
    mat = rho.spectrum.apply(lambda x: np.log(np.maximum(x, clip)))
    return MatrixLog(HermitianOperator(mat), clipped)


def matrix_exp(A: HermitianOperator) -> HermitianOperator:
    """Spectral exponential V diag(e^{lambda_i}) V^dag."""
    spec = eig_hermitian(A)
    top = float(spec.eigenvalues[-1])
    if top > EXP_OVERFLOW_BOUND:
        raise NumericalError(f"matrix_exp overflow: max eigenvalue {top:.3e} > {EXP_OVERFLOW_BOUND}")
    return HermitianOperator(spec.apply(np.exp))


def tensor_product(A, B) -> np.ndarray:
    """Kronecker product with (i_A * d_B + i_B) row indexing."""
    a = as_complex_matrix(getattr(A, "matrix", A))
    b = as_complex_matrix(getattr(B, "matrix", B))
    if a.shape[0] * b.shape[0] > MAX_DIM or a.shape[1] * b.shape[1] > MAX_DIM:
        raise ValidationError("tensor_product dimension overflow")
    return np.kron(a, b)


def partial_trace(M, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one factor of a (d_S * d_B)-dimensional square matrix.

    ``keep=0`` keeps the S (left) factor, ``keep=1`` the B (right) factor.
    """
    m = as_complex_matrix(getattr(M, "matrix", M))
    d_s, d_b = int(dims[0]), int(dims[1])
    if d_s < 1 or d_b < 1:
        raise ValidationError(f"invalid factor dims {dims!r}")
    if m.shape != (d_s * d_b, d_s * d_b):
        raise ValidationError(f"matrix shape {m.shape} does not match dims {dims!r}")
    if keep not in (0, 1):
        raise ValidationError(f"keep must be 0 (S) or 1 (B), got {keep!r}")
    t = m.reshape(d_s, d_b, d_s, d_b)
    if keep == 0:
        return np.einsum("ibjb->ij", t)
    return np.einsum("aiaj->ij", t)


def hs_inner(A, B, tol_imag: float = 1e-10) -> float:
    """Hilbert-Schmidt inner product Tr[A^dag B], real for Hermitian inputs.

    An imaginary residue above ``tol_imag`` (relative) raises; below it, the
    residue is discarded.
    """
    a = as_complex_matrix(getattr(A, "matrix", A))
    b = as_complex_matrix(getattr(B, "matrix", B))
    if a.shape != b.shape:
        raise ValidationError(f"hs_inner dimension mismatch: {a.shape} vs {b.shape}")
    val = complex(np.sum(a.conj() * b))
    if abs(val.imag) > tol_imag * max(1.0, abs(val)):
        raise NumericalError(f"hs_inner imaginary residue {val.imag:.3e} too large")
    return float(val.real)
