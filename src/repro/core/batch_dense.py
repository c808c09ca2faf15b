"""``BatchDense`` format and the batched dense (BLAS-1/2) kernels.

The iterative solvers are composed from a small set of batched dense
operations — dot products, AXPYs, norms, scalings — applied to *batch
vectors* of shape ``(num_batch, num_rows)``.  In the reference GPU
implementation these are the specialised, tuned ``BatchDense`` kernels that
get inlined into the fused solver kernel; here they are thin, allocation-free
NumPy wrappers that the solvers call with preallocated outputs.

All functions operate along the last axis and broadcast per-system scalars
of shape ``(num_batch,)``.
"""

from __future__ import annotations

from ..utils.validation import as_value_array
from .backend import backend_of, host as np
from .types import DTYPE, BatchShape, DimensionMismatch, InvalidFormatError

__all__ = [
    "BatchDense",
    "batch_dot",
    "batch_norm2",
    "batch_axpy",
    "batch_scale",
    "batch_copy",
]


class BatchDense:
    """A batch of dense matrices with identical dimensions.

    Parameters
    ----------
    values:
        Array of shape ``(num_batch, num_rows, num_cols)``; copied only when
        a dtype/contiguity conversion is required.

    Notes
    -----
    This is both a matrix format in its own right (usable with every solver
    via the generic SpMV dispatch in :mod:`repro.core.spmv`) and the storage
    baseline against which the paper compares the sparse formats' footprint
    (Fig. 3).
    """

    format_name = "dense"

    def __init__(self, values: np.ndarray):
        values = as_value_array(values, "values", ndim=3)
        self._values = values
        self._shape = BatchShape(*values.shape)

    # -- attributes ------------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """Per-entry dense values, shape ``(num_batch, num_rows, num_cols)``."""
        return self._values

    @property
    def dtype(self) -> np.dtype:
        """Value dtype of the stored entries (float32 or float64)."""
        return self._values.dtype

    @property
    def shape(self) -> BatchShape:
        """Batch dimensions."""
        return self._shape

    @property
    def num_batch(self) -> int:
        return self._shape.num_batch

    @property
    def num_rows(self) -> int:
        return self._shape.num_rows

    @property
    def num_cols(self) -> int:
        return self._shape.num_cols

    @property
    def nnz_per_system(self) -> int:
        """Stored entries per batch entry (all of them, for dense)."""
        return self.num_rows * self.num_cols

    def storage_bytes(self) -> int:
        """Total bytes required to store the batch (Fig. 3 accounting)."""
        return self._values.nbytes

    # -- construction helpers --------------------------------------------

    @classmethod
    def from_matrices(cls, matrices) -> "BatchDense":
        """Stack an iterable of equally-shaped 2-D arrays into a batch."""
        mats = [np.asarray(m, dtype=DTYPE) for m in matrices]
        if not mats:
            raise InvalidFormatError("cannot build a BatchDense from zero matrices")
        first = mats[0].shape
        if any(m.shape != first for m in mats):
            raise DimensionMismatch("all matrices in a batch must share a shape")
        if len(first) != 2:
            raise InvalidFormatError("batch entries must be 2-D matrices")
        return cls(np.stack(mats, axis=0))

    @classmethod
    def identity(cls, num_batch: int, num_rows: int) -> "BatchDense":
        """Batch of identity matrices."""
        eye = np.eye(num_rows, dtype=DTYPE)
        return cls(np.broadcast_to(eye, (num_batch, num_rows, num_rows)).copy())

    # -- element access ---------------------------------------------------

    def entry(self, batch_index: int) -> np.ndarray:
        """Dense matrix of one batch entry (a view)."""
        return self._values[batch_index]

    def entry_dense(self, batch_index: int) -> np.ndarray:
        """Dense matrix of one batch entry (copy, format-generic name)."""
        return self._values[batch_index].copy()

    def diagonal(self) -> np.ndarray:
        """Per-system main diagonals, shape ``(num_batch, min(n, m))``."""
        n = min(self.num_rows, self.num_cols)
        bk = backend_of(self._values)
        if bk.is_host:
            return np.ascontiguousarray(
                np.einsum("bii->bi", self._values[:, :n, :n])
            )
        return bk.xp.einsum("bii->bi", self._values[:, :n, :n])

    def to_dense(self) -> "BatchDense":
        """Return self (identity conversion)."""
        return self

    def copy(self) -> "BatchDense":
        """Deep copy of the batch."""
        return BatchDense(self._values.copy())

    def astype(self, dtype) -> "BatchDense":
        """Batch with values cast to ``dtype`` (self when already there)."""
        if self._values.dtype == np.dtype(dtype):
            return self
        return BatchDense(self._values.astype(dtype))

    def take_batch(
        self, indices: np.ndarray, *, values_out: np.ndarray | None = None
    ) -> "BatchDense":
        """Gather a sub-batch of systems into a compact batch.

        ``indices`` is an integer index array or boolean mask over the batch
        axis; selected systems keep their values bit-for-bit.  ``values_out``
        is optional preallocated value storage for the gathered sub-batch
        (its leading ``len(indices)`` systems are used), letting repeated
        compaction events skip the per-event allocation.
        """
        indices = np.asarray(indices)
        bk = backend_of(self._values)
        if values_out is not None and bk.is_host:
            if indices.dtype == np.bool_:
                indices = np.flatnonzero(indices)
            dst = values_out[: indices.size]
            np.take(self._values, indices, axis=0, out=dst)
            return BatchDense(dst)
        return BatchDense(bk.take(self._values, indices))

    def slice_batch(self, start: int, stop: int) -> "BatchDense":
        """Zero-copy view of the contiguous systems ``start:stop``."""
        return BatchDense(self._values[start:stop])

    # -- matrix-vector products -------------------------------------------

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Batched dense mat-vec ``out[k] = A[k] @ x[k]``.

        ``x`` has shape ``(num_batch, num_cols)``; the result has shape
        ``(num_batch, num_rows)``.
        """
        self._shape.compatible_vector(x, "x")
        return backend_of(self._values, x).dense_matvec(self._values, x, out=out)

    def advanced_apply(
        self,
        alpha: float | np.ndarray,
        x: np.ndarray,
        beta: float | np.ndarray,
        y: np.ndarray,
        *,
        work: np.ndarray | None = None,
    ) -> np.ndarray:
        """In-place fused ``y[k] = alpha*A[k]@x[k] + beta*y[k]`` (batched GEMV).

        ``work`` is an optional ``(num_batch, num_rows)`` scratch buffer
        that receives the product; with it the update is allocation-free.
        ``work`` must not alias ``x`` or ``y``.
        """
        self._shape.compatible_vector(x, "x")
        bk = backend_of(self._values, x, y)
        ax = bk.dense_matvec_acc(self._values, x, work=work)
        return bk.fma_update(ax, alpha, beta, y)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self._shape
        return f"BatchDense(num_batch={s.num_batch}, shape={s.num_rows}x{s.num_cols})"


# ---------------------------------------------------------------------------
# Batched BLAS-1 kernels operating on (num_batch, n) batch vectors.
# ---------------------------------------------------------------------------

def batch_dot(
    a: np.ndarray,
    b: np.ndarray,
    out: np.ndarray | None = None,
    *,
    dtype=None,
) -> np.ndarray:
    """Per-system dot products: ``out[k] = a[k] . b[k]``.

    Both inputs have shape ``(num_batch, n)``; the result has shape
    ``(num_batch,)``.  ``dtype`` sets the accumulation dtype of the
    reduction — the mixed-precision policy passes float64 here so that
    float32 vectors keep double-precision dot products.
    """
    if a.shape != b.shape:
        raise DimensionMismatch(f"dot operands differ in shape: {a.shape} vs {b.shape}")
    return backend_of(a, b).dot(a, b, out=out, dtype=dtype)


def batch_norm2(
    a: np.ndarray, out: np.ndarray | None = None, *, dtype=None
) -> np.ndarray:
    """Per-system Euclidean norms: ``out[k] = ||a[k]||_2``.

    ``dtype`` sets the accumulation dtype of the squared sum (see
    :func:`batch_dot`).
    """
    return backend_of(a).norm2(a, out=out, dtype=dtype)


def batch_axpy(alpha: float | np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """In-place batched AXPY: ``y[k] += alpha[k] * x[k]``.

    ``alpha`` may be a scalar or a per-system vector of shape
    ``(num_batch,)``.
    """
    if x.shape != y.shape:
        raise DimensionMismatch(f"axpy operands differ in shape: {x.shape} vs {y.shape}")
    alpha = np.asarray(alpha, dtype=y.dtype)
    if alpha.ndim == 1:
        alpha = alpha[:, None]
    if backend_of(x, y).is_host:
        y += alpha * x
        return y
    return y + alpha * x


def batch_scale(alpha: float | np.ndarray, x: np.ndarray) -> np.ndarray:
    """In-place batched scaling: ``x[k] *= alpha[k]``."""
    alpha = np.asarray(alpha, dtype=x.dtype)
    if alpha.ndim == 1:
        alpha = alpha[:, None]
    if backend_of(x).is_host:
        x *= alpha
        return x
    return x * alpha


def batch_copy(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Copy one batch vector into another (shape-checked)."""
    if src.shape != dst.shape:
        raise DimensionMismatch(f"copy operands differ in shape: {src.shape} vs {dst.shape}")
    return backend_of(dst).copyto(dst, src)
