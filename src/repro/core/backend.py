"""Array-backend seam: pluggable NumPy/JAX execution for the hot layers.

The batched formats, the BLAS-1 helpers, the solver driver, and the XGC
entry points never touch an array library directly — they go through an
:class:`ArrayBackend`.  The seam follows Ginkgo's executor pattern: every
array primitive the hot path needs (creation, einsum/dot reductions with
an accumulate dtype, ``take``/slicing, masked updates, the four SpMV
kernels) is concentrated behind one interface so the same solver code
runs under either backend.

Two backends are provided:

``NumpyBackend``
    The default.  Its methods are *verbatim* the NumPy statements the
    kernels used before the seam existed — same ufunc calls, same
    ``out=``/``where=`` semantics, same operand order — so the fp64
    NumPy path stays bit-identical to the golden pins.  The DIA and ELL
    SpMV kernels are the exception in form, not in bits: they fill one
    operand buffer per product and contract it with the values in a
    single ``einsum``, which adds each row's slots in the same order as
    the per-slot loop (``tests/core/test_spmv_kernels.py``).  The four
    host SpMV kernels run with ``invalid`` floating-point warnings off:
    a ``0 x Inf`` inside a kernel belongs to a poisoned lane the health
    guards isolate.

``JaxBackend``
    Optional, lazily imported, jit-wrapped hot paths.  JAX arrays are
    immutable, so every "in-place" primitive has a functional fallback:
    it returns the updated array and callers rebind
    (``st.r = bk.subtract(st.r, work, out=st.r)``).  The NumPy
    implementations *also* return their destination, so the same calling
    convention covers both backends.  ``jax_enable_x64`` is switched on
    at construction: the conformance contract is fp64 agreement with
    NumPy to 1e-12 on the n=992 stencil.

Host/device split
-----------------
Only the ``(num_batch, num_rows)`` batch vectors and the matrix values
live on the backend.  Per-system scalars, boolean activity masks, health
codes, stopping criteria, and the sparsity *pattern* arrays (row
pointers, column indices, diagonal offsets) stay host NumPy — exactly
like the paper's GPU implementation keeps convergence control on the
host.  All reduction primitives (``dot``/``norm2``) therefore return
host arrays.  Hot modules that still need host control-flow math import
the host namespace from here (``from .backend import host as np``) so
the seam is the single entry point for array libraries.
"""

from __future__ import annotations

import importlib.util

import numpy as np

#: The host array namespace.  Hot-path modules import this instead of
#: ``numpy`` directly (``from .backend import host as np``): host-side
#: control flow (masks, per-system scalars, pattern math) is part of the
#: seam's contract, and routing the import through here keeps the seam
#: the only place an array library is named.
host = np

__all__ = [
    "ArrayBackend",
    "BackendUnavailableError",
    "JaxBackend",
    "NUMPY",
    "NumpyBackend",
    "available_backends",
    "backend_of",
    "get_backend",
    "host",
    "is_device_array",
]


class BackendUnavailableError(RuntimeError):
    """Requested backend's array library is not importable."""


def _per_system(coeff):
    """Host per-system coefficient, broadcastable over ``(nb, n)``."""
    coeff = np.asarray(coeff)
    if coeff.ndim == 1:
        return coeff[:, None]
    return coeff


def _expand_mask(mask, dst):
    """Reshape a ``(num_batch,)`` mask to broadcast against ``dst``."""
    if mask.ndim == dst.ndim:
        return mask
    return mask.reshape(mask.shape + (1,) * (dst.ndim - mask.ndim))


#: Host SpMV kernels run under this: a 0 x Inf product inside the kernel
#: is a poisoned lane the solver's health guards already isolate, so the
#: kernel itself stays silent instead of warning the caller.
_quiet = np.errstate(invalid="ignore")


def _contractible(values, x, out):
    """Whether the single-pass slot contraction is bit-identical here.

    ``np.einsum("bki,bki->bi")`` adds each row's slot products in slot
    order onto a zeroed output — the per-slot ``out += v_k * x_k`` order —
    only when the row axis stays its innermost loop: C-contiguous values
    and output, more than one row, and one dtype throughout (the per-slot
    loop promotes mixed dtypes per product).  Everything else takes the
    per-slot loop.
    """
    return (
        values.shape[2] > 1
        and values.flags.c_contiguous
        and x.dtype == values.dtype
        and (out is None or (out.dtype == values.dtype and out.flags.c_contiguous))
    )


def _zeroed_out(values, out):
    if out is None:
        return np.zeros((values.shape[0], values.shape[2]), dtype=values.dtype)
    out[...] = 0.0
    return out


class ArrayBackend:
    """Protocol of array primitives the hot layers are written against.

    Every method that updates an array **returns the updated array**;
    under NumPy that is the mutated destination itself (zero-copy),
    under JAX a new array.  Callers always rebind the result.
    """

    #: Registry name ("numpy", "jax").
    name: str = "abstract"
    #: True when arrays are host numpy (mutable, zero-copy views).
    is_host: bool = False
    #: The backend's array namespace (numpy / jax.numpy).
    xp = None

    # -- creation / movement ------------------------------------------
    def zeros(self, shape, dtype):
        raise NotImplementedError

    def asarray(self, data, dtype=None):
        raise NotImplementedError

    def to_host(self, a):
        """Host numpy view/copy of a backend array."""
        raise NotImplementedError

    def to_host_copy(self, a):
        """Host numpy array owning its data (safe to return to callers)."""
        raise NotImplementedError

    def fill(self, dst, value):
        raise NotImplementedError

    def copyto(self, dst, src):
        raise NotImplementedError

    # -- elementwise ---------------------------------------------------
    def add(self, a, b, out=None):
        raise NotImplementedError

    def subtract(self, a, b, out=None):
        raise NotImplementedError

    def multiply(self, a, b, out=None):
        raise NotImplementedError

    def masked_add(self, y, upd, mask):
        """``y[mask] += upd[mask]`` with a per-system mask."""
        raise NotImplementedError

    # -- reductions (always host results) ------------------------------
    def dot(self, a, b, out=None, dtype=None):
        """Per-system dot ``sum_i a[b,i] * b[b,i]`` accumulated in ``dtype``."""
        raise NotImplementedError

    def norm2(self, a, out=None, dtype=None):
        """Per-system Euclidean norm accumulated in ``dtype``."""
        raise NotImplementedError

    # -- gather / scatter ----------------------------------------------
    def take(self, src, indices, out=None):
        """Gather leading-axis rows.  ``out`` is a host fast path only."""
        raise NotImplementedError

    def at_set(self, arr, key, src):
        """``arr[key] = src`` (functional under JAX)."""
        raise NotImplementedError

    # -- masked updates ------------------------------------------------
    def masked_assign(self, dst, src, mask):
        raise NotImplementedError

    def masked_fill(self, dst, value, mask):
        raise NotImplementedError

    def masked_axpy(self, y, alpha, x, mask=None, work=None):
        raise NotImplementedError

    def axpby(self, alpha, x, beta, y, out=None, work=None):
        raise NotImplementedError

    def fused_update(self, p, r, beta, omega, v, work=None):
        """``p = r + beta * (p - omega * v)``."""
        raise NotImplementedError

    def pipelined_cg_update(self, p, s, u, w, x, r, alpha, beta, work=None):
        """Fused pipelined-CG four-vector update; returns ``(p, s, x, r)``."""
        raise NotImplementedError

    def fma_update(self, ax, alpha, beta, y):
        """``y = beta * y + alpha * ax`` (the advanced-SpMV tail)."""
        raise NotImplementedError

    # -- format kernels ------------------------------------------------
    def csr_spmv(self, row_ptrs, col_idxs, values, x, out=None):
        raise NotImplementedError

    def ell_spmv(self, gather_cols, values, x, out=None, operand=None):
        """ELL SpMV.  ``operand`` is an optional host buffer shaped like
        ``values`` that receives each slot's gathered ``x`` entries."""
        raise NotImplementedError

    def dia_spmv(self, spans, values, x, out=None, operand=None):
        """DIA SpMV.  ``operand`` is an optional host buffer shaped like
        ``values`` whose fringe positions hold zero and stay untouched."""
        raise NotImplementedError

    def dense_matvec(self, values, x, out=None):
        raise NotImplementedError

    def dense_matvec_acc(self, values, x, work=None):
        """Dense matvec written directly into ``work`` when given."""
        raise NotImplementedError


class NumpyBackend(ArrayBackend):
    """Default host backend — the pre-seam NumPy statements, bit for bit."""

    name = "numpy"
    is_host = True
    xp = np

    # -- creation / movement ------------------------------------------
    def zeros(self, shape, dtype):
        return np.zeros(shape, dtype=dtype)

    def asarray(self, data, dtype=None):
        return np.asarray(data, dtype=dtype)

    def to_host(self, a):
        return a

    def to_host_copy(self, a):
        return a.copy()

    def fill(self, dst, value):
        dst[...] = value
        return dst

    def copyto(self, dst, src):
        dst[...] = src
        return dst

    # -- elementwise ---------------------------------------------------
    def add(self, a, b, out=None):
        return np.add(a, b, out=out)

    def subtract(self, a, b, out=None):
        return np.subtract(a, b, out=out)

    def multiply(self, a, b, out=None):
        return np.multiply(a, b, out=out)

    def masked_add(self, y, upd, mask):
        np.add(y, upd, out=y, where=_expand_mask(mask, y))
        return y

    # -- reductions ----------------------------------------------------
    def dot(self, a, b, out=None, dtype=None):
        return np.einsum("bi,bi->b", a, b, out=out, dtype=dtype)

    def norm2(self, a, out=None, dtype=None):
        sq = np.einsum("bi,bi->b", a, a, dtype=dtype)
        if out is None:
            return np.sqrt(sq)
        return np.sqrt(sq, out=out)

    # -- gather / scatter ----------------------------------------------
    def take(self, src, indices, out=None):
        indices = np.asarray(indices)
        if out is None:
            return src[indices]
        if indices.dtype == np.bool_:
            indices = np.flatnonzero(indices)
        gathered = out[: indices.size]
        np.take(src, indices, axis=0, out=gathered)
        return gathered

    def at_set(self, arr, key, src):
        arr[key] = src
        return arr

    # -- masked updates ------------------------------------------------
    def masked_assign(self, dst, src, mask):
        np.copyto(dst, src, where=_expand_mask(mask, dst))
        return dst

    def masked_fill(self, dst, value, mask):
        np.copyto(dst, value, where=_expand_mask(mask, dst))
        return dst

    def masked_axpy(self, y, alpha, x, mask=None, work=None):
        if work is None:
            work = np.empty_like(y)
        np.multiply(x, _per_system(alpha), out=work)
        if mask is None:
            np.add(y, work, out=y)
        else:
            np.add(y, work, out=y, where=_expand_mask(mask, y))
        return y

    def axpby(self, alpha, x, beta, y, out=None, work=None):
        if out is None:
            out = np.empty_like(y)
        if work is None:
            work = np.empty_like(y)
        if out is x:
            np.multiply(y, _per_system(beta), out=work)
            np.multiply(x, _per_system(alpha), out=out)
        else:
            np.multiply(x, _per_system(alpha), out=work)
            np.multiply(y, _per_system(beta), out=out)
        np.add(out, work, out=out)
        return out

    def fused_update(self, p, r, beta, omega, v, work=None):
        if work is None:
            work = np.empty_like(p)
        np.multiply(v, _per_system(omega), out=work)
        np.subtract(p, work, out=p)
        np.multiply(p, _per_system(beta), out=p)
        np.add(p, r, out=p)
        return p

    def pipelined_cg_update(self, p, s, u, w, x, r, alpha, beta, work=None):
        if work is None:
            work = np.empty_like(x)
        a = _per_system(alpha)
        be = _per_system(beta)
        np.multiply(p, be, out=p)
        np.add(p, u, out=p)
        np.multiply(s, be, out=s)
        np.add(s, w, out=s)
        np.multiply(p, a, out=work)
        np.add(x, work, out=x)
        np.multiply(s, a, out=work)
        np.subtract(r, work, out=r)
        return p, s, x, r

    def fma_update(self, ax, alpha, beta, y):
        alpha = np.asarray(alpha, dtype=ax.dtype)
        beta = np.asarray(beta, dtype=y.dtype)
        if alpha.ndim == 1:
            alpha = alpha[:, None]
        if beta.ndim == 1:
            beta = beta[:, None]
        np.multiply(ax, alpha, out=ax)
        np.multiply(y, beta, out=y)
        np.add(y, ax, out=y)
        return y

    # -- format kernels ------------------------------------------------
    @_quiet
    def csr_spmv(self, row_ptrs, col_idxs, values, x, out=None):
        num_batch, nnz = values.shape
        num_rows = row_ptrs.shape[0] - 1
        gathered = x[:, col_idxs]
        gathered *= values
        if out is None:
            out = np.empty((num_batch, num_rows), dtype=values.dtype)
        if nnz == 0:
            out[...] = 0.0
            return out
        # Per-row segment reduction with reduceat: each row is summed
        # independently (no cross-row accumulation, so rows of wildly
        # different magnitude cannot contaminate each other — a global
        # prefix sum would).  A zero sentinel keeps trailing empty rows'
        # start index (== nnz) in bounds; reduceat returns the element at
        # `start` for empty segments, which the mask then zeroes.
        padded = np.empty((num_batch, nnz + 1), dtype=gathered.dtype)
        padded[:, :nnz] = gathered
        padded[:, nnz] = 0.0
        starts = row_ptrs[:-1].astype(np.int64)
        out[...] = np.add.reduceat(padded, starts, axis=1)
        empty = np.diff(row_ptrs) == 0
        if np.any(empty):
            out[:, empty] = 0.0
        return out

    @_quiet
    def ell_spmv(self, gather_cols, values, x, out=None, operand=None):
        if not _contractible(values, x, out):
            out = _zeroed_out(values, out)
            for k in range(values.shape[1]):
                out += values[:, k, :] * x[:, gather_cols[k]]
            return out
        if operand is None:
            operand = np.empty(values.shape, dtype=values.dtype)
        # One gather for every slot: row b of the flat operand is
        # x[b, gather_cols.ravel()], i.e. slot k's operand at [b, k, :].
        # mode="clip" lets take write into the buffer directly ("raise"
        # stages a copy); BatchEll validates the indices at construction.
        np.take(x, gather_cols.reshape(-1), axis=1, mode="clip",
                out=operand.reshape(values.shape[0], -1))
        return np.einsum("bki,bki->bi", values, operand, out=out)

    @_quiet
    def dia_spmv(self, spans, values, x, out=None, operand=None):
        if not _contractible(values, x, out):
            out = _zeroed_out(values, out)
            work = np.empty(out.shape, dtype=values.dtype)
            for k, d, lo, hi in spans:
                if lo < hi:
                    w = work[:, : hi - lo]
                    np.multiply(values[:, k, lo:hi], x[:, lo + d : hi + d], out=w)
                    seg = out[:, lo:hi]
                    np.add(seg, w, out=seg)
            return out
        if operand is None:
            operand = np.zeros(values.shape, dtype=values.dtype)
        for k, d, lo, hi in spans:
            if lo < hi:
                operand[:, k, lo:hi] = x[:, lo + d : hi + d]
        return np.einsum("bki,bki->bi", values, operand, out=out)

    @_quiet
    def dense_matvec(self, values, x, out=None):
        y = np.einsum("bij,bj->bi", values, x, optimize=True)
        if out is None:
            return y
        out[...] = y
        return out

    @_quiet
    def dense_matvec_acc(self, values, x, work=None):
        return np.einsum("bij,bj->bi", values, x, optimize=True, out=work)


class JaxBackend(ArrayBackend):
    """Optional jit-compiled backend over ``jax.numpy`` (lazy import)."""

    name = "jax"
    is_host = False

    def __init__(self):
        try:
            import jax
        except ImportError as exc:  # pragma: no cover - exercised w/o jax
            raise BackendUnavailableError(
                "the 'jax' backend requires JAX (pip install \"jax[cpu]\")"
            ) from exc
        # fp64 throughout: the conformance contract is 1e-12 agreement
        # with the NumPy fp64 path on the n=992 stencil.
        jax.config.update("jax_enable_x64", True)
        import jax.numpy as jnp

        self._jax = jax
        self.xp = jnp
        self._jit: dict = {}
        # Pattern-derived device constants, keyed by the identity of the
        # (immutable, matrix-lifetime) host pattern arrays.
        self._patterns: dict = {}

    # -- jit plumbing --------------------------------------------------
    def _jitted(self, key, factory):
        fn = self._jit.get(key)
        if fn is None:
            fn = self._jax.jit(factory())
            self._jit[key] = fn
        return fn

    def _pattern(self, key, anchor, build):
        ent = self._patterns.get(key)
        if ent is None or ent[0] is not anchor:
            ent = (anchor, build())
            self._patterns[key] = ent
        return ent[1]

    # -- creation / movement ------------------------------------------
    def zeros(self, shape, dtype):
        return self.xp.zeros(shape, dtype=dtype)

    def asarray(self, data, dtype=None):
        return self.xp.asarray(data, dtype=dtype)

    def to_host(self, a):
        return np.asarray(a)

    def to_host_copy(self, a):
        return np.asarray(a)

    def fill(self, dst, value):
        return self.xp.full(dst.shape, value, dtype=dst.dtype)

    def copyto(self, dst, src):
        src = self.xp.asarray(src, dtype=dst.dtype)
        if src.shape != dst.shape:
            src = self.xp.broadcast_to(src, dst.shape)
        return src

    # -- elementwise ---------------------------------------------------
    def add(self, a, b, out=None):
        return self.xp.add(a, b)

    def subtract(self, a, b, out=None):
        return self.xp.subtract(a, b)

    def multiply(self, a, b, out=None):
        return self.xp.multiply(a, b)

    def masked_add(self, y, upd, mask):
        return self.xp.where(_expand_mask(mask, y), y + upd, y)

    # -- reductions ----------------------------------------------------
    def _dot_device(self, a, b, dtype=None):
        fn = self._jitted(
            ("dot", np.dtype(dtype).name if dtype is not None else None),
            lambda: (
                (lambda u, v: self.xp.einsum("bi,bi->b", u, v))
                if dtype is None
                else (
                    lambda u, v: self.xp.einsum(
                        "bi,bi->b", u, v, preferred_element_type=np.dtype(dtype)
                    )
                )
            ),
        )
        return fn(a, b)

    def dot(self, a, b, out=None, dtype=None):
        res = np.asarray(self._dot_device(a, b, dtype=dtype))
        if out is None:
            return res
        out[...] = res
        return out

    def norm2(self, a, out=None, dtype=None):
        sq = np.asarray(self._dot_device(a, a, dtype=dtype))
        if out is None:
            return np.sqrt(sq)
        return np.sqrt(sq, out=out)

    # -- gather / scatter ----------------------------------------------
    def take(self, src, indices, out=None):
        indices = np.asarray(indices)
        if indices.dtype == np.bool_:
            indices = np.flatnonzero(indices)
        return self.xp.take(src, self.xp.asarray(indices), axis=0)

    def at_set(self, arr, key, src):
        return arr.at[key].set(src)

    # -- masked updates ------------------------------------------------
    def masked_assign(self, dst, src, mask):
        return self.xp.where(_expand_mask(mask, dst), src, dst)

    def masked_fill(self, dst, value, mask):
        return self.xp.where(_expand_mask(mask, dst), value, dst)

    def masked_axpy(self, y, alpha, x, mask=None, work=None):
        upd = y + x * _per_system(np.asarray(alpha, dtype=y.dtype))
        if mask is None:
            return upd
        return self.xp.where(_expand_mask(mask, y), upd, y)

    def axpby(self, alpha, x, beta, y, out=None, work=None):
        return x * _per_system(alpha) + y * _per_system(beta)

    def fused_update(self, p, r, beta, omega, v, work=None):
        fn = self._jitted(
            ("fused_update",),
            lambda: (lambda p, r, be, om, v: (p - om * v) * be + r),
        )
        return fn(p, r, _per_system(beta), _per_system(omega), v)

    def pipelined_cg_update(self, p, s, u, w, x, r, alpha, beta, work=None):
        def factory():
            def kernel(p, s, u, w, x, r, a, be):
                p = p * be + u
                s = s * be + w
                x = x + p * a
                r = r - s * a
                return p, s, x, r

            return kernel

        fn = self._jitted(("pipelined_cg_update",), factory)
        return fn(p, s, u, w, x, r, _per_system(alpha), _per_system(beta))

    def fma_update(self, ax, alpha, beta, y):
        alpha = np.asarray(alpha, dtype=ax.dtype)
        beta = np.asarray(beta, dtype=y.dtype)
        if alpha.ndim == 1:
            alpha = alpha[:, None]
        if beta.ndim == 1:
            beta = beta[:, None]
        return y * beta + ax * alpha

    # -- format kernels ------------------------------------------------
    def csr_spmv(self, row_ptrs, col_idxs, values, x, out=None):
        num_rows = int(row_ptrs.shape[0]) - 1
        row_ids, cols = self._pattern(
            ("csr", id(row_ptrs), id(col_idxs)),
            row_ptrs,
            lambda: (
                self.xp.asarray(
                    np.repeat(
                        np.arange(num_rows, dtype=np.int64), np.diff(row_ptrs)
                    )
                ),
                self.xp.asarray(col_idxs),
            ),
        )

        def factory():
            segment_sum = self._jax.ops.segment_sum

            def kernel(values, x, cols, row_ids):
                gathered = x[:, cols] * values
                return segment_sum(
                    gathered.T, row_ids, num_segments=num_rows
                ).T

            return kernel

        fn = self._jitted(("csr", num_rows), factory)
        return fn(values, x, cols, row_ids)

    def ell_spmv(self, gather_cols, values, x, out=None, operand=None):
        cols = self._pattern(
            ("ell", id(gather_cols)),
            gather_cols,
            lambda: self.xp.asarray(gather_cols),
        )
        fn = self._jitted(
            ("ell",),
            lambda: (lambda values, x, cols: (values * x[:, cols]).sum(axis=1)),
        )
        return fn(values, x, cols)

    def dia_spmv(self, spans, values, x, out=None, operand=None):
        num_rows = values.shape[2]

        def factory():
            jnp = self.xp

            def kernel(values, x):
                out = jnp.zeros((x.shape[0], num_rows), dtype=values.dtype)
                for k, d, lo, hi in spans:
                    if lo >= hi:
                        continue
                    out = out.at[:, lo:hi].add(
                        values[:, k, lo:hi] * x[:, lo + d : hi + d]
                    )
                return out

            return kernel

        fn = self._jitted(("dia", spans, num_rows), factory)
        return fn(values, x)

    def dense_matvec(self, values, x, out=None):
        fn = self._jitted(
            ("dense",),
            lambda: (lambda values, x: self.xp.einsum("bij,bj->bi", values, x)),
        )
        return fn(values, x)

    def dense_matvec_acc(self, values, x, work=None):
        return self.dense_matvec(values, x)


#: Singleton default backend; ``backend_of`` returns it for host arrays.
NUMPY = NumpyBackend()

_JAX_BACKEND: JaxBackend | None = None


def get_backend(spec=None) -> ArrayBackend:
    """Resolve a backend name / instance / None to an :class:`ArrayBackend`.

    ``None`` and ``"numpy"`` give the shared :data:`NUMPY` singleton;
    ``"jax"`` constructs (once) and returns the shared JAX backend,
    raising :class:`BackendUnavailableError` when JAX is not installed.
    """
    global _JAX_BACKEND
    if spec is None:
        return NUMPY
    if isinstance(spec, ArrayBackend):
        return spec
    name = str(spec).lower()
    if name in ("numpy", "host", "cpu"):
        return NUMPY
    if name == "jax":
        if _JAX_BACKEND is None:
            _JAX_BACKEND = JaxBackend()
        return _JAX_BACKEND
    raise ValueError(f"unknown backend {spec!r}; expected 'numpy' or 'jax'")


def backend_of(*arrays) -> ArrayBackend:
    """The backend owning the given arrays (host NumPy by default).

    The host check is a fast exact-type test; anything from the ``jax``
    / ``jaxlib`` modules routes to the JAX backend.  Mixed host/device
    operands resolve to the device backend (jax.numpy coerces host
    operands on entry, numpy cannot write device outputs).
    """
    for a in arrays:
        if a is None or type(a) is np.ndarray:
            continue
        mod = type(a).__module__.partition(".")[0]
        if mod in ("numpy", "builtins"):
            continue
        if mod in ("jax", "jaxlib"):
            return get_backend("jax")
    return NUMPY


def is_device_array(a) -> bool:
    """Whether ``a`` belongs to a non-host backend."""
    return not backend_of(a).is_host


def available_backends() -> tuple[str, ...]:
    """Names of backends usable in this environment."""
    names = ["numpy"]
    if importlib.util.find_spec("jax") is not None:
        names.append("jax")
    return tuple(names)
