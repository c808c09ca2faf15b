"""Bit-identity of the single-pass host DIA and ELL SpMV kernels.

``NumpyBackend.dia_spmv`` and ``ell_spmv`` copy or gather every slot's
operand into one buffer shaped like the values, then contract it with the
values in one ``einsum``.  Their contract is the sequential per-slot loop
kept below (``out = 0; out += values[:, k] * operand_k`` for each slot
``k`` in order): every output bit must match it, across dtypes, batch
sizes, slot counts, row counts, non-square shapes, empty diagonal spans,
special values, non-contiguous values, and repeated use of one matrix
object's operand buffer.  A fused multiply-add anywhere in the
contraction would round differently from the loop; ``TestFmaProbe`` pins
that it does not.
"""

import numpy as np
import pytest

from repro.core import BatchDia, BatchEll
from repro.core.backend import NUMPY
from repro.core.batch_ell import PAD_COL

DTYPES = [np.float64, np.float32]
BATCHES = [1, 2, 52]
SLOTS = [1, 3, 9, 27]
ROWS = [1, 2, 3, 992]
SHAPES = ["square", "wide", "tall"]


@np.errstate(invalid="ignore")
def dia_reference(spans, values, x):
    """Sequential per-diagonal accumulation onto zeros (the contract)."""
    out = np.zeros((values.shape[0], values.shape[2]), dtype=values.dtype)
    for k, d, lo, hi in spans:
        if lo < hi:
            out[:, lo:hi] += values[:, k, lo:hi] * x[:, lo + d : hi + d]
    return out


@np.errstate(invalid="ignore")
def ell_reference(gather_cols, values, x):
    """Sequential per-slot accumulation onto zeros (the contract)."""
    out = np.zeros((values.shape[0], values.shape[2]), dtype=values.dtype)
    for k in range(values.shape[1]):
        out += values[:, k, :] * x[:, gather_cols[k]]
    return out


def assert_bits(actual, expected):
    """Bit-for-bit equality.  NaN positions must match; a NaN's payload
    is not compared (it depends on which operand the CPU propagates)."""
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(actual), nan)
    uint = np.dtype(f"u{expected.dtype.itemsize}")
    np.testing.assert_array_equal(
        actual[~nan].view(uint), expected[~nan].view(uint)
    )


def num_cols_for(shape, n, k):
    if shape == "square":
        return n
    if shape == "wide":
        return n + k
    return max(1, n - 1)


def make_dia(rng, nb, k, n, m, dtype):
    """A DIA batch with ``min(k, n + m - 1)`` random distinct offsets."""
    offsets = np.sort(rng.choice(np.arange(-n + 1, m), size=min(k, n + m - 1),
                                 replace=False))
    bands = rng.standard_normal((nb, offsets.size, n)).astype(dtype)
    mat = BatchDia(m, offsets, bands, check=False)
    mat.values[:, mat.fringe_mask()] = 0.0
    return mat


def make_ell(rng, nb, k, n, m, dtype):
    """An ELL batch with ``k`` slots, about a fifth of them padding."""
    cols = rng.integers(0, m, size=(k, n))
    cols[rng.random((k, n)) < 0.2] = PAD_COL
    values = rng.standard_normal((nb, k, n)).astype(dtype)
    values[:, cols == PAD_COL] = 0.0
    return BatchEll(m, cols, values)


def sprinkle(rng, a, fraction=0.02):
    """Overwrite a few entries with Inf, -Inf, NaN and -0.0 (in place)."""
    flat = a.reshape(-1)
    hits = rng.choice(flat.size, size=max(1, int(fraction * flat.size)),
                      replace=False)
    flat[hits] = rng.choice([np.inf, -np.inf, np.nan, -0.0], size=hits.size)
    return a


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("n", ROWS)
@pytest.mark.parametrize("k", SLOTS)
@pytest.mark.parametrize("nb", BATCHES)
@pytest.mark.parametrize("dtype", DTYPES)
class TestBitIdentity:
    def test_dia(self, rng, dtype, nb, k, n, shape):
        m = num_cols_for(shape, n, k)
        mat = make_dia(rng, nb, k, n, m, dtype)
        x = rng.standard_normal((nb, m)).astype(dtype)
        expected = dia_reference(mat._spans, mat.values, x)
        assert_bits(mat.apply(x), expected)
        out = np.full((nb, n), np.nan, dtype=dtype)
        assert mat.apply(x, out=out) is out
        assert_bits(out, expected)

    def test_ell(self, rng, dtype, nb, k, n, shape):
        m = num_cols_for(shape, n, k)
        mat = make_ell(rng, nb, k, n, m, dtype)
        x = rng.standard_normal((nb, m)).astype(dtype)
        expected = ell_reference(mat._gather_cols, mat.values, x)
        assert_bits(mat.apply(x), expected)
        out = np.full((nb, n), np.nan, dtype=dtype)
        assert mat.apply(x, out=out) is out
        assert_bits(out, expected)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", ROWS)
class TestSpecialValues:
    """Inf, NaN and -0.0 in the values and in ``x``."""

    def test_dia(self, rng, dtype, n):
        mat = make_dia(rng, 52, 9, n, n + 9, dtype)
        band = ~mat.fringe_mask()
        vals = mat.values
        vals[:, band] = sprinkle(rng, vals[:, band].copy())
        x = sprinkle(rng, rng.standard_normal((52, n + 9)).astype(dtype))
        assert_bits(mat.apply(x), dia_reference(mat._spans, vals, x))

    def test_ell(self, rng, dtype, n):
        mat = make_ell(rng, 52, 9, n, n, dtype)
        stored = mat.col_idxs != PAD_COL
        vals = mat.values
        vals[:, stored] = sprinkle(rng, vals[:, stored].copy())
        x = sprinkle(rng, rng.standard_normal((52, n)).astype(dtype))
        assert_bits(mat.apply(x), ell_reference(mat._gather_cols, vals, x))

    def test_negative_zero_products_sum_to_positive_zero(self, dtype, n):
        """Every product is -0.0; the loop's zero start makes the sum +0.0."""
        vals = np.full((2, 3, n), -0.0, dtype=dtype)
        x = np.ones((2, n), dtype=dtype)
        mat = BatchDia(n, np.array([0]), vals[:, :1, :])
        y = mat.apply(x)
        assert not np.signbit(y).any()
        ell = BatchEll(n, np.zeros((3, n), dtype=np.int64), vals)
        assert not np.signbit(ell.apply(x)).any()


class TestFmaProbe:
    """Products ``1 * (-1)`` then ``(1 + e)**2``: the loop rounds the
    second product before adding it (sum ``2e``); a fused multiply-add
    would keep its ``e**2`` tail (sum ``2e + e**2``)."""

    @pytest.mark.parametrize("dtype, e", [(np.float64, 2.0**-30),
                                          (np.float32, 2.0**-12)])
    @pytest.mark.parametrize("fmt", ["dia", "ell"])
    def test_no_fused_multiply_add(self, dtype, e, fmt):
        n, nb = 8, 3
        vals = np.empty((nb, 2, n), dtype=dtype)
        vals[:, 0] = 1.0
        vals[:, 1] = 1.0 + e
        x = np.empty((nb, n), dtype=dtype)
        if fmt == "dia":
            # Diagonals 0 and 1; the last row's superdiagonal is fringe.
            vals[:, 1, -1] = 0.0
            x[:] = np.where(np.arange(n) % 2 == 0, -1.0, 1.0 + e)
            mat = BatchDia(n, np.array([0, 1]), vals)
            rows = slice(0, n - 1, 2)  # row i: 1 * (-1) + (1 + e) * (1 + e)
            expected = dia_reference(mat._spans, vals, x)
        else:
            cols = np.stack([np.zeros(n, dtype=np.int64),
                             np.ones(n, dtype=np.int64)])
            x[:] = 1.0 + e
            x[:, 0] = -1.0
            mat = BatchEll(n, cols, vals)
            rows = slice(None)
            expected = ell_reference(mat._gather_cols, vals, x)
        y = mat.apply(x)
        assert_bits(y, expected)
        np.testing.assert_array_equal(y[:, rows], dtype(2 * e))
        assert dtype(2 * e + e * e) != dtype(2 * e)  # the probe can tell


class TestKernelEdges:
    def test_empty_spans_skipped(self, rng):
        """Offsets outside (-n, m) give lo >= hi: no contribution, and the
        buffer's rows for them stay zero."""
        n, m = 6, 5
        offsets = np.array([-9, -1, 0, 2, 7])
        vals = rng.standard_normal((4, offsets.size, n))
        mat = BatchDia(m, offsets, vals, check=False)
        mat.values[:, mat.fringe_mask()] = 0.0
        empty = [k for k, _, lo, hi in mat._spans if lo >= hi]
        assert empty
        x = rng.standard_normal((4, m))
        assert_bits(mat.apply(x), dia_reference(mat._spans, mat.values, x))
        assert not mat._operand[:, empty].any()

    @pytest.mark.parametrize("fmt", ["dia", "ell"])
    def test_non_contiguous_values(self, rng, fmt):
        n, nb = 40, 5
        if fmt == "dia":
            offsets = np.array([-3, -1, 0, 1, 3])
            spans = BatchDia(n, offsets, np.zeros((1, 5, n)))._spans
            wide = rng.standard_normal((nb, 5, 2 * n))
            vals = wide[:, :, ::2]
            for k, _, lo, hi in spans:
                vals[:, k, :lo] = 0.0
                vals[:, k, hi:] = 0.0
            assert not vals.flags.c_contiguous
            x = rng.standard_normal((nb, n))
            y = NUMPY.dia_spmv(spans, vals, x, operand=np.zeros((nb, 5, n)))
            expected = dia_reference(spans, vals, x)
        else:
            cols = rng.integers(0, n, size=(7, n))
            # Slot axis innermost in memory: were the operand buffer laid
            # out like this too, einsum would reduce the slots out of order.
            vals = np.ascontiguousarray(
                rng.standard_normal((nb, n, 7))).transpose(0, 2, 1)
            assert not vals.flags.c_contiguous
            x = rng.standard_normal((nb, n))
            y = NUMPY.ell_spmv(cols, vals, x, operand=np.empty((nb, 7, n)))
            expected = ell_reference(cols, vals, x)
        assert_bits(y, expected)

    @pytest.mark.parametrize("fmt", ["dia", "ell"])
    def test_kernel_allocates_missing_buffers(self, rng, fmt):
        """Called without ``out`` or ``operand``, a kernel allocates both."""
        mat = (make_dia if fmt == "dia" else make_ell)(rng, 3, 5, 30, 32,
                                                       np.float64)
        x = rng.standard_normal((3, 32))
        if fmt == "dia":
            y = NUMPY.dia_spmv(mat._spans, mat.values, x)
            expected = dia_reference(mat._spans, mat.values, x)
        else:
            y = NUMPY.ell_spmv(mat._gather_cols, mat.values, x)
            expected = ell_reference(mat._gather_cols, mat.values, x)
        assert_bits(y, expected)

    @pytest.mark.parametrize("fmt", ["dia", "ell"])
    def test_non_contiguous_out(self, rng, fmt):
        n, nb = 30, 4
        mat = (make_dia if fmt == "dia" else make_ell)(rng, nb, 5, n, n,
                                                       np.float64)
        x = rng.standard_normal((nb, n))
        expected = mat.apply(x).copy()
        out = np.empty((n, nb)).T
        assert mat.apply(x, out=out) is out
        assert_bits(out, expected)


class TestOperandBufferReuse:
    def test_dia_fringe_survives_nan_operand(self, rng):
        """A NaN ``x`` fills only in-band operand positions; the zeroed
        fringe keeps the next product exact."""
        mat = make_dia(rng, 52, 9, 992, 992, np.float64)
        assert mat.padding_fraction() > 0
        x_nan = np.full((52, 992), np.nan)
        assert np.isnan(mat.apply(x_nan)).all()
        buffer = mat._operand
        assert not buffer[:, mat.fringe_mask()].any()
        x = rng.standard_normal((52, 992))
        assert_bits(mat.apply(x), dia_reference(mat._spans, mat.values, x))
        assert mat._operand is buffer

    def test_ell_buffer_overwritten_each_call(self, rng):
        mat = make_ell(rng, 52, 9, 992, 992, np.float64)
        mat.apply(np.full((52, 992), np.nan))
        buffer = mat._operand
        x = rng.standard_normal((52, 992))
        assert_bits(mat.apply(x),
                    ell_reference(mat._gather_cols, mat.values, x))
        assert mat._operand is buffer

    def test_chunk_views_get_own_buffers(self, rng):
        """``slice_batch`` chunks are separate matrix objects, each with a
        chunk-sized buffer; the parent's buffer is never allocated."""
        mat = make_dia(rng, 12, 5, 50, 50, np.float64)
        x = rng.standard_normal((12, 50))
        parts = [mat.slice_batch(s, s + 4) for s in range(0, 12, 4)]
        y = np.concatenate([p.apply(x[i * 4:(i + 1) * 4])
                            for i, p in enumerate(parts)])
        assert mat._operand is None
        assert all(p._operand.shape == (4, 5, 50) for p in parts)
        assert_bits(y, dia_reference(mat._spans, mat.values, x))
