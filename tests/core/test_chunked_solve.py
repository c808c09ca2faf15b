"""Cache-blocked solves: chunked and whole-batch solves are bit-identical.

A host batch larger than one cache-sized chunk is solved chunk by chunk
(:meth:`BatchedIterativeSolver._solve_chunks`).  Systems are independent,
so every per-system output — solution, iteration count, residual norm,
convergence flag, health code, residual history — must match the
whole-batch solve bit for bit, and the merged solver records
(``last_health``, ``last_op_stats``, ``last_compaction_events``, the
logger) must describe the whole batch.  The tests force tiny chunks,
including a ragged last chunk, by patching the private L2-size helper.
"""

import math
import warnings

import numpy as np
import pytest

from repro.core import (
    AbsoluteResidual,
    BatchCsr,
    BatchLogger,
    SolverHealth,
    SolverWorkspace,
    make_solver,
    to_format,
)
from repro.core.backend import get_backend
from repro.core.solvers import base
from repro.core.solvers.schedule import OpStats, measure_op_counts
from repro.utils import FaultInjector, FaultSpec

NB, N, CHUNK = 11, 24, 4  # chunks of 4, 4 and a ragged 3
TOL = 1e-10
OFFSETS = (-3, -1, 0, 1, 3)
HOST = get_backend("numpy")

GENERAL = ["bicgstab", "pipelined_bicgstab", "cgs", "gmres", "richardson",
           "refinement", "escalation"]
SPD = ["cg", "pipelined_cg"]
FORMATS = ["csr", "ell", "dia", "dense"]


def banded_dense(rng, *, spd=False, contraction=False):
    """A batch of banded systems (five shared diagonals, per-system values).

    Diagonally dominant by default; ``contraction`` scales the
    off-diagonals so every solver converges with the identity
    preconditioner (the fault tests need it: Jacobi rejects a NaN diagonal
    at generation, before the solver runs).
    """
    vals = np.zeros((NB, N, N))
    i = np.arange(N)
    for d in OFFSETS:
        if d:
            rows = i[max(0, -d): N - max(0, d)]
            vals[:, rows, rows + d] = rng.standard_normal((NB, rows.size))
    if spd:
        vals = vals + np.swapaxes(vals, 1, 2)
    off = np.abs(vals).sum(axis=2)
    if contraction:
        vals *= 0.4 / np.maximum(off, 1e-30)[:, :, None]
        vals[:, i, i] = 1.0
    else:
        vals[:, i, i] = off + 1.0
    return vals


def problem(rng, fmt, *, spd=False, warm=False):
    """(matrix, b, x0): a warm start leaves every third system converged
    on entry and the rest close, so verify, compaction and the
    converged-at-entry path all run inside chunks."""
    dense = banded_dense(rng, spd=spd)
    m = to_format(BatchCsr.from_dense(dense), fmt)
    x_true = rng.standard_normal((NB, N))
    b = m.apply(x_true)
    if not warm:
        return m, b, None
    x0 = x_true + 1e-3 * rng.standard_normal((NB, N))
    x0[::3] = x_true[::3]
    return m, b, x0


def build(name, **kw):
    opts = dict(preconditioner="jacobi", criterion=AbsoluteResidual(TOL),
                max_iter=2000)
    if name == "refinement":
        opts.pop("max_iter")
    opts.update(kw)
    return make_solver(name, **opts)


def primary(solver):
    """The BatchedIterativeSolver a wrapper runs its chunked solves on."""
    if hasattr(solver, "rungs"):
        solver = solver.rungs[0]
    return getattr(solver, "inner", solver)


def force_chunk(monkeypatch, solver, matrix, rows):
    """Patch the L2 size so ``solver`` cuts ``matrix`` into ``rows``-system
    chunks (``rows=None``: the whole batch is one chunk)."""
    if rows is None:
        monkeypatch.setattr(base, "_l2_cache_bytes", lambda: 1 << 50)
        return
    need = rows * solver._system_bytes(matrix) / base._CHUNK_CACHE_MULTIPLE
    monkeypatch.setattr(base, "_l2_cache_bytes", lambda: math.ceil(need))
    expected = rows if solver.chunkable else matrix.num_batch
    assert solver._chunk_rows(matrix, HOST) == expected


def run(monkeypatch, name, m, b, x0, rows, **kw):
    solver = build(name, **kw)
    inner = primary(solver)
    force_chunk(monkeypatch, inner, m if name != "refinement"
                else m.astype(inner.precision.storage_dtype), rows)
    return solver, solver.solve(m, b, x0)


def assert_same(whole, chunked):
    np.testing.assert_array_equal(chunked.x, whole.x)
    np.testing.assert_array_equal(chunked.iterations, whole.iterations)
    np.testing.assert_array_equal(chunked.residual_norms, whole.residual_norms)
    np.testing.assert_array_equal(chunked.converged, whole.converged)
    if whole.health is None:
        assert chunked.health is None
    else:
        np.testing.assert_array_equal(chunked.health, whole.health)


class TestBitIdentical:
    @pytest.mark.parametrize("warm", [False, True], ids=["x0-none", "x0-given"])
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("name", GENERAL + SPD)
    def test_chunked_equals_whole(self, rng, monkeypatch, name, fmt, warm):
        m, b, x0 = problem(rng, fmt, spd=name in SPD, warm=warm)
        _, whole = run(monkeypatch, name, m, b, x0, None)
        solver, chunked = run(monkeypatch, name, m, b, x0, CHUNK)
        assert whole.all_converged
        assert_same(whole, chunked)
        stats = primary(solver).last_op_stats
        # GMRES couples systems through its restart cycles and never chunks.
        assert stats.solves == (1 if name == "gmres" else 3)


class TestMergedRecords:
    @pytest.mark.parametrize("name", ["bicgstab", "pipelined_cg", "cgs"])
    def test_records_sum_over_chunks(self, rng, monkeypatch, name):
        """The merged solver records equal those of three separate solves
        of the chunks, and the residual history equals the whole-batch
        history (chunks padded with their final norms)."""
        m, b, x0 = problem(rng, "dia", spd=name == "pipelined_cg", warm=True)
        # compact_min_batch=1 lets compaction fire inside 4-system chunks.
        whole_solver, whole = run(monkeypatch, name, m, b, x0, None,
                                  logger=BatchLogger(record_history=True),
                                  compact_min_batch=1)
        solver, chunked = run(monkeypatch, name, m, b, x0, CHUNK,
                              logger=BatchLogger(record_history=True),
                              compact_min_batch=1)
        assert_same(whole, chunked)

        assert len(chunked.residual_history) == len(whole.residual_history)
        for h_chunked, h_whole in zip(chunked.residual_history,
                                      whole.residual_history):
            np.testing.assert_array_equal(h_chunked, h_whole)
        np.testing.assert_array_equal(solver.last_health, whole_solver.last_health)
        np.testing.assert_array_equal(solver.logger.iterations, whole.iterations)
        np.testing.assert_array_equal(solver.logger.residual_norms,
                                      whole_solver.logger.residual_norms)
        assert len(solver.logger.history) == len(whole.residual_history)

        expected = OpStats(solves=0)
        events = 0
        for start in range(0, NB, CHUNK):
            stop = min(start + CHUNK, NB)
            part = build(name, compact_min_batch=1)
            force_chunk(monkeypatch, part, m, None)
            part.solve(m.slice_batch(start, stop), b[start:stop],
                       x0[start:stop])
            expected.absorb(part.last_op_stats)
            events += part.last_compaction_events
        assert solver.last_op_stats == expected
        assert solver.last_compaction_events == events
        assert events >= 1

    @pytest.mark.parametrize("name", ["bicgstab", "pipelined_bicgstab", "cg",
                                      "pipelined_cg", "cgs", "richardson"])
    def test_op_counts_match_schedule(self, rng, monkeypatch, name):
        """Measured kernel counts of a chunked solve equal the schedule's
        prediction from the merged stats: every chunk pays the setup."""
        m, b, x0 = problem(rng, "ell", spd=name in ("cg", "pipelined_cg"),
                           warm=True)
        solver = build(name)
        force_chunk(monkeypatch, solver, m, CHUNK)
        counts, stats, _ = measure_op_counts(solver, m, b, x0)
        assert stats.solves == 3
        expected = solver.op_schedule().expected_counts(stats)
        for op, value in counts.as_dict().items():
            assert value == expected[op], op


class TestFaultIsolation:
    @pytest.mark.parametrize("kind", ["nan", "inf", "breakdown"])
    @pytest.mark.parametrize("name", ["bicgstab", "pipelined_bicgstab", "cgs",
                                      "richardson"])
    def test_poisoned_lane_stays_isolated(self, rng, monkeypatch, name, kind):
        dense = banded_dense(rng, contraction=True)
        m = BatchCsr.from_dense(dense)
        b = rng.standard_normal((NB, N))
        inj = FaultInjector([FaultSpec(kind, system=5, rows=(3,))
                             if kind != "breakdown"
                             else FaultSpec(kind, system=5)])
        bad_m, bad_b = inj.corrupt_matrix(m), inj.corrupt_rhs(b)
        _, clean = run(monkeypatch, name, m, b, None, None,
                       preconditioner="identity")
        _, whole = run(monkeypatch, name, bad_m, bad_b, None, None,
                       preconditioner="identity")
        solver, chunked = run(monkeypatch, name, bad_m, bad_b, None, CHUNK,
                              preconditioner="identity")
        assert_same(whole, chunked)
        healthy = np.arange(NB) != 5
        np.testing.assert_array_equal(chunked.x[healthy], clean.x[healthy])
        assert (chunked.health[healthy] == SolverHealth.CONVERGED).all()
        np.testing.assert_array_equal(solver.last_health, chunked.health)


    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("name", ["bicgstab", "pipelined_bicgstab", "cgs",
                                      "richardson"])
    def test_inf_lane_leaks_no_backend_warning(self, rng, monkeypatch, name,
                                               fmt):
        """The SpMV kernels meet 0 x Inf on an Inf-poisoned lane (x0 = 0
        in the first residual); the health guards isolate that lane, so
        no kernel warns the caller about it."""
        dense = banded_dense(rng, contraction=True)
        m = to_format(BatchCsr.from_dense(dense), fmt)
        b = rng.standard_normal((NB, N))
        inj = FaultInjector([FaultSpec("inf", system=5, rows=(3,))])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, res = run(monkeypatch, name, inj.corrupt_matrix(m), b, None,
                         CHUNK, preconditioner="identity")
        leaked = [str(w.message) for w in caught
                  if issubclass(w.category, RuntimeWarning)
                  and w.filename.endswith("backend.py")]
        assert leaked == []
        assert res.health[5] != SolverHealth.CONVERGED


class TestCandidateVerify:
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("name", ["bicgstab", "pipelined_bicgstab", "cgs",
                                      "pipelined_cg"])
    def test_equals_whole_batch_verify(self, rng, monkeypatch, name, fmt):
        """Verifying only the candidate systems gives the same bits as
        recomputing the true residual of the whole batch."""
        from repro.core.batch_dense import batch_norm2
        from repro.core.spmv import residual

        m, b, x0 = problem(rng, fmt, spd=name == "pipelined_cg", warm=True)
        force_chunk(monkeypatch, build(name), m, None)
        gathers = []
        cls = type(m)
        take = cls.take_batch

        def counting_take(self, indices, **kw):
            gathers.append(len(indices))
            return take(self, indices, **kw)

        monkeypatch.setattr(cls, "take_batch", counting_take)
        # Compaction off: every gather below is a candidate verify.
        fast = build(name, compact_threshold=None).solve(m, b, x0)
        assert gathers

        def whole_verify(self, candidates):
            st = self.state
            st.true_r = residual(st.matrix, st.x, st.b, out=st.true_r)
            return st.true_r, batch_norm2(st.true_r, dtype=st.acc_dtype)

        monkeypatch.setattr(base.IterationDriver, "_true_residual", whole_verify)
        slow = build(name, compact_threshold=None).solve(m, b, x0)
        assert_same(slow, fast)


class TestChunkMechanics:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_slice_batch_is_a_zero_copy_view(self, rng, fmt):
        m, b, _ = problem(rng, fmt)
        part = m.slice_batch(4, 8)
        assert part.num_batch == 4
        assert np.shares_memory(part.values, m.values)
        np.testing.assert_array_equal(part.values, m.values[4:8])
        np.testing.assert_array_equal(part.apply(b[4:8]), m.apply(b)[4:8])

    def test_workspace_leading_rows_share_memory(self):
        ws = SolverWorkspace(4, 6)
        view = ws.leading(3)
        assert ws.leading(4) is ws
        v = view.vector("r")
        v[...] = 1.0
        assert v.shape == (3, 6)
        np.testing.assert_array_equal(ws.vector("r")[:3], 1.0)
        np.testing.assert_array_equal(ws.vector("r")[3], 0.0)
        assert view.scalar("rho", fill=2.0).shape == (3,)
        assert ws.scalar("rho")[:3].tolist() == [2.0] * 3
        with pytest.raises(ValueError):
            ws.leading(5)

    def test_external_workspace_runs_chunks_in_its_leading_rows(
            self, rng, monkeypatch):
        m, b, x0 = problem(rng, "dia", warm=True)
        _, whole = run(monkeypatch, "bicgstab", m, b, x0, None)
        solver = build("bicgstab")
        force_chunk(monkeypatch, solver, m, CHUNK)
        ws = SolverWorkspace(NB, N)
        res = solver.solve(m, b, x0, workspace=ws)
        assert_same(whole, res)
        assert solver._workspace is None  # nothing allocated by the solver
        # Only the leading chunk's rows were ever written.
        assert ws.vector("p")[:CHUNK].any()
        assert not ws.vector("p")[CHUNK:].any()

    def test_small_batch_takes_the_whole_batch_path(self, rng, monkeypatch):
        m, b, _ = problem(rng, "ell")
        solver = build("bicgstab")
        force_chunk(monkeypatch, solver, m, None)
        solver.solve(m, b)
        assert solver.last_op_stats.solves == 1
        assert solver._workspace.num_batch == NB

    def test_chunk_workspace_is_chunk_sized(self, rng, monkeypatch):
        m, b, _ = problem(rng, "ell")
        solver = build("bicgstab")
        force_chunk(monkeypatch, solver, m, CHUNK)
        solver.solve(m, b)
        assert solver._workspace.num_batch == CHUNK

    def test_l2_size_is_positive(self):
        assert base._l2_cache_bytes() > 0


def test_picard_step_chunked_equals_whole(monkeypatch):
    """A Picard step (assembly, five warm-started solves, conservation fix)
    is bit-identical whether its solves run whole or in chunks."""
    from repro.xgc import CollisionProxyApp, PicardOptions, ProxyAppConfig

    def step(rows):
        app = CollisionProxyApp(ProxyAppConfig(
            num_mesh_nodes=3, picard=PicardOptions(matrix_format="dia")))
        f0 = app.initial_state()
        solver = app.stepper._solver
        force_chunk(monkeypatch, solver, app.stepper.assemble(f0, app.config.dt),
                    rows)
        out = app.run(1, f0=f0)
        return out.f_final, out.step_results[0].linear_iterations, solver

    f_whole, it_whole, _ = step(None)
    f_chunk, it_chunk, solver = step(4)
    assert f_whole.shape[0] > 4
    np.testing.assert_array_equal(f_chunk, f_whole)
    np.testing.assert_array_equal(it_chunk, it_whole)
    assert solver.last_op_stats.solves > 1
