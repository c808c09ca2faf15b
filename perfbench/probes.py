"""Where the traced run puts its spans: public callables of each layer.

Every span name maps to the per-layer metric its self time is reported
under (:data:`SELF_METRIC`).  Spans that have children of their own report
their self time as a named ``*.other_s`` residual.  Counters are gathered
by hooks that read the objects the package already returns.
"""

from __future__ import annotations

import importlib
import pkgutil
import time

from spans import Patcher, Tracer

#: Span name -> per-layer metric holding its self time.
SELF_METRIC = {
    "xgc.step": "xgc.step_other_s",
    "xgc.assemble": "xgc.assemble_s",
    "xgc.coefficients": "xgc.coefficients_s",
    "xgc.conservation": "xgc.conservation_s",
    "core.solve": "core.solve_other_s",
    "core.spmv": "core.spmv_s",
    "core.precond": "core.precond_s",
    "core.blas1": "core.blas1_s",
    "core.verify": "core.verify_s",
    "core.compact": "core.compact_s",
    "core.health": "core.health_s",
    "gpu.bill": "gpu.bill_s",
    "tune.select": "tune.select_s",
    "service.submit": "service.submit_s",
    "service.coalesce": "service.coalesce_s",
    "service.concat": "service.concat_s",
    "service.client": "service.client_s",
    "service.complete": "service.complete_s",
    "service.loop": "service.loop_other_s",
    # The serve span's self time is split into start and exit by the
    # workload (it knows when the client loop ended).
    "service.serve": None,
}

#: BLAS-1 helpers the solver modules import by name.
BLAS1_NAMES = (
    "batch_dot", "batch_norm2", "fused_dots", "fused_update",
    "masked_assign", "masked_axpy", "masked_fill", "axpby",
    "pipelined_cg_update", "safe_divide",
)

#: Backend primitives solver bodies call directly (timed as BLAS-1 only
#: when called from the solve itself, not from inside an SpMV).
BACKEND_NAMES = ("add", "subtract", "multiply", "copyto", "fill")


def _spmv_bytes(work_fn):
    """Hook adding one SpMV call's computed bytes to ``core.spmv_bytes``.

    Bytes come from the GPU model's :func:`spmv_work` for the format: value
    and vector traffic for every system of the call plus the shared index
    metadata once.  Computed, not measured.
    """
    def hook(tracer, args, result):
        matrix, x = args[0], args[1]
        fmt = type(matrix).__name__.removeprefix("Batch").lower()
        if fmt not in ("csr", "ell", "dia"):
            return
        n = int(matrix.num_rows)
        work = work_fn(
            n, int(matrix.nnz_per_system), fmt,
            stored_nnz=int(getattr(matrix, "stored_per_system",
                                   matrix.nnz_per_system)),
            value_bytes=int(x.dtype.itemsize),
        )
        batch = int(x.shape[0])
        tracer.count("core.spmv_calls")
        tracer.count("core.spmv_bytes",
                     batch * (work.matrix_bytes + work.vector_bytes)
                     + work.index_bytes)
    return hook


def _solve_hook(kernel):
    """Counts Krylov iterations and the per-iteration bytes they imply."""
    def hook(tracer, args, result):
        solver, matrix = args[0], args[1]
        iters = float(result.iterations.sum())
        tracer.count("core.linear_iters", iters)
        fmt = type(matrix).__name__.removeprefix("Batch").lower()
        if fmt not in ("csr", "ell", "dia"):
            return
        n = int(matrix.num_rows)
        value_bytes = int(result.x.dtype.itemsize)
        storage = kernel.storage_for_solver(
            solver.name, n, 0, value_bytes=value_bytes
        )
        work = kernel.iteration_work(
            solver.op_schedule(), n, int(matrix.nnz_per_system), fmt, storage,
            stored_nnz=int(getattr(matrix, "stored_per_system",
                                   matrix.nnz_per_system)),
            value_bytes=value_bytes,
        )
        per_system = work.matrix_bytes + work.index_bytes + work.vector_bytes
        tracer.count("core.iter_bytes", iters * per_system)
    return hook


def _verify_hook(tracer, args, result):
    drv = args[0]
    tracer.count("core.verify_rows", int(drv.state.b.shape[0]))
    tracer.count("core.verify_confirmed", int(result[0].sum()))


def _compact_hook(tracer, args, result):
    if result:
        tracer.count("core.compaction_events")


def _finish_hook(tracer, args, result):
    stats = args[0].stats
    tracer.count("core.trips", stats.trips)
    tracer.count("core.verify_events", stats.verify_events)
    tracer.count("core.restart_events", stats.restart_events)


def _solver_modules():
    solvers = importlib.import_module("repro.core.solvers")
    for info in pkgutil.iter_modules(solvers.__path__):
        if info.name != "base":
            yield importlib.import_module(f"repro.core.solvers.{info.name}")


def install(tracer: Tracer) -> Patcher:
    """Install every span wrapper; the caller restores the returned patcher."""
    from repro.core.backend import NumpyBackend
    from repro.core.batch_csr import BatchCsr
    from repro.core.batch_dia import BatchDia
    from repro.core.batch_ell import BatchEll
    from repro.core import preconditioners as pre
    from repro.core.solvers.base import BatchedIterativeSolver, IterationDriver
    from repro.core.solvers.refinement import RefinementSolver
    from repro.gpu import kernel
    from repro.service import coalescer, dispatcher, service, traffic
    from repro.xgc import picard

    p = Patcher(tracer)
    try:
        # xgc: the Picard step and the layers around its solves.
        p.wrap(picard.PicardStepper, "step", "xgc.step")
        p.wrap(picard.PicardStepper, "assemble", "xgc.assemble")
        p.wrap(picard, "linearized_coefficients_masses", "xgc.coefficients")
        p.wrap(picard, "apply_conservation_fix", "xgc.conservation")
        p.wrap(picard, "check_conservation", "xgc.conservation")

        # core: the batched solve and its kernels.
        solve_hook = _solve_hook(kernel)
        p.wrap(BatchedIterativeSolver, "solve", "core.solve", after=solve_hook)
        p.wrap(RefinementSolver, "solve", "core.solve")
        spmv_hook = _spmv_bytes(kernel.spmv_work)
        for cls in (BatchCsr, BatchEll, BatchDia):
            p.wrap(cls, "apply", "core.spmv", after=spmv_hook)
            p.wrap(cls, "advanced_apply", "core.spmv")
        for cls in (pre.IdentityPreconditioner, pre.JacobiPreconditioner,
                    pre.BlockJacobiPreconditioner, pre.Ilu0Preconditioner):
            p.wrap(cls, "generate", "core.precond")
            p.wrap(cls, "apply", "core.precond")
        for mod in _solver_modules():
            for attr in BLAS1_NAMES:
                if hasattr(mod, attr):
                    p.wrap(mod, attr, "core.blas1")
        solve_only = frozenset({"core.solve"})
        for attr in BACKEND_NAMES:
            p.wrap(NumpyBackend, attr, "core.blas1", only_under=solve_only)
        p.wrap(IterationDriver, "verify_and_freeze", "core.verify",
               after=_verify_hook)
        p.wrap(IterationDriver, "maybe_compact", "core.compact",
               after=_compact_hook)
        p.wrap(IterationDriver, "update_norms", "core.health")
        p.wrap(IterationDriver, "finish", None, after=_finish_hook)

        # gpu and tune, as the service calls them.
        p.wrap(dispatcher, "estimate_iterative_solve", "gpu.bill")
        p.wrap(coalescer, "tune_for_matrix", "tune.select")

        # service: admission, coalescing, dispatch, completion, client.
        p.wrap(service.SolverService, "submit", "service.submit")
        p.wrap(service.SolverService, "_complete", "service.complete")
        for attr in ("add", "due", "next_flush_time"):
            p.wrap(coalescer.Coalescer, attr, "service.coalesce")
        p.wrap(dispatcher, "concat_requests", "service.concat")
        p.wrap(traffic, "make_request", "service.client")
        p.wrap_async(traffic, "run_traffic", "service.loop",
                     on_end=_mark_loop_end)
    except BaseException:
        p.restore()
        raise
    return p


def _mark_loop_end(tracer: Tracer) -> None:
    tracer.counters["service.loop_end"] = time.perf_counter()
