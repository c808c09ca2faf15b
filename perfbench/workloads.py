"""The benchmark's workloads: two proxy-app Picard runs and a service run.

Each workload has a ``setup`` (everything from ``import repro`` to ready
to time, repeated in fresh processes for ``setup_s``), an untraced
measurement giving the end-to-end metrics, and a traced measurement of the
same inputs giving the per-layer split.  The amount of work done is a
function of ``--seconds`` and the workload alone, never of measured time,
so counts and checksums repeat exactly for a seed.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

import probes
from spans import Tracer

@dataclass(frozen=True)
class PicardSpec:
    """A proxy-app stepping workload."""

    mesh_nodes: int
    fmt: str
    nominal_step_s: float  # host seconds per step, sizes the run


@dataclass(frozen=True)
class ServeSpec:
    """A bursty two-tenant traffic workload through ``serve_traffic``."""

    quiet_hz: float = 10e3
    # Just below the rate at which bursts queue past the degrade watermark:
    # any overload makes the offered load of a run (which varies by ~20%
    # between seeds at this length) drive the latency percentiles and the
    # degraded share, and with it the host cost per request.
    burst_hz: float = 200e3
    dwell_s: float = 2e-3
    window_s: float = 10e-3
    num_rows: int = 128
    systems_choices: tuple[int, ...] = (1, 2, 4)
    capacity: int = 256
    nominal_run_s: float = 4.2  # sizes the run: 6 realisations at 25 s
    checked_per_run: int = 8    # completed requests re-solved directly


PICARD = {
    "picard-dia-b1024": PicardSpec(mesh_nodes=512, fmt="dia", nominal_step_s=17.0),
    "picard-ell-b256": PicardSpec(mesh_nodes=128, fmt="ell", nominal_step_s=6.5),
}
SERVE = {"serve-bursty-2tenant": ServeSpec()}

QUICK_MESH_NODES = 2
QUICK_SERVE = dict(window_s=1e-3, checked_per_run=2)


def units_for(name: str, seconds: float, quick: bool) -> int:
    """Steps or traffic realisations a run of ``seconds`` measures."""
    if name in PICARD:
        return 1 if quick else max(1, round(seconds / PICARD[name].nominal_step_s))
    return 2 if quick else max(1, round(seconds / SERVE[name].nominal_run_s))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (the ``python -m repro serve`` convention)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def checksum(arr: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(arr).tobytes(),
                           digest_size=16).hexdigest()


# -- Picard ------------------------------------------------------------------

def picard_setup(name: str, seed: int, quick: bool):
    """Import, build the proxy app and its initial state."""
    from repro.xgc import CollisionProxyApp, PicardOptions, ProxyAppConfig

    spec = PICARD[name]
    config = ProxyAppConfig(
        num_mesh_nodes=QUICK_MESH_NODES if quick else spec.mesh_nodes,
        picard=PicardOptions(matrix_format=spec.fmt),
        seed=seed,
    )
    app = CollisionProxyApp(config)
    return app, app.initial_state()


def _picard_steps(app, f0, num_steps: int):
    """Step ``num_steps`` times from ``f0``; returns (seconds, steps, f)."""
    f = f0
    times, steps = [], []
    for _ in range(num_steps):
        t0 = time.perf_counter()
        out = app.run(1, f0=f)
        times.append(time.perf_counter() - t0)
        steps.append(out.step_results[0])
        f = out.f_final
    return times, steps, f


def _picard_checks(steps, f) -> tuple[int, int]:
    """(attempted, ok) system-steps: converged, finite, density conserved."""
    attempted = ok = 0
    finite = bool(np.isfinite(f).all())
    for step in steps:
        good = step.converged & step.conservation.density_ok & finite
        attempted += good.size
        ok += int(good.sum())
    return attempted, ok


def _picard_model(app, f, steps) -> list[list[float]]:
    """Modelled A100 milliseconds of each solve, per step."""
    from repro.gpu import A100
    from repro.gpu.timing import estimate_iterative_solve

    cfg = app.config
    matrix = app.stepper.assemble(f, cfg.dt)
    n = int(matrix.num_rows)
    nnz = int(matrix.nnz_per_system)
    stored = int(matrix.stored_per_system)
    return [
        [estimate_iterative_solve(
            A100, cfg.picard.matrix_format, n, nnz, iters,
            stored_nnz=stored, solver=cfg.picard.solver,
        ).total_time_s * 1e3 for iters in step.linear_iterations]
        for step in steps
    ]


def picard_measure(name: str, seed: int, seconds: float, quick: bool,
                   state) -> dict:
    """Untraced steps -> end-to-end metrics, checks and checksum."""
    app, f0 = picard_setup(name, seed, quick)
    num_steps = units_for(name, seconds, quick)
    times, steps, f = _picard_steps(app, f0, num_steps)
    attempted, ok = _picard_checks(steps, f)
    linear_iters = int(sum(int(s.linear_iterations.sum()) for s in steps))
    digest = checksum(f)
    stable = state.check(name, seed, num_steps, digest, linear_iters)
    if not stable:
        ok = 0
    model = _picard_model(app, f, steps)
    solves = [ms for step in model for ms in step]
    step_s = statistics.median(times)
    met = sum(int(s.converged.sum()) for s in steps)
    return {
        "units": num_steps,
        "attempted": attempted,
        "failed": attempted - ok,
        "checksum_stable": stable,
        "checksum": digest,
        "linear_iters": linear_iters,
        "step_times_s": times,
        "metrics": {
            "step_s": step_s,
            "model_a100_step_ms": statistics.median(sum(s) for s in model),
            "host_ms_per_request": step_s * 1e3 / app.config.num_batch,
            "latency_p50_ms": percentile(solves, 0.50),
            "latency_p99_ms": percentile(solves, 0.99),
            "deadline_met_frac": met / attempted,
            "ok_frac": ok / attempted,
        },
    }


def picard_trace(name: str, seed: int, seconds: float, quick: bool,
                 state) -> dict:
    """The same first steps untraced, then traced; per-layer metrics.

    One untimed step first, so neither timed pass pays first-call costs
    and the two walls compare as tracing overhead.
    """
    app, f0 = picard_setup(name, seed, quick)
    num_steps = math.ceil(units_for(name, seconds, quick) / 2)
    _picard_steps(app, f0, 1)
    plain_times, plain_steps, plain_f = _picard_steps(app, f0, num_steps)
    linear_iters = int(sum(int(s.linear_iterations.sum()) for s in plain_steps))
    stable = state.check(name, seed, num_steps, checksum(plain_f), linear_iters)

    tracer = Tracer()
    with probes.install(tracer):
        t0 = time.perf_counter()
        times, steps, f = _picard_steps(app, f0, num_steps)
        wall = time.perf_counter() - t0
    attempted, ok = _picard_checks(steps, f)
    identical = checksum(f) == checksum(plain_f)
    if not (stable and identical):
        ok = 0
    layers = layer_metrics(tracer, wall)
    layers["bench.trace_overhead_frac"] = sum(times) / sum(plain_times) - 1.0
    return {
        "units": num_steps,
        "attempted": attempted,
        "failed": attempted - ok,
        "checksum_stable": stable,
        "traced_bit_identical": identical,
        "metrics": layers,
    }


# -- service -----------------------------------------------------------------

def _serve_spec(quick: bool) -> ServeSpec:
    spec = SERVE["serve-bursty-2tenant"]
    if quick:
        spec = ServeSpec(**{**spec.__dict__, **QUICK_SERVE})
    return spec


def serve_setup(seed: int, quick: bool, num_runs: int):
    """Import, build the traffic, QoS and coalescing configuration, the
    reference service and the arrival schedules."""
    from repro.service import (
        CoalescePolicy, QosPolicy, SolverService, TenantSpec,
        TrafficPattern, WorkloadSpec, arrival_times,
    )

    spec = _serve_spec(quick)
    patterns = [
        TrafficPattern(
            kind="bursty", rate_hz=spec.quiet_hz, burst_rate_hz=spec.burst_hz,
            mean_dwell_s=spec.dwell_s, duration_s=spec.window_s,
            seed=seed * 1009 + 2 * i,
        )
        for i in range(num_runs)
    ]
    work = WorkloadSpec(
        num_rows=spec.num_rows, systems_choices=spec.systems_choices,
        tenants=(("gold", 1.0), ("bronze", 1.0)),
    )
    qos = QosPolicy(
        capacity=spec.capacity,
        tenants=(TenantSpec("gold", weight=3.0, deadline_s=5e-3),
                 TenantSpec("bronze", weight=1.0, deadline_s=20e-3)),
    )
    coalesce = CoalescePolicy()
    reference = SolverService(qos=qos, coalesce=coalesce)
    arrivals = [len(arrival_times(p)) for p in patterns]
    return {"spec": spec, "patterns": patterns, "work": work, "qos": qos,
            "coalesce": coalesce, "reference": reference,
            "arrivals": arrivals}


def _replay_requests(pattern, work, wanted: set[int]) -> dict:
    """Regenerate the requests ``run_traffic`` submitted, keeping ``wanted``."""
    from repro.service import arrival_times, make_request

    rng = np.random.default_rng(pattern.seed + 1)
    names = [name for name, _ in work.tenants]
    shares = np.asarray([s for _, s in work.tenants], dtype=np.float64)
    shares = shares / shares.sum()
    kept = {}
    for i, _ in enumerate(arrival_times(pattern)):
        tenant = names[int(rng.choice(len(names), p=shares))]
        request = make_request(rng, work, tenant)
        if i in wanted:
            kept[i] = request
    return kept


def _serve_check(cfg, pattern, run, expected: int, rng) -> dict:
    """Output checks of one realisation.

    Every ticket must resolve: a result, or ``None`` exactly for the shed
    ones.  Completed requests must be converged and finite, and a seeded
    sample of the completed, non-degraded ones must match a direct solve
    of the same request bit for bit.
    """
    results = run.results
    report = run.report
    shed = sum(r is None for r in results)
    if (len(results) != expected or report.submitted != expected
            or shed != report.shed):
        return {"submitted": expected, "ok": 0, "failed": expected,
                "sampled": 0}
    bad = set()
    for i, res in enumerate(results):
        if res is not None and not (res.converged.all()
                                    and np.isfinite(res.x).all()):
            bad.add(i)
    plain = [i for i, r in enumerate(results)
             if r is not None and not r.degraded and i not in bad]
    take = min(cfg["spec"].checked_per_run, len(plain))
    sample = set()
    if take:
        sample = {int(i) for i in rng.choice(plain, size=take, replace=False)}
    requests = _replay_requests(pattern, cfg["work"], sample)
    for i in sorted(sample):
        direct = cfg["reference"].direct_solve(requests[i])
        res = results[i]
        if not (np.array_equal(direct.x, res.x)
                and np.array_equal(direct.iterations, res.iterations)):
            bad.add(i)
    return {"submitted": expected, "ok": expected - shed - len(bad),
            "failed": len(bad), "sampled": take}


def _serve_digest(run) -> tuple[str, int]:
    """(blake2b of every result and its virtual finish time, iterations)."""
    h = hashlib.blake2b(digest_size=16)
    iters = 0
    for res in run.results:
        if res is None:
            h.update(b"shed")
            continue
        h.update(np.ascontiguousarray(res.x).tobytes())
        h.update(np.float64(res.finish_time).tobytes())
        iters += int(res.iterations.sum())
    return h.hexdigest(), iters


def _a100_ms(run, num_rows: int) -> float:
    """Modelled A100 milliseconds of every batch the realisation ran."""
    from repro.gpu import A100
    from repro.gpu.timing import estimate_iterative_solve

    batches: dict[int, list] = {}
    for res in run.results:
        if res is not None:
            batches.setdefault(res.batch_id, [res.degraded, []])[1].append(
                res.iterations)
    total = 0.0
    for degraded, iters in batches.values():
        total += estimate_iterative_solve(
            A100, "ell", num_rows, 3 * num_rows - 2, np.concatenate(iters),
            stored_nnz=3 * num_rows, value_bytes=4 if degraded else 8,
        ).total_time_s
    return total * 1e3


def _serve_runs(cfg, patterns, seed: int, tracer: Tracer | None = None):
    """Run each pattern through ``serve_traffic`` on this thread."""
    from repro.service import serve_traffic

    rng = np.random.default_rng([seed, 17])
    out = []
    for pattern, expected in zip(patterns, cfg["arrivals"]):
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.enabled = True
            tracer.push("service.serve")
        try:
            run = serve_traffic(pattern, cfg["work"], qos=cfg["qos"],
                                coalesce=cfg["coalesce"])
        finally:
            if tracer is not None:
                loop_end = tracer.counters.pop("service.loop_end", None)
                tracer.pop()
                tracer.enabled = False
            end = time.perf_counter()
        row = {
            "wall_s": end - t0,
            "digest": _serve_digest(run),
            "check": _serve_check(cfg, pattern, run, expected, rng),
            "report": run.report,
            "a100_ms": _a100_ms(run, cfg["spec"].num_rows),
        }
        if tracer is not None:
            row["exit_s"] = end - loop_end
        out.append(row)
        del run  # drop every request's arrays before the next realisation
    return out


def _serve_totals(rows) -> dict:
    return {
        "submitted": sum(r["check"]["submitted"] for r in rows),
        "ok": sum(r["check"]["ok"] for r in rows),
        "failed": sum(r["check"]["failed"] for r in rows),
    }


def _serve_stable(name, seed, rows, state) -> bool:
    """Whether the realisations reproduce earlier runs bit for bit."""
    digest = hashlib.blake2b("".join(r["digest"][0] for r in rows).encode(),
                             digest_size=16).hexdigest()
    iters = sum(r["digest"][1] for r in rows)
    return state.check(name, seed, len(rows), digest, iters)


def serve_measure(name: str, seed: int, seconds: float, quick: bool,
                  state) -> dict:
    num_runs = units_for(name, seconds, quick)
    cfg = serve_setup(seed, quick, num_runs)
    rows = _serve_runs(cfg, cfg["patterns"], seed)
    totals = _serve_totals(rows)
    stable = _serve_stable(name, seed, rows, state)
    reports = [r["report"] for r in rows]
    latencies = [lat * 1e3 for rep in reports for lat in rep.latencies]
    met = sum(rep.completed - rep.deadline_misses for rep in reports)
    return {
        "units": num_runs,
        "attempted": totals["submitted"],
        "failed": totals["failed"],
        "checksum_stable": stable,
        "latency_samples": len(latencies),
        "run_walls_s": [r["wall_s"] for r in rows],
        "reports": [rep.to_dict() for rep in reports],
        "metrics": {
            # A serve "step" is one dispatched batch.  Host times are
            # medians over realisations: one slow call does not move them.
            "step_s": statistics.median(
                r["wall_s"] / r["report"].batches for r in rows),
            "model_a100_step_ms": sum(r["a100_ms"] for r in rows)
                / sum(rep.batches for rep in reports),
            "host_ms_per_request": statistics.median(
                r["wall_s"] * 1e3 / r["report"].submitted for r in rows),
            "latency_p50_ms": percentile(latencies, 0.50),
            "latency_p99_ms": percentile(latencies, 0.99),
            "deadline_met_frac": met / totals["submitted"],
            "ok_frac": totals["ok"] / totals["submitted"],
        },
    }


def serve_trace(name: str, seed: int, seconds: float, quick: bool,
                state) -> dict:
    num_runs = math.ceil(units_for(name, seconds, quick) / 2)
    cfg = serve_setup(seed, quick, num_runs)
    _serve_runs(cfg, cfg["patterns"][:1], seed)  # untimed, as for Picard
    plain = _serve_runs(cfg, cfg["patterns"], seed)
    tracer = Tracer()
    with probes.install(tracer):
        rows = _serve_runs(cfg, cfg["patterns"], seed, tracer)
    wall = sum(r["wall_s"] for r in rows)
    totals = _serve_totals(rows)
    stable = _serve_stable(name, seed, plain, state)
    identical = [r["digest"] for r in rows] == [r["digest"] for r in plain]
    layers = layer_metrics(tracer, wall)
    exit_s = sum(r["exit_s"] for r in rows)
    layers["service.exit_s"] = exit_s
    layers["service.start_s"] = tracer.self_s["service.serve"] - exit_s
    reports = [r["report"] for r in rows]
    sizes = [s for rep in reports for s in rep.batch_sizes]
    layers.update({
        "service.batches": float(len(sizes)),
        "service.mean_batch_size": sum(sizes) / len(sizes) if sizes else 0.0,
        "service.admitted": float(sum(rep.admitted for rep in reports)),
        "service.degraded": float(sum(rep.degraded for rep in reports)),
        "service.shed": float(sum(rep.shed for rep in reports)),
    })
    for reason in FLUSH_REASONS:
        layers[f"service.flush.{reason}"] = float(
            sum(rep.flush_reasons.get(reason, 0) for rep in reports))
    layers["bench.trace_overhead_frac"] = (
        sum(r["wall_s"] for r in rows) / sum(r["wall_s"] for r in plain) - 1.0)
    return {
        "units": num_runs,
        "attempted": totals["submitted"],
        "failed": totals["failed"],
        "checksum_stable": stable,
        "traced_bit_identical": identical,
        "metrics": layers,
    }


FLUSH_REASONS = ("batch-full", "max-wait", "deadline-pressure")


# -- per-layer metrics from a trace -------------------------------------------

def layer_metrics(tracer: Tracer, wall: float) -> dict:
    """Self times, residuals and counters of one traced run.

    Every self-time metric is a share of ``wall``: the span self times add
    up to the outermost spans, and ``bench.other_s`` is what lies outside
    them, so the self-time metrics sum to ``bench.traced_wall_s``.
    """
    out = {metric: tracer.self_s.get(span, 0.0)
           for span, metric in probes.SELF_METRIC.items() if metric}
    out["service.exit_s"] = 0.0
    out["service.start_s"] = 0.0
    out["bench.other_s"] = wall - tracer.root_s
    out["bench.traced_wall_s"] = wall

    c = tracer.counters
    out["core.solve_s"] = tracer.incl_s.get("core.solve", 0.0)
    out["core.verify_incl_s"] = tracer.incl_s.get("core.verify", 0.0)
    for name in ("core.verify_events", "core.verify_rows",
                 "core.compaction_events", "core.linear_iters",
                 "core.trips", "core.restart_events"):
        out[name] = float(c.get(name, 0.0))
    rows = c.get("core.verify_rows", 0.0)
    out["core.verify_yield"] = c.get("core.verify_confirmed", 0.0) / rows if rows else 0.0
    spmv_gb = c.get("core.spmv_bytes", 0.0) / 1e9
    out["core.spmv_gb_computed"] = spmv_gb
    out["core.spmv_gbps"] = spmv_gb / out["core.spmv_s"] if out["core.spmv_s"] else 0.0
    iter_gb = c.get("core.iter_bytes", 0.0) / 1e9
    out["core.iter_gb_computed"] = iter_gb
    out["core.solve_gbps"] = iter_gb / out["core.solve_s"] if out["core.solve_s"] else 0.0
    out["gpu.bill_calls"] = float(tracer.calls.get("gpu.bill", 0))
    out["tune.select_calls"] = float(tracer.calls.get("tune.select", 0))
    for name in ("service.batches", "service.mean_batch_size",
                 "service.admitted", "service.degraded", "service.shed"):
        out[name] = 0.0
    for reason in FLUSH_REASONS:
        out[f"service.flush.{reason}"] = 0.0
    return out


MEASURE = {**{n: picard_measure for n in PICARD},
           **{n: serve_measure for n in SERVE}}
TRACE = {**{n: picard_trace for n in PICARD},
         **{n: serve_trace for n in SERVE}}


def setup_only(name: str, seed: int, seconds: float, quick: bool) -> None:
    """What ``setup_s`` times: import and construction, nothing measured."""
    if name in PICARD:
        picard_setup(name, seed, quick)
    else:
        serve_setup(seed, quick, units_for(name, seconds, quick))
