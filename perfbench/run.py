"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload picard-ell-b256 --seed 1 \\
        --seconds 25 --trace 0

Run from the root of a checkout.  The package is imported from ``src/``
of that checkout.  ``--trace 0`` measures the end-to-end metrics with no
instrumentation; ``--trace 1`` does half the work untraced and the same
half traced (after one untimed warm-up unit) and reports the per-layer
split.  Metric names and units come from ``BENCHMARK.json``;
``perfbench/layers.json`` says which end-to-end metric each layer metric
should move and on which workload.
``--quick`` shrinks every workload to a smoke test of the same code.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
#: BLAS threads of every process the benchmark runs (at most ``nproc``);
#: one keeps the shared-machine measurements steady.
BLAS_THREADS = 1
SETUP_REPEATS = 3
#: Whole-run budget; a run that is still going then is reported as hung.
WATCHDOG_S = 170

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def use_source() -> None:
    """Import the package from this checkout's ``src/``, or stop."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"perfbench: repro was imported from {repro.__file__}")


class ChecksumStore:
    """Final-state checksums and iteration counts per code and input.

    ``code_id`` names the package and benchmark sources.  A later run of
    the same code and inputs that reproduces neither is a failed run: the
    simulation must be bit-reproducible for a seed.
    """

    def __init__(self, path: Path, code_id: str, quick: bool) -> None:
        self.path = path
        self.prefix = f"{code_id}/{'quick' if quick else 'full'}"

    def check(self, workload: str, seed: int, steps: int, digest: str,
              linear_iters: int) -> bool:
        try:
            known = json.loads(self.path.read_text())
        except (OSError, ValueError):
            known = {}
        key = f"{self.prefix}/{workload}/{seed}/{steps}"
        record = [digest, linear_iters]
        if key in known:
            return known[key] == record
        known[key] = record
        self.path.parent.mkdir(exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        tmp.replace(self.path)
        return True


def setup_seconds(args) -> list[float]:
    """``setup_s`` samples, each from a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + (["--quick"] if args.quick else [])
    samples = []
    for _ in range(1 if args.quick else SETUP_REPEATS):
        out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                             timeout=120)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def metric_entries(section: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[section]


def run(args) -> dict:
    use_source()
    import machine
    import workloads

    copy_start = machine.copy_bandwidth(HERE / "run.py", args.quick)
    setups = setup_seconds(args)
    env = machine.env_block(ROOT, SRC, HERE, BLAS_THREADS)
    store = ChecksumStore(STATE / "checksums.json",
                          f"{env['source_hash']}/{env['bench_hash']}",
                          args.quick)
    table = workloads.TRACE if args.trace else workloads.MEASURE
    result = table[args.workload](args.workload, args.seed, args.seconds,
                                  args.quick, store)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    copy_end = machine.copy_bandwidth(HERE / "run.py", args.quick)

    values = result.pop("metrics")
    copy_gbps = (copy_start["copy_gbps"] + copy_end["copy_gbps"]) / 2
    if args.trace:
        values["host.copy_gbps"] = copy_gbps
        values["core.spmv_bw_frac"] = values["core.spmv_gbps"] / copy_gbps
        entries = metric_entries("per_layer")
    else:
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = peak_rss_mb
        entries = metric_entries("end_to_end")
    missing = [e["name"] for e in entries if e["name"] not in values]
    if missing:
        raise SystemExit(f"perfbench: metrics not produced: {missing}")
    env.update({
        "copy_gbps_start": copy_start["copy_gbps"],
        "copy_gbps_end": copy_end["copy_gbps"],
        "copy_array_mib": copy_start["copy_array_mib"],
        "llc_mib": env["llc_bytes"] / machine.MIB,
    })
    correct = (result["failed"] == 0
               and result.get("checksum_stable", True)
               and result.get("traced_bit_identical", True))
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "quick": args.quick, "env": env, "setup_samples_s": setups,
              "peak_rss_mb": peak_rss_mb, **result, "all_values": values}
    STATE.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (STATE / name).write_text(json.dumps(detail, indent=1, default=str))
    print(json.dumps({"env": env}))
    return {
        "correct": bool(correct),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {e["name"]: {"value": float(values[e["name"]]),
                                "unit": e["unit"]} for e in entries},
    }


def _watchdog(signum, frame):
    raise TimeoutError(f"run did not finish within {WATCHDOG_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs: a smoke test of every code path")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--calibrate-copy", type=int, metavar="BYTES",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.calibrate_copy:
        import machine
        print(json.dumps(machine.measure_copy(args.calibrate_copy)))
        return 0
    if args.setup_probe:
        t0 = time.perf_counter()
        use_source()
        import workloads
        workloads.setup_only(args.workload, args.seed, args.seconds, args.quick)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0

    known = [w["name"] for w in metric_entries("workloads")]
    if args.workload not in known:
        parser.error(f"--workload must be one of {', '.join(known)}")
    signal.signal(signal.SIGALRM, _watchdog)
    signal.alarm(WATCHDOG_S)
    try:
        print(json.dumps(run(args)))
    finally:
        signal.alarm(0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
