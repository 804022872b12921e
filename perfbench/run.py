"""doew benchmark: one closed-loop client calling doew's public entry points.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep_alpha --seed 1 --seconds 20 --trace 0

The client sends its next request only when the previous one has returned
and its output has been checked.  The process is pinned to one core, and
every timing is calibrated against a reference kernel run on that core
between requests (see calibration.py).  With ``--trace 0`` the run reports the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it runs the same
workload untraced for half the time and traced for the other half, and
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is the result object; the lines before it are a readable
summary and the environment block.  A full record (environment, every
metric, failure messages) goes to ``.perfbench_out/``, and a traced run also
writes its spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

#: every matrix is 4x4 or 16x16, so extra BLAS threads only add scheduler noise
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SETUP_RUNS = 9
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import doew.cli; doew.cli.build_parser()")
WARMUP_S = 1.0
TAIL_BEYOND = 10
MAX_FAILURE_MESSAGES = 20


class BenchmarkError(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


def load_manifest() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchmarkError(f"cannot read BENCHMARK.json: {exc}") from exc


def parse_args(argv, manifest: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in manifest["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


# ------------------------------------------------------------------ environment

def _loadavg() -> list[float] | None:
    try:
        with open("/proc/loadavg") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "doew").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(args) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_start": _loadavg(),
    }


# ----------------------------------------------------------------------- set-up

def measure_setup() -> tuple[list[float], list[float]]:
    """Wall and calibrated times of fresh interpreters that import doew and
    build the CLI parser; they inherit the pinned core.

    One untimed run first compiles the bytecode, which a user pays once.
    """
    from calibration import Calibrator
    wall, calibrated = [], []
    calibrator = None
    for n in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            raise BenchmarkError(f"cold import failed: {done.stderr.strip()}")
        if calibrator is None:
            calibrator = Calibrator()
        else:
            wall.append(elapsed)
            calibrated.append(elapsed * calibrator.scale())
    return wall, calibrated


# ------------------------------------------------------------------ closed loop

class Phase:
    """Requests sent in one phase: wall latencies, calibration factors, checks."""

    def __init__(self):
        self.latencies: list[float] = []
        self.scales: list[float] = []
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, index: int, message: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_MESSAGES:
            self.failures.append(f"request {index}: {message}")

    @property
    def service_s(self) -> float:
        return sum(self.latencies)

    @property
    def calibrated(self) -> list[float]:
        return [t * f for t, f in zip(self.latencies, self.scales)]


def run_phase(workload, seed: int, first_index: int, seconds: float, workdir: str,
              tracer=None, corrupt=None) -> Phase:
    """Send requests until their summed service time reaches ``seconds``.

    Request generation, the reference kernel and the output check happen
    between requests, outside each request's timed span.  ``corrupt``, if
    given, rewrites the first output before it is checked (used by the
    self-test).
    """
    from calibration import Calibrator
    phase = Phase()
    calibrator = Calibrator()
    index = first_index
    while phase.service_s < seconds:
        request = workload.make(seed, index, workdir)
        start = time.perf_counter()
        try:
            if tracer is None:
                code, output = workload.execute(request)
            else:
                with tracer.request(index):
                    code, output = workload.execute(request)
        except Exception:   # any raise is a failed request; keep the loop going
            code, output = None, traceback.format_exc(limit=3)
        phase.latencies.append(time.perf_counter() - start)
        phase.scales.append(calibrator.scale())
        phase.attempted += 1
        if code != 0:
            phase.fail(index, f"exit {code}" if code is not None else output)
        else:
            if corrupt is not None and index == first_index:
                output = corrupt(output)
            try:
                problems = workload.check(request, output)
            except Exception:   # output too malformed to check is a failed check
                problems = [traceback.format_exc(limit=3)]
            if problems:
                phase.fail(index, "; ".join(problems[:3]))
            phase.items += workload.items_per_request
        index += 1
    return phase


def latency_summary(latencies: list[float]) -> dict:
    """Median and the highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    tail_pos = max(n - TAIL_BEYOND - 1, 0)
    return {"p50_ms": 1e3 * statistics.median(ordered),
            "tail_ms": 1e3 * ordered[tail_pos],
            "tail_percentile": 100.0 * (tail_pos + 1) / n,
            "tail_samples_beyond": n - tail_pos - 1,
            "samples": n}


def run_untraced(workload, seed: int, seconds: float, workdir: str,
                 corrupt=None) -> tuple[dict, dict]:
    warm = run_phase(workload, seed, 0, min(WARMUP_S, seconds), workdir)
    timed = run_phase(workload, seed, warm.attempted, seconds, workdir, corrupt=corrupt)
    attempted = warm.attempted + timed.attempted
    failed = warm.failed + timed.failed
    calibrated = timed.calibrated
    lat = latency_summary(calibrated)
    wall = latency_summary(timed.latencies)
    metrics = {
        "items_per_s": timed.items / sum(calibrated),
        "request_p50_ms": lat["p50_ms"],
        "request_tail_ms": lat["tail_ms"],
        "passed_frac": (attempted - failed) / attempted,
        "failed_frac": failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wall_items_per_s": timed.items / timed.service_s,
        "wall_request_p50_ms": wall["p50_ms"],
        "wall_request_tail_ms": wall["tail_ms"],
    }
    details = {"latency": lat, "timed_requests": timed.attempted,
               "timed_items": timed.items, "timed_service_s": timed.service_s,
               "warmup_requests": warm.attempted, "attempted": attempted, "failed": failed,
               "failures": warm.failures + timed.failures}
    return metrics, details


def run_traced(workload, args, workdir: str, spans_path: Path) -> tuple[dict, dict]:
    from tracing import Tracer
    half = args.seconds / 2
    metrics, details = run_untraced(workload, args.seed, half, workdir)
    untraced_rate = metrics["items_per_s"]
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_phase(workload, args.seed, details["attempted"], half, workdir,
                           tracer=tracer)
    finally:
        tracer.uninstall()
    traced_rate = traced.items / sum(traced.calibrated)
    first = details["attempted"]
    layers = tracer.layer_metrics({first + k: f for k, f in enumerate(traced.scales)})
    layers["trace.items_per_s"] = traced_rate
    layers["trace.untraced_items_per_s"] = untraced_rate
    layers["trace.overhead_pct"] = 100.0 * (untraced_rate - traced_rate) / untraced_rate
    tracer.dump(str(spans_path))
    details.update(traced_requests=traced.attempted, spans=len(tracer.spans),
                   spans_file=str(spans_path.relative_to(ROOT)))
    details["attempted"] += traced.attempted
    details["failed"] += traced.failed
    details["failures"] += traced.failures
    return layers, details


# ----------------------------------------------------------------------- report

def select(metrics: dict, declared: list[dict]) -> dict:
    """The metrics BENCHMARK.json declares, with its units; all must be present."""
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchmarkError(f"metrics declared but not computed: {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}


def print_summary(args, selected: dict, metrics: dict, details: dict) -> None:
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{details['attempted']} requests, {details['failed']} failed")
    for name, m in selected.items():
        print(f"  {name:52s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        lat = details["latency"]
        print(f"  request_tail_ms is p{lat['tail_percentile']:.1f} of {lat['samples']} "
              f"timed requests ({lat['tail_samples_beyond']} beyond it)")
        print(f"  failed_frac {metrics['failed_frac']:.6g} fraction "
              f"({details['failed']} of {details['attempted']})")
        print("  uncalibrated wall clock: " + ", ".join(
            f"{name} {metrics['wall_' + name]:.6g} {selected[name]['unit']}"
            for name in ("items_per_s", "request_p50_ms", "request_tail_ms", "setup_s")))
    for message in details["failures"]:
        print(f"  FAILED {message}")


def import_program() -> dict:
    """Import doew from this checkout's sources, single-threaded; return the workloads.

    The benchmark's own modules that import numpy (workloads, calibration,
    tracing) are imported only after this has set the BLAS environment.
    """
    if not (SRC / "doew" / "__init__.py").is_file():
        raise BenchmarkError(f"no doew sources under {SRC}")
    # numpy reads the BLAS thread count when it is first imported
    os.environ.update(BLAS_ENV)
    # calibration needs the reference kernel and the requests on the same core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import doew
    if Path(doew.__file__).resolve().parent != SRC / "doew":
        raise BenchmarkError(f"imported doew from {doew.__file__}, not from {SRC}")
    from workloads import WORKLOADS
    return WORKLOADS


def main(argv=None) -> int:
    manifest = load_manifest()
    args = parse_args(argv, manifest)
    workload = import_program()[args.workload]

    env = environment(args)
    OUT_DIR.mkdir(exist_ok=True)
    WORK_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix=f"{stem}-", dir=WORK_DIR)
    try:
        if args.trace:
            metrics, details = run_traced(workload, args, workdir,
                                          OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json.gz")
            declared = manifest["per_layer"]
        else:
            setup_wall, setup = measure_setup()
            metrics, details = run_untraced(workload, args.seed, args.seconds, workdir)
            metrics["setup_s"] = statistics.median(setup)
            metrics["wall_setup_s"] = statistics.median(setup_wall)
            details["setup_runs_s"] = setup
            declared = manifest["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = _loadavg()

    selected = select(metrics, declared)
    result = {"correct": details["failed"] == 0, "attempted": details["attempted"],
              "failed": details["failed"], "metrics": selected}
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump({"result": result, "all_metrics": metrics, "details": details,
                   "environment": env}, fh, indent=1)
    print_summary(args, selected, metrics, details)
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
