"""Self-test of the benchmark, in short mode.  Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that
1. every workload, untraced and traced, ends its output with a result object
   holding exactly the result keys and every metric BENCHMARK.json declares,
   with its unit, and that no request failed;
2. for every workload, two traced runs of one seed give identical
   per-request call counts;
3. a deliberately corrupted output (a perturbed ``witness_value_numeric``)
   is counted as a failed request in ``failed_frac``;
4. in a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.
It takes about a minute and exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile

import run

SHORT_SECONDS = "1"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class SelfTestFailure(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailure(message)


def bench(workload: str, seed: int, trace: int, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", SHORT_SECONDS,
                           "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(done: subprocess.CompletedProcess) -> dict:
    check(done.returncode == 0, f"benchmark exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_result(result: dict, declared: list[dict], label: str) -> None:
    check(set(result) == RESULT_KEYS, f"{label}: result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
          f"{label}: {result['failed']} of {result['attempted']} requests failed")
    expected = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == expected, f"{label}: metrics {sorted(set(got) ^ set(expected))} "
                           f"missing or extra, or units differ")
    for name, m in result["metrics"].items():
        check(isinstance(m["value"], (int, float)), f"{label}: {name} = {m['value']!r}")


def call_counts(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items() if k.endswith(".calls")}


def test_all_workloads(manifest: dict) -> dict:
    """Returns each workload's traced call counts for seed 1."""
    counts = {}
    for w in manifest["workloads"]:
        for trace, declared in ((0, manifest["end_to_end"]), (1, manifest["per_layer"])):
            label = f"{w['name']} trace={trace}"
            result = result_of(bench(w["name"], 1, trace))
            check_result(result, declared, label)
            print(f"ok  {label}: every declared metric present with its unit")
        counts[w["name"]] = call_counts(result)
    return counts


def test_calls_repeat(first_counts: dict) -> None:
    for workload, counts in first_counts.items():
        again = call_counts(result_of(bench(workload, 1, 1)))
        check(again == counts, f"{workload}: traced call counts differ between runs")
        print(f"ok  {workload}: call counts repeat exactly across two traced runs")


def _perturb_numeric_witness(text: str) -> str:
    from workloads import CSV_HEADER     # importable once run.import_program() ran
    lines = text.splitlines(keepends=True)
    cells = lines[1].split(",")
    column = CSV_HEADER.index("witness_value_numeric")
    cells[column] = repr(float(cells[column]) + 1e-6)
    lines[1] = ",".join(cells)
    return "".join(lines)


def test_corrupted_output_counts(workloads: dict) -> None:
    run.WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_DIR)
    try:
        metrics, details = run.run_untraced(workloads["sweep_alpha"], 3, 0.5, workdir,
                                            corrupt=_perturb_numeric_witness)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check(details["failed"] == 1, f"corrupted output counted {details['failed']} times")
    check(metrics["failed_frac"] == 1 / details["attempted"],
          f"failed_frac {metrics['failed_frac']} for 1 of {details['attempted']}")
    check(metrics["passed_frac"] < 1.0, "passed_frac ignores the corrupted output")
    print(f"ok  corrupted output counted: failed_frac = 1/{details['attempted']}")


def test_bare_directory_fails() -> None:
    run.WORK_DIR.mkdir(exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.WORK_DIR)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", f"{bare}/perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench("sweep_alpha", 1, 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(done.returncode != 0, "benchmark succeeded without the program's sources")
    check(not done.stdout.strip(), f"benchmark printed {done.stdout!r} without sources")
    print(f"ok  without sources: exit {done.returncode}, no result")


def main() -> int:
    manifest = run.load_manifest()
    workloads = run.import_program()
    try:
        test_calls_repeat(test_all_workloads(manifest))
        test_corrupted_output_counts(workloads)
        test_bare_directory_fails()
    except SelfTestFailure as exc:
        print(f"FAIL {exc}")
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
