"""Self-test of the benchmark, at tiny scale.

Run from the repository root::

    python3 perfbench/selftest.py

It runs every workload once untraced and once traced with small inputs
and checks that every metric prints with its unit, that ``failed_frac``
is 0, that a corrupted warm replay counts as a failure, that
``BENCHMARK.json`` names the metrics ``run.py`` reports, that ``run.py``
names every registered experiment, and that the benchmark refuses to
run outside a checkout.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

ROOT = Path.cwd()


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(run.HERE / "run.py"), "--seed", "3",
               "--seconds", "1", "--scale", "tiny", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def expect(condition: bool, message: str, done: subprocess.CompletedProcess) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}\n{done.stdout}\n{done.stderr}")


def check_run(workload: str, trace: int) -> None:
    done = bench("--workload", workload, "--trace", str(trace))
    expect(done.returncode == 0, f"{workload} trace={trace} exited {done.returncode}", done)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           "result keys", done)
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{workload}: failed operations", done)
    wanted = run.PER_LAYER if trace else run.END_TO_END
    expect(list(result["metrics"]) == [name for name, _ in wanted],
           f"{workload}: metric names", done)
    for name, unit in wanted:
        expect(result["metrics"][name]["unit"] == unit, f"{name}: unit", done)
        expect(any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines), f"{name}: not printed with its unit", done)
    if not trace:
        for name, _unit in run.END_TO_END:
            expect(result["metrics"][name]["value"] > 0, f"{name} is not positive", done)
    else:
        expect(result["metrics"]["trace_overhead"]["value"] > 0, "trace_overhead", done)
    expect(any(line.startswith("failed_frac = 0 ratio") for line in lines),
           f"{workload}: failed_frac is not 0", done)
    print(f"ok  {workload} trace={trace}")


def check_injected_mismatch() -> None:
    for workload in ("paper_suite", "sim_core"):
        done = bench("--workload", workload, "--trace", "0", "--inject-mismatch")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        expect(done.returncode == 1 and not result["correct"] and result["failed"] >= 1,
               f"{workload}: injected warm/cold mismatch was not counted", done)
    print("ok  injected warm/cold mismatch counts as a failure")


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pairs = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    if pairs != list(run.END_TO_END):
        raise SystemExit(f"selftest FAILED: BENCHMARK.json end_to_end {pairs}")
    pairs = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if pairs != list(run.PER_LAYER):
        raise SystemExit("selftest FAILED: BENCHMARK.json per_layer differs from run.py")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        raise SystemExit("selftest FAILED: BENCHMARK.json workloads differ from run.py")
    print("ok  BENCHMARK.json matches run.py")


def check_experiment_ids() -> None:
    """paper_suite runs the live registry but reports only the ids
    ``run.py`` lists; the two must not drift apart."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.experiments.registry import experiment_ids

    if list(run.EXPERIMENT_IDS) != list(experiment_ids()):
        raise SystemExit(
            f"selftest FAILED: run.EXPERIMENT_IDS differs from the registry: "
            f"{list(experiment_ids())}"
        )
    print("ok  run.py names every registered experiment")


def check_outside_checkout() -> None:
    scratch = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", scratch)
        shutil.copytree(run.HERE, scratch / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench("--workload", "sim_core", "--trace", "0", cwd=scratch)
        expect(done.returncode != 0 and not done.stdout.strip(),
               "ran without the repository sources", done)
    finally:
        shutil.rmtree(scratch)
    print("ok  refuses to run without the repository sources")


def main() -> int:
    check_benchmark_json()
    check_experiment_ids()
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace)
    check_injected_mismatch()
    check_outside_checkout()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
