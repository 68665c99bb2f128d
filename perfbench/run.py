"""Repository benchmark: host time of the simulator, per workload.

Run from the repository root::

    python3 perfbench/run.py --workload {sim_core,sim_stress,paper_suite}
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced round and reports the per-layer metrics and the
tracing overhead.  Every metric prints on its own line with its unit;
the last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when an output check
failed and 2 when the benchmark could not run (for example outside a
checkout of the repository).

The measuring happens in fresh child processes (``child.py``), one per
setup probe and per round, run one after another: all load is closed
loop.  End-to-end times are scaled to a reference host speed measured
next to every timed span (``yardstick.py``).  See ``README.md`` for
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from yardstick import yardstick_s

HERE = Path(__file__).resolve().parent

WORKLOADS = ("sim_core", "sim_stress", "paper_suite")

#: Variables that would change what is measured: engine choice, audits,
#: worker count, cache location, and the old bench request override.
#: Removed from this process and so from every child and pool worker.
SCRUBBED_ENV = (
    "REPRO_ENGINE", "REPRO_AUDIT", "REPRO_JOBS", "REPRO_CACHE_DIR",
    "REPRO_BENCH_REQUESTS",
)

#: Least number of setup probes per run (after one untimed probe that warms the
#: bytecode cache); setup_s is their median.
SETUP_PROBES = 9

#: Cold passes per paper_suite round, each into its own empty cache
#: (one pass takes about 17 s on a 2-vCPU x86 VM): a single pass's
#: time varied by about 5% between runs of one seed.
COLD_PASSES = 2

#: Warm replays per paper_suite round, each in a fresh process (one
#: replay takes about 2 s).
WARM_REPLAYS = 4

#: Whole-run ceiling; the contract allows 180 s.
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("requests_per_s", "req/s"),
    ("cold_s", "s"),
    ("warm_replay_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Modules whose self time the traced run reports, one level below the
#: ``repro`` package; ``other`` takes every frame no listed module owns
#: or called.
LAYER_MODULES = (
    "sim.engine", "sim.stats", "net.router", "net.link", "net.buffers",
    "net.pool", "net.packet", "memory.controller", "memory.bank",
    "host.port", "host.directory", "workloads.synthetic", "results",
    "arbitration", "obs.attribution", "ras.injector", "system",
    "sim._native", "other",
)

EXPERIMENT_IDS = (
    "table01", "table02", "fig03", "fig04", "fig05", "fig07", "fig08",
    "fig09", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
    "ablation_arbiters", "ablation_interleave", "ablation_overload",
    "ablation_p2p", "ablation_ras", "ablation_serdes", "ablation_ratio",
    "ablation_window", "ablation_buffers", "analysis_parking_lot",
    "fleet_scale",
)

PER_LAYER = (
    tuple((f"{module}.self_s", "s") for module in LAYER_MODULES)
    + (
        ("sim.engine.events", "count"),
        ("sim.engine.ns_per_event", "ns"),
        ("net.pool.recycle_ratio", "ratio"),
        ("system.build_s", "s"),
        ("sim.engine.heap.events_per_s", "ev/s"),
        ("sim.engine.wheel.events_per_s", "ev/s"),
        ("sim.engine.native.events_per_s", "ev/s"),
    )
    + tuple(
        metric
        for experiment_id in EXPERIMENT_IDS
        for metric in (
            (f"experiments.{experiment_id}.cold_s", "s"),
            (f"experiments.{experiment_id}.simulations", "count"),
        )
    )
    + (
        ("runner.run_s", "s"),
        ("runner.lookups", "count"),
        ("runner.simulations", "count"),
        ("runner.dedup_ratio", "ratio"),
        ("cache.get_s", "s"),
        ("cache.put_s", "s"),
        ("cache.memory_hits", "count"),
        ("cache.disk_hits", "count"),
        ("cache.misses", "count"),
        ("cache.stores", "count"),
        ("job.digest_s", "s"),
        ("job.digest_calls", "count"),
        ("fleet.fold_s", "s"),
        ("experiments.harness_s", "s"),
        ("runner.jobs1_cold_s", "s"),
        ("trace_overhead", "ratio"),
        ("host.yardstick_s", "s"),
    )
)


class BenchError(Exception):
    """The benchmark could not run at all (exit code 2)."""


class Children:
    """Runs child.py processes one at a time under the run's deadline."""

    def __init__(self, args, root: Path, workdir: Path, deadline: float) -> None:
        self.args = args
        self.workdir = workdir
        self.deadline = deadline
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        # Nothing may resolve a default cache under the home directory.
        env["XDG_CACHE_HOME"] = str(workdir / "xdg-cache")
        self.env = env
        #: Every yardstick time the children measured.
        self.yardsticks: list = []

    def run(self, mode: str, *extra: str) -> dict:
        command = [
            sys.executable, str(HERE / "child.py"), mode,
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--workdir", str(self.workdir),
            "--scale", self.args.scale,
            *extra,
        ]
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            raise BenchError(f"no time left for a {mode} process")
        # Its own session, so that on a timeout (or an interrupt) the
        # child and the pool workers it started are killed together.
        with subprocess.Popen(
            command, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        ) as process:
            try:
                stdout, stderr = process.communicate(timeout=remaining)
            except BaseException as exc:
                os.killpg(process.pid, signal.SIGKILL)
                process.communicate()
                if isinstance(exc, subprocess.TimeoutExpired):
                    raise BenchError(f"{mode} process exceeded the run deadline") from None
                raise
        if process.returncode != 0 or not stdout.strip():
            raise BenchError(
                f"{mode} process exited with {process.returncode}:\n{stderr[-4000:]}"
            )
        out = json.loads(stdout.strip().splitlines()[-1])
        self.yardsticks += out.pop("yardstick_s")
        return out

    def scratch_dir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix, dir=self.workdir)


def inject_flag(args) -> tuple:
    return ("--inject-mismatch",) if args.inject_mismatch else ()


def sim_round(args, children: Children, pause=None) -> dict:
    if pause is not None:
        pause()
    return children.run("round", *inject_flag(args))


def median_time(passes) -> float:
    """Sum over experiments of each one's median scaled time over the
    passes, so a burst of host noise in one pass moves only what it hit."""
    return sum(
        statistics.median(p["rows"][experiment_id]["scaled_s"] for p in passes)
        for experiment_id in passes[0]["rows"]
    )


def suite_round(args, children: Children, pause=None, traced: bool = False,
                colds: int = COLD_PASSES, replays: int = WARM_REPLAYS) -> dict:
    """Cold passes, each into a fresh disk cache, then warm replays from
    the first one's.

    Each pass runs in its own process; a warm replay so runs as a user's
    second command would, with nothing of the cold pass resident in it.
    ``pause`` runs between processes (setup probes), spreading samples
    over the run.
    """
    cache_dirs = [children.scratch_dir("suite-") for _ in range(colds)]
    traced_flag = ("--traced",) if traced else ()
    try:
        cold_passes = []
        for cache_dir in cache_dirs:
            if cold_passes and pause is not None:
                pause()
            cold_passes.append(children.run("pass", "--cache-dir", cache_dir, *traced_flag))
        warms = []
        for _ in range(replays):
            if pause is not None:
                pause()
            warms.append(children.run(
                "pass", "--cache-dir", cache_dirs[0], *traced_flag, *inject_flag(args)
            ))
    finally:
        for cache_dir in cache_dirs:
            shutil.rmtree(cache_dir, ignore_errors=True)
    cold = cold_passes[0]
    failures = [failure for run in cold_passes for failure in run["failures"]]
    for other in cold_passes[1:]:
        if other["result_digest"] != cold["result_digest"]:
            failures.append("cold passes of one seed disagree on the result digest")
    for warm in warms:
        failures += warm["failures"]
        for experiment_id, row in warm["rows"].items():
            if row["simulations"]:
                failures.append(f"{experiment_id}: warm replay ran {row['simulations']} simulations")
            elif warm["outputs"].get(experiment_id) != cold["outputs"].get(experiment_id):
                failures.append(f"{experiment_id}: warm replay output differs from the cold pass")
    warm = warms[0]
    layers = {
        name: cold["layers"].get(name, 0) + warm["layers"].get(name, 0)
        for name in set(cold["layers"]) | set(warm["layers"])
    }
    if traced:
        # The runner layer is the cold pass's: that is the time it moves.
        for name in ("runner.run_s", "runner.lookups", "runner.simulations"):
            layers[name] = cold["layers"][name]
        layers["experiments.harness_s"] = cold["pass_s"] - cold["layers"]["runner.run_s"]
    for experiment_id, row in cold["rows"].items():
        layers[f"experiments.{experiment_id}.cold_s"] = row["s"]
        layers[f"experiments.{experiment_id}.simulations"] = row["simulations"]
    cold_s = median_time(cold_passes)
    return {
        "cold_s": cold_s,
        "warm_replay_s": median_time(warms),
        "requests_per_s": cold["simulated_requests"] / cold_s,
        "peak_rss_mb": max(run["peak_rss_mb"] for run in cold_passes + warms),
        "wall_s": cold["pass_s"] + warm["pass_s"],
        "layers": layers,
        "rows": cold["rows"],
        "result_digest": cold["result_digest"],
        "attempted": sum(run["attempted"] for run in cold_passes + warms),
        "failures": failures,
        "env": cold["env"],
    }


def measure(args, children: Children):
    """Untraced run: rounds for ``--seconds``, with setup probes
    interleaved so that both sample the whole run."""
    one_round = suite_round if args.workload == "paper_suite" else sim_round
    children.run("setup")  # untimed: fills the bytecode cache
    setups = []

    def probe() -> None:
        setups.append(children.run("setup")["setup_s"])

    rounds = []
    start = time.monotonic()
    # Start another round only if it is expected to end within the
    # measuring time, so that a long round (paper_suite) is not doubled.
    while not rounds or (time.monotonic() - start) * (len(rounds) + 1) / len(rounds) <= args.seconds:
        rounds.append(one_round(args, children, pause=probe))
        r = rounds[-1]
        print(
            f"round {len(rounds)}: cold_s={r['cold_s']:.4f} "
            f"warm_replay_s={r['warm_replay_s']:.4f} "
            f"requests_per_s={r['requests_per_s']:.1f} "
            f"peak_rss_mb={r['peak_rss_mb']:.1f} failures={len(r['failures'])}"
        )
    while len(setups) < SETUP_PROBES:
        probe()
    metrics = {"setup_s": statistics.median(setups)}
    for name, _unit in END_TO_END[1:]:
        metrics[name] = statistics.median(r[name] for r in rounds)
    if "cell_times" in rounds[0]:
        metrics.update(cell_medians(rounds))
    return metrics, rounds


def cell_medians(rounds) -> dict:
    """Sim workloads: time each cell by its median over the rounds, so
    a burst of host noise in one round moves only the cells it hit."""
    requests = rounds[0]["cell_requests"]
    build_s = run_s = 0.0
    for cell in requests:
        times = [r["cell_times"][cell] for r in rounds if cell in r["cell_times"]]
        if times:
            build_s += statistics.median(t[0] for t in times)
            run_s += statistics.median(t[1] for t in times)
    return {"requests_per_s": sum(requests.values()) / run_s, "cold_s": build_s + run_s}


def trace(args, children: Children):
    """Traced run: one untraced round, one traced round (and, on
    paper_suite, the cold pass again at jobs=1)."""
    if args.workload == "paper_suite":
        plain = suite_round(args, children, colds=1, replays=1)
        traced = suite_round(args, children, traced=True, colds=1, replays=1)
        serial_dir = children.scratch_dir("serial-")
        try:
            serial = children.run("pass", "--cache-dir", serial_dir, "--jobs", "1")
        finally:
            shutil.rmtree(serial_dir, ignore_errors=True)
        runs = [plain, traced, serial]
        # Layer timings from the traced round, counts from the plain one.
        layers = {**traced["layers"], **plain["layers"]}
        layers["runner.jobs1_cold_s"] = serial["pass_s"]
        timing = serial["layers"]  # every simulation ran in that process
        for name in ("system.build_s", "net.pool.recycle_ratio"):
            layers[name] = timing[name]
    else:
        plain = sim_round(args, children)
        traced = children.run("trace")
        runs = [plain, traced]
        layers = dict(plain["layers"])
        layers.update(traced["layers"])
        timing = plain["layers"]
    if timing.get("sim.engine.events"):
        layers["sim.engine.ns_per_event"] = timing["run_s"] / timing["sim.engine.events"] * 1e9
    if layers.get("runner.lookups"):
        layers["runner.dedup_ratio"] = layers["runner.simulations"] / layers["runner.lookups"]
    layers["trace_overhead"] = traced["wall_s"] / plain["wall_s"]
    layers["host.yardstick_s"] = statistics.median(children.yardsticks)
    if plain.get("rows"):
        print("per-experiment cold pass (deltas around each call):")
        for experiment_id, row in plain["rows"].items():
            print(
                f"  {experiment_id:<22} {row['s']:8.3f} s  {row['simulations']:4d} sims  "
                f"cache +{row['memory_hits']} mem +{row['disk_hits']} disk "
                f"+{row['misses']} miss +{row['stores']} stored"
            )
    metrics = {name: float(layers.get(name, 0.0)) for name, _unit in PER_LAYER}
    return metrics, runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the self-test")
    parser.add_argument("--inject-mismatch", action="store_true",
                        help="corrupt one warm-replay output (self-test of the check)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    deadline = time.monotonic() + DEADLINE_S
    workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    children = Children(args, root, workdir, deadline)
    try:
        metrics, runs = (trace if args.trace else measure)(args, children)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    failures = [failure for run in runs for failure in run["failures"]]
    digests = {run["result_digest"] for run in runs if "result_digest" in run}
    attempted = sum(run["attempted"] for run in runs)
    if len(digests) > 1:
        failures.append(f"processes of one seed disagree on the result digest: {sorted(digests)}")
    failed = min(len(failures), attempted)

    print("env: " + json.dumps({
        **runs[0]["env"],
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "seed": args.seed,
        # Host speed over the run: quartiles of the yardstick's times.
        "yardstick_s": [round(q, 6) for q in statistics.quantiles(children.yardsticks, n=4)],
        "scale": args.scale,
    }, sort_keys=True))
    for digest in sorted(digests):
        print(f"result_digest: {digest}")
    for failure in failures:
        print(f"FAILED: {failure}")
    units = dict(PER_LAYER if args.trace else END_TO_END)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_frac = {failed / attempted if attempted else 1.0:.6g} ratio "
          f"({failed} of {attempted} operations)")
    correct = not failures and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
