"""The repository's end-to-end benchmark.

    python3 perfbench/run.py --workload fig5-cold --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  Each run repeats *cycles* --
one fresh ``worker.py`` process each: set up, run the timed region,
check every answered point against ``digests.json`` -- until the timed
regions add up to ``--seconds``, then prints every metric by name and
unit and, as the last line of standard output, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``
(times in CPU seconds on a nominal host, see ``end_to_end``);
``--trace 1`` alternates untraced and traced cycles and reports the
per-layer metrics instead.  The full record (host fingerprint, removed
``REPRO_*`` variables, every extra metric) goes to
``perfbench/results/``.  See ``perfbench/README.md`` for what each
metric means and which layer moves it.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (HERE, REF_NOMINAL_S, WORKLOADS,  # noqa: E402
                    host_speed_samples, scrubbed_env)

#: A run never starts a cycle that could end past this many seconds.
RUN_BUDGET_S = 150.0
CYCLE_TIMEOUT_S = 170.0
#: Set-up samples per untraced run (each a fresh process).
MIN_SETUPS = 5
#: replay-warm splits ``--seconds`` over this many pre-filled caches.
REPLAY_CYCLES = 3
#: serve-storm replays for this long after each cold pass.
SERVE_REPLAY_S = 1.5

SELF_LAYERS = {"emulib.build_s": "emulib.build", "cpu.sim_s": "cpu.sim",
               "exp.lookup_s": "exp.lookup", "exp.store_s": "exp.store",
               "serve.client_s": "serve.client"}


class Cycles:
    """Spawns worker processes for one run and keeps what they report."""

    def __init__(self, root: Path, args, env: dict) -> None:
        self.root = root
        self.args = args
        self.env = env
        self.tmp = root / ".perfbench-tmp" / str(os.getpid())
        self.mode = WORKLOADS[args.workload]["mode"]
        self.outs: list[dict] = []
        self.broken: list[str] = []
        self.count = 0

    def spawn(self, *, traced: bool, setup_only: bool = False) -> dict | None:
        index = self.count
        self.count += 1
        cycle_dir = self.tmp / f"cycle{index}"
        cycle_dir.mkdir(parents=True)
        spec = {"workload": self.args.workload, "seed": self.args.seed,
                "cycle": index, "trace": traced, "setup_only": setup_only,
                "dir": str(cycle_dir), "out": str(cycle_dir / "out.json"),
                "src": str(self.root / "src"),
                "replay_seconds": (self.args.seconds / REPLAY_CYCLES
                                   if self.mode == "replay"
                                   else SERVE_REPLAY_S)}
        # The host's speed, read here (a small, steady heap) right before
        # and right after the cycle; see ``scale``.
        ref_s = host_speed_samples()
        spec["spawned"] = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=CYCLE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            err = f"cycle {index} timed out after {CYCLE_TIMEOUT_S} s"
        finally:
            try:    # the worker's group holds its server and shard workers
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        out_file = cycle_dir / "out.json"
        if proc.returncode != 0 or not out_file.is_file():
            self.broken.append(f"cycle {index}: exit {proc.returncode}: "
                               + (err or "").strip()[-2000:])
            return None
        out = json.loads(out_file.read_text())
        out["ref_s"] = ref_s + host_speed_samples()
        out["traced"] = traced
        out["setup_only"] = setup_only
        shutil.rmtree(cycle_dir)
        self.outs.append(out)
        return out

    def run(self) -> None:
        seconds, trace = self.args.seconds, bool(self.args.trace)
        min_cycles = 2 if trace else (REPLAY_CYCLES if self.mode == "replay"
                                      else 1)
        started = time.monotonic()
        timed, longest = 0.0, 0.0
        while True:
            begun = time.monotonic()
            out = self.spawn(traced=trace and self.count % 2 == 1)
            longest = max(longest, time.monotonic() - begun)
            if out is None:
                return
            timed += out["timed_s"]
            # A replay-warm cycle replays for its share of the seconds.
            done = self.count >= min_cycles and (
                self.mode == "replay" or timed >= seconds)
            if done or time.monotonic() - started + longest > RUN_BUDGET_S:
                break
        while not trace and len(self.setups()) < MIN_SETUPS:
            if self.spawn(traced=False, setup_only=True) is None:
                return

    def setups(self) -> list[float]:
        """Set-up CPU seconds of the untraced cycles, on the nominal host."""
        return [o["setup_s"] * scale(o) for o in self.outs
                if not o["traced"]]

    def cycles(self, traced: bool) -> list[dict]:
        return [o for o in self.outs
                if o["traced"] == traced and not o["setup_only"]]


def percentile(samples: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive interpolation)."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def latency(prefix: str, samples: list[float]) -> dict:
    """Median and p95 of per-point latencies, with the sample count; p95
    only when at least ten samples lie beyond it."""
    out = {f"{prefix}_samples": (len(samples), "count")}
    if samples:
        out[f"{prefix}_p50_s"] = (percentile(samples, 50), "s")
    if len(samples) * 0.05 >= 10:
        out[f"{prefix}_p95_s"] = (percentile(samples, 95), "s")
    return out


# --- end-to-end metrics ------------------------------------------------------

def scale(cycle: dict) -> float:
    """Factor from one cycle's CPU seconds to seconds on the nominal host:
    nominal over measured yardstick time, from the readings taken right
    before and right after the cycle."""
    return REF_NOMINAL_S / statistics.median(cycle["ref_s"])


def end_to_end(mode: str, cycles: list[dict],
               setups: list[float]) -> tuple[dict, dict]:
    """The ``BENCHMARK.json`` end-to-end metrics (name -> (value, unit)),
    and the raw CPU, wall-clock and latency figures printed beside them.

    The gated times are CPU seconds of the processes doing the work (see
    ``worker.py``) scaled to the nominal host.  On a shared host, wall
    clock also measures how long the neighbours kept the CPU, and the
    host's own speed drifts by up to twice over an hour; neither is
    anything a change to this program moves.
    """
    med = statistics.median
    metrics = {"setup_s": (med(setups), "s")}
    extra = {}
    if mode == "cold":
        metrics.update(
            norm_cpu_s=(med(c["cpu_s"] * scale(c) for c in cycles), "s"),
            norm_points_per_s=(med(c["points"] / (c["cpu_s"] * scale(c))
                                   for c in cycles), "1/s"),
            norm_kips=(med(c["instructions"] / (c["cpu_s"] * scale(c)) / 1e3
                           for c in cycles), "kips"))
        extra.update(cpu_s=(med(c["cpu_s"] for c in cycles), "s"),
                     wall_s=(med(c["wall_s"] for c in cycles), "s"))
    elif mode == "replay":
        latencies = [x for c in cycles for x in c["latencies"]]
        metrics.update(
            norm_cpu_s=(med(x * scale(c) for c in cycles
                            for x in c["pass_cpus"]), "s"),
            norm_points_per_s=(med(c["points"] / (x * scale(c))
                                   for c in cycles for x in c["pass_cpus"]),
                               "1/s"),
            # The only simulation here is the pre-fill sweep (set-up).
            norm_kips=(med(c["prefill_instructions"]
                           / (c["prefill_cpu_s"] * scale(c)) / 1e3
                           for c in cycles), "kips"))
        extra.update(
            cpu_s=(med(x for c in cycles for x in c["pass_cpus"]), "s"),
            wall_s=(med(w for c in cycles for w in c["pass_walls"]), "s"))
        extra.update(latency("replay_latency", latencies))
    else:
        latencies = [x for c in cycles for x in c["cold_latencies"]]
        replays = [x for c in cycles for x in c.get("replay_latencies", ())]
        metrics.update(
            norm_cpu_s=(med(c["cold_cpu_s"] * scale(c) for c in cycles), "s"),
            norm_points_per_s=(med(c["replay_points"]
                                   / (c["replay_cpu_s"] * scale(c))
                                   for c in cycles if "replay_cpu_s" in c)
                               if replays else 0.0, "1/s"),
            norm_kips=(med(c["cold_instructions"]
                           / (c["cold_cpu_s"] * scale(c)) / 1e3
                           for c in cycles), "kips"))
        extra.update(cpu_s=(med(c["cold_cpu_s"] for c in cycles), "s"),
                     wall_s=(med(c["cold_wall_s"] for c in cycles), "s"))
        extra.update(latency("cold_latency", latencies))
        if replays:
            extra.update(latency("replay_latency", replays))
    metrics["peak_rss_mb"] = (med(c["rss_mb"] for c in cycles), "MB")
    extra.update(
        setup_cpu_s=(med(c["setup_s"] for c in cycles), "s"),
        setup_wall_s=(med(c["setup_wall_s"] for c in cycles), "s"),
        yardstick_s=(med(x for c in cycles for x in c["ref_s"]), "s"))
    return metrics, extra


# --- per-layer metrics -------------------------------------------------------

def layer_metrics(cycle: dict) -> dict:
    """Per-layer metrics of one traced cycle (name -> value)."""
    layers = cycle["layers"]
    self_s, counts, work = layers["self_s"], layers["counts"], layers["work"]
    phases = layers["phases"]
    out = {name: self_s.get(layer, 0.0) for name, layer in SELF_LAYERS.items()}
    out["other_s"] = layers["wall_s"] - sum(out.values())
    out["traced_wall_s"] = layers["wall_s"]
    build_s = out["emulib.build_s"]
    sim_host = sum(phases.values())
    groups = work.get("groups", 0)
    lookups = counts.get("exp.lookup", 0)
    out.update({
        "emulib.builds": layers["builds"],
        "emulib.instr_built": layers["instr_built"],
        "emulib.build_kips": (layers["instr_built"] / build_s / 1e3
                              if build_s else 0.0),
        "cpu.decode_s": phases.get("decode", 0.0),
        "cpu.step_s": phases.get("step", 0.0),
        "cpu.writeback_s": phases.get("writeback", 0.0),
        "cpu.groups": groups,
        "cpu.lanes_per_group": work.get("points", 0) / groups if groups else 0,
        "cpu.unbatched_points": work.get("unbatched", 0),
        "cpu.host_ns_per_sim_instr": (sim_host / work["instructions"] * 1e9
                                      if work.get("instructions") else 0.0),
        "exp.lookups": lookups,
        "exp.hit_ratio": (counts.get("exp.lookup.hit", 0) / lookups
                          if lookups else 0.0),
        "exp.stores": counts.get("exp.store", 0),
    })
    for key, value in (cycle.get("memsys") or {}).items():
        out[f"memsys.{key}"] = value
    stats = cycle.get("stats", {})
    for key in ("simulated", "dedup_hits", "cache_hits", "errors",
                "worker_respawns"):
        out[f"serve.{key}"] = stats.get(key, 0)
    out["serve.accept_s"] = (statistics.median(cycle["accept_s"])
                             if cycle.get("accept_s") else 0.0)
    out["serve.first_result_s"] = (statistics.median(cycle["first_result_s"])
                                   if cycle.get("first_result_s") else 0.0)
    out["serve.replay_us_per_point"] = (
        cycle["replay_wall_s"] / cycle["replay_points"] * 1e6
        if cycle.get("replay_points") else 0.0)
    return out


def per_layer(spec: list[dict], traced: list[dict],
              untraced: list[dict]) -> tuple[dict, list[str]]:
    """Mean per traced cycle of every per-layer metric, plus the checks."""
    problems = []
    rows = [layer_metrics(c) for c in traced]
    for row in rows:
        if row["other_s"] < -1e-6:
            problems.append(f"layer self times exceed the traced wall "
                            f"by {-row['other_s']:.6f} s")
    values = {}
    for name in rows[0]:
        values[name] = statistics.fmean(row[name] for row in rows)

    def per_point(cycles):
        return statistics.median(c["timed_s"] / c["answered"] for c in cycles)

    values["trace_overhead_frac"] = (per_point(traced) / per_point(untraced)
                                     - 1.0)
    units = {m["name"]: m["unit"] for m in spec}
    missing = set(units) - set(values)
    if missing:
        problems.append(f"per-layer metrics not measured: {sorted(missing)}")
    return {name: (values.get(name, 0.0), units[name]) for name in units}, \
        problems


# --- host fingerprint --------------------------------------------------------

def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` (``unknown`` outside git)."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def host_fingerprint(root: Path, env: dict) -> dict:
    probe = subprocess.run(
        [sys.executable, "-c",
         "import numpy; from repro.emulib.fingerprint import "
         "source_fingerprint as f; print(numpy.__version__, f())"],
        cwd=root, env=env, capture_output=True, text=True, timeout=60,
        check=True)
    numpy_version, salt = probe.stdout.split()
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy_version,
            "numba": importlib.util.find_spec("numba") is not None,
            "commit": git_commit(root), "source_fingerprint": salt,
            "machine": platform.machine()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    bench = root / "BENCHMARK.json"
    if not (root / "src" / "repro" / "__init__.py").is_file() \
            or not bench.is_file():
        print("perfbench: run from the root of a source checkout "
              "(needs src/repro and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(bench.read_text())
    env, removed = scrubbed_env()
    env["PYTHONPATH"] = str(root / "src")
    # Build step: byte-compile once, so no cycle's set-up pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src",
                    str(HERE)], cwd=root, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    host = host_fingerprint(root, env)
    print(f"perfbench: {args.workload} seed {args.seed}, host {host}, "
          f"removed from the environment: {removed or 'nothing'}")

    cycles = Cycles(root, args, env)
    try:
        cycles.run()
    finally:
        shutil.rmtree(cycles.tmp, ignore_errors=True)
        try:
            cycles.tmp.parent.rmdir()
        except OSError:
            pass

    attempted = sum(o["attempted"] for o in cycles.outs)
    failed = sum(o["failed"] for o in cycles.outs)
    problems = list(cycles.broken)
    for out in cycles.outs:
        for failure in out["failures"]:
            print(f"FAILED {args.workload}: {failure}")
    untraced = cycles.cycles(traced=False)
    traced = cycles.cycles(traced=True)
    metrics, extra = {}, {}
    if args.trace and traced and untraced:
        metrics, more = per_layer(spec["per_layer"], traced, untraced)
        problems += more
    elif not args.trace and untraced:
        metrics, extra = end_to_end(cycles.mode, untraced, cycles.setups())
    else:
        problems.append("no cycle completed")
    if problems or not attempted:
        attempted = max(attempted, 1)
        failed = max(failed, 1)
    extra["failed_frac"] = (failed / attempted, "ratio")
    for problem in problems:
        print(f"PROBLEM {args.workload}: {problem}")

    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{args.workload:12s} {name:28s} {value:14.6g} {unit}")
    correct = not problems and failed == 0
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "why": next((w["why"] for w in spec["workloads"]
                           if w["name"] == args.workload), ""),
              "host": host, "removed_env": removed,
              "cycles": len(untraced) + len(traced),
              "setup_samples": cycles.setups(),
              "setup_cpu_samples": [o["setup_s"] for o in cycles.outs],
              "yardstick_samples": [o["ref_s"] for o in cycles.outs],
              "timed_walls": [o["timed_s"] for o in untraced + traced],
              "correct": correct, "attempted": attempted, "failed": failed,
              "problems": problems,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in {**metrics, **extra}.items()}}
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
