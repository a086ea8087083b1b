"""One benchmark cycle in a fresh process: set up, run the timed region,
check every answered point against the pinned digests, report raw numbers.

Every timed region is reported twice: as wall-clock and as CPU seconds.
CPU seconds are the kernel's per-task run time (user plus system) of
every process that does the work.  They leave out time spent waiting for
a CPU -- on a shared host that is the neighbours' load, not this
program.

Invoked by ``run.py`` as ``python3 perfbench/worker.py <spec-json>``; the
spec names the workload, seed, cycle index, whether to trace, a fresh
working directory and the output file.  A fresh process per cycle is
what makes a cold pass cold: the per-process build memo starts empty,
and the result cache lives in the cycle's own directory.
"""

from __future__ import annotations

import asyncio
import json
import os
import resource
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (DIGESTS_FILE, WORKLOADS, memsys_totals,  # noqa: E402
                    point_key, result_digest, shuffled)
from layers import LayerClock, install, now  # noqa: E402

#: Server answers must arrive within these bounds or count as timed out.
COLD_TIMEOUT_S = 120.0
REPLAY_TIMEOUT_S = 30.0
SERVER_BOOT_TIMEOUT_S = 60.0
SERVER_STOP_TIMEOUT_S = 15.0
SERVE_WORKERS = 2
SERVE_CLIENTS = 2

#: Failed points described in full (the rest are only counted).
MAX_REPORTED_FAILURES = 20


def monotonic() -> float:
    """System-wide clock shared with the parent (spawn-to-setup time)."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


#: CPU seconds of this process since it started, all threads included.
cpu = time.process_time


def grid_points(workload: str) -> list:
    """The workload's points: union of its presets, first-seen order."""
    from repro.exp import preset

    seen: dict = {}
    for name in WORKLOADS[workload]["grids"]:
        for point in preset(name).points():
            seen.setdefault(point, None)
    return list(seen)


def key_map(points) -> dict:
    """``{point: point_key}``, computed once per cycle."""
    return {point: point_key(point.payload()) for point in points}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fields_of(result) -> dict:
    """The deterministic fields of a SimResult or its wire/disk dict."""
    data = result if isinstance(result, dict) else result.to_dict()
    return {k: v for k, v in data.items() if k != "meta"}


class Gate:
    """Compares answered points with the digests pinned for a workload.

    The first answer to a point is hashed and compared with its pin; once
    it matches, later answers to that point are compared field by field
    with it, which is exact and far cheaper than hashing each again.  A
    point whose answer failed keeps being checked against the pin.
    """

    def __init__(self, workload: str) -> None:
        pins = json.loads(DIGESTS_FILE.read_text())["workloads"][workload]
        self.want = pins["points"]
        self.memsys = pins["memsys"]
        self.verified: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.totals: dict | None = None    # memsys sums of one clean pass

    def _fail(self, count: int, text: str) -> None:
        self.failed += count
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(text)

    def _ok(self, key: str, result) -> bool:
        if isinstance(result, dict):
            result = {k: v for k, v in result.items() if k != "meta"}
        # A SimResult's equality already ignores ``meta``.
        if key in self.verified:
            if result == self.verified[key]:
                return True
            self._fail(1, f"{key}: answer differs from its verified answer")
            return False
        got = result_digest(fields_of(result))
        if got != self.want.get(key):
            self._fail(1, f"{key}: digest {got} != pinned "
                          f"{self.want.get(key)}")
            return False
        self.verified[key] = result
        return True

    def check(self, answers: list[tuple[str, object, str]]) -> None:
        """One pass over the grid: ``(point key, SimResult or result dict
        or None, reason when None)`` per attempted point."""
        self.attempted += len(answers)
        clean = True
        for key, result, reason in answers:
            if result is None:
                self._fail(1, f"{key}: {reason}")
                clean = False
            elif not self._ok(key, result):
                clean = False
        if not clean or len(answers) != len(self.want):
            return
        totals = memsys_totals(fields_of(result) for _, result, _ in answers)
        self.totals = self.totals or totals
        if totals != self.memsys:
            self._fail(len(answers),
                       f"memsys totals {totals} != pinned {self.memsys}")


class Tally:
    """Work counted at the layer boundaries of a traced cycle."""

    def __init__(self) -> None:
        self.builds: set = set()
        self.instr_built = 0
        self.counts: Counter = Counter()
        self.phases: Counter = Counter()

    def on_build(self, key, built) -> None:
        # Each cycle is a fresh process, so the first call per key is the
        # one that built; later calls are memo hits.
        if key not in self.builds:
            self.builds.add(key)
            self.instr_built += len(built.trace)

    def on_group(self, points, results) -> None:
        self.add_results([r.to_dict() for r in results], len(points) > 1)

    def add_results(self, results: list[dict], batchable: bool) -> None:
        """Fold simulated results (one same-trace group) into the tally."""
        groups = {}
        for result in results:
            meta = result.get("meta", {})
            self.counts["points"] += 1
            self.counts["instructions"] += result["instructions"]
            if "batch_group" in meta:
                # Lanes of one BatchCore pass share one phase split.
                ident = (meta["batch_group"], meta.get("batch_group_seconds"))
                groups[ident] = meta.get("phases", {})
            else:
                groups[("point", id(result))] = meta.get("phases", {})
                if batchable:
                    self.counts["unbatched"] += 1
        for phases in groups.values():
            self.counts["groups"] += 1
            self.phases.update(phases)


def layer_report(clock: LayerClock, tally: Tally, wall: float) -> dict:
    return {"wall_s": wall, "self_s": dict(clock.self_s),
            "counts": dict(clock.counts), "builds": len(tally.builds),
            "instr_built": tally.instr_built, "work": dict(tally.counts),
            "phases": dict(tally.phases)}


# --- in-process workloads ----------------------------------------------------

def cold_cycle(spec: dict, gate: Gate) -> dict:
    """One cold sweep: fresh build memo, empty cache, ``jobs=1``."""
    from repro.exp import Session

    session = Session(Path(spec["dir"]) / "cache", jobs=1)
    out = {"setup_s": cpu(), "setup_wall_s": monotonic() - spec["spawned"]}
    if spec["setup_only"]:
        return out
    points = shuffled(grid_points(spec["workload"]), spec["seed"],
                      spec["workload"], spec["cycle"])
    clock, tally = LayerClock(), Tally()
    if spec["trace"]:
        install(clock, tally.on_build, tally.on_group)
    start, cpu_start = now(), cpu()
    results = session.run(points)
    wall, cpu_s = now() - start, cpu() - cpu_start
    keys = key_map(points)
    gate.check([(keys[p], results[p], "") for p in points])
    out.update(timed_s=wall, answered=len(points), wall_s=wall,
               cpu_s=cpu_s, points=len(points),
               instructions=sum(r.instructions for r in results.values()),
               rss_mb=peak_rss_mb())
    if spec["trace"]:
        out["layers"] = layer_report(clock, tally, wall)
    return out


def replay_cycle(spec: dict, gate: Gate) -> dict:
    """Pre-fill a cache (set-up), then replay it from disk repeatedly.

    Every pass opens a fresh ``Session`` -- an empty in-memory memo -- and
    resolves each point on its own through ``run_point``, so every answer
    is a ``ResultCache`` read and its latency is observable per point.
    """
    from repro.exp import Session

    cache = Path(spec["dir"]) / "cache"
    grid = shuffled(grid_points(spec["workload"]), spec["seed"],
                    spec["workload"], spec["cycle"])
    start = cpu()
    filled = Session(cache, jobs=1).run(grid)
    prefill = cpu() - start
    out = {"setup_s": cpu(), "setup_wall_s": monotonic() - spec["spawned"],
           "prefill_cpu_s": prefill,
           "prefill_instructions": sum(r.instructions
                                       for r in filled.values())}
    keys = key_map(grid)
    gate.check([(keys[p], filled[p], "") for p in grid])
    if spec["setup_only"]:
        return out
    clock, tally = LayerClock(), Tally()
    if spec["trace"]:
        install(clock, tally.on_build, tally.on_group)
    walls, cpus, latencies = [], [], []
    while sum(walls) < spec["replay_seconds"]:
        order = shuffled(grid, spec["seed"], spec["workload"], spec["cycle"],
                         len(walls))
        answers = []
        start, cpu_start = now(), cpu()
        session = Session(cache, jobs=1)
        for point in order:
            asked = now()
            result = session.run_point(point)
            latencies.append(now() - asked)
            answers.append((point, result))
        walls.append(now() - start)
        cpus.append(cpu() - cpu_start)
        # Checked pass by pass, so memory does not grow with speed.
        gate.check([(keys[p], r, "") if r.meta.get("cache_hit")
                    else (keys[p], None, "not served from cache")
                    for p, r in answers])
    wall = sum(walls)
    out.update(timed_s=wall, answered=len(grid) * len(walls),
               pass_walls=walls, pass_cpus=cpus, points=len(grid),
               latencies=latencies,
               rss_mb=peak_rss_mb())
    if spec["trace"]:
        out["layers"] = layer_report(clock, tally, wall)
    return out


# --- the served workload -----------------------------------------------------

def descendants(pid: int) -> list[int]:
    """``pid`` and every live process below it (from ``/proc``)."""
    children: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry.name))
    found, todo = [], [pid]
    while todo:
        proc = todo.pop()
        found.append(proc)
        todo.extend(children.get(proc, ()))
    return found


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of per-process peak RSS (``VmHWM``) over a process tree."""
    total_kb = 0
    for proc in descendants(pid):
        try:
            for line in Path(f"/proc/{proc}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def tree_cpu_s(pid: int) -> float:
    """CPU seconds of every live thread in a process tree (``schedstat``
    run time, in nanoseconds, which leaves out waiting for a CPU)."""
    total_ns = 0
    for proc in descendants(pid):
        try:
            tasks = list(Path(f"/proc/{proc}/task").iterdir())
        except OSError:
            continue
        for task in tasks:
            try:
                total_ns += int((task / "schedstat").read_text().split()[0])
            except (OSError, ValueError, IndexError):
                continue
    return total_ns / 1e9


class ServeRun:
    """Boot ``repro serve``, drive two closed-loop clients, stop it."""

    def __init__(self, spec: dict, gate: Gate, clock: LayerClock) -> None:
        self.spec = spec
        self.gate = gate
        self.clock = clock
        self.tally = Tally()
        self.server: subprocess.Popen | None = None
        self.keys: dict = {}

    def cpu(self) -> float:
        """CPU seconds so far of this client process plus the server and
        its shard workers."""
        return cpu() + tree_cpu_s(self.server.pid)

    async def boot(self) -> int:
        log = open(Path(self.spec["dir"]) / "server.log", "w")
        with log:
            self.server = subprocess.Popen(
                [sys.executable, "-m", "repro.exp.cli", "serve",
                 "--host", "127.0.0.1", "--port", "0",
                 "--workers", str(SERVE_WORKERS),
                 "--cache-dir", str(Path(self.spec["dir"]) / "cache")],
                stdout=subprocess.PIPE, stderr=log, text=True)
        loop = asyncio.get_running_loop()
        line = await asyncio.wait_for(
            loop.run_in_executor(None, self.server.stdout.readline),
            SERVER_BOOT_TIMEOUT_S)
        if " listening on " not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        return int(line.split(" listening on ")[1].split()[0].rsplit(":", 1)[1])

    async def stop(self, clients) -> None:
        """``shutdown`` op first; after a timeout, kill the server and
        every process it started."""
        from repro.serve import ServeError

        if self.server is None:
            return
        try:
            if clients:
                await asyncio.wait_for(clients[0].shutdown(), 10.0)
        except (ServeError, OSError, asyncio.TimeoutError):
            pass
        for client in clients:
            try:
                await client.close()
            except OSError:
                pass
        tree = descendants(self.server.pid)
        try:
            await asyncio.get_running_loop().run_in_executor(
                None, self.server.wait, SERVER_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        for proc in tree:       # anything the drain left behind
            try:
                os.kill(proc, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.server.wait()
        self.server.stdout.close()

    async def one_pass(self, client, points, record: dict) -> None:
        """Submit ``points``; await every answer (closed loop)."""
        from repro.serve import ServeError

        answers: dict[int, tuple] = {}
        record["answers"].append((points, answers))
        sent = now()
        self.clock.serve_enter()
        try:
            async for message in client.submit_iter(points):
                at = now() - sent
                op = message["op"]
                if op == "accepted":
                    record["accept_s"].append(at)
                elif op == "result":
                    if not answers:
                        record["first_result_s"].append(at)
                    record["latencies"].append(at)
                    answers[message["seq"]] = (
                        message.get("result"), message.get("error", ""),
                        message.get("source"))
        except (ServeError, OSError) as exc:
            record["refused"] = str(exc)
        finally:
            self.clock.serve_exit()

    async def storm(self, clients, grid, tag: str, timeout: float,
                    seconds: float = 0.0) -> dict:
        """All clients run passes over ``grid`` until ``seconds`` pass
        (at least one each); returns the pooled record."""
        record = {"answers": [], "latencies": [], "accept_s": [],
                  "first_result_s": []}
        deadline = now() + seconds

        async def loop(index, client):
            turn = 0
            while turn == 0 or now() < deadline:
                order = shuffled(grid, self.spec["seed"],
                                 self.spec["workload"], self.spec["cycle"],
                                 tag, index, turn)
                await self.one_pass(client, order, record)
                turn += 1

        start, cpu_start = now(), self.cpu()
        try:
            await asyncio.wait_for(
                asyncio.gather(*(loop(i, c) for i, c in enumerate(clients))),
                timeout)
        except asyncio.TimeoutError:
            record["timed_out"] = True
        record["wall_s"] = now() - start
        record["cpu_s"] = self.cpu() - cpu_start
        return record

    def settle(self, record: dict) -> int:
        """Check every pass of a storm record; returns points answered."""
        answered = 0
        fresh = []
        for points, answers in record.pop("answers"):
            checked = []
            for seq, point in enumerate(points):
                key = self.keys[point]
                result, error, source = answers.get(seq, (None, None, None))
                if result is None:
                    reason = error or ("timed out" if record.get("timed_out")
                                       else record.get("refused", "no answer"))
                    checked.append((key, None, reason))
                    continue
                answered += 1
                checked.append((key, result, ""))
                if source == "sim":
                    fresh.append(result)
            self.gate.check(checked)
        self.tally.add_results(fresh, False)
        return answered

    async def run(self) -> dict:
        from repro.serve import AsyncClient

        clients = []
        try:
            port = await self.boot()
            for _ in range(SERVE_CLIENTS):
                clients.append(
                    await AsyncClient("127.0.0.1", port).connect())
            await clients[0].ping()
            out = {"setup_s": self.cpu(),
                   "setup_wall_s": monotonic() - self.spec["spawned"]}
            if self.spec["setup_only"]:
                return out
            grid = grid_points(self.spec["workload"])
            self.keys = key_map(grid)
            before = await clients[0].stats()
            cold = await self.storm(clients, grid, "cold", COLD_TIMEOUT_S)
            replay = None
            if clean(cold):
                replay = await self.storm(clients, grid, "replay",
                                          REPLAY_TIMEOUT_S,
                                          self.spec["replay_seconds"])
            # A stream cut by a timeout or refusal leaves unread messages
            # on the connection, so only clean storms are followed by stats.
            after = (await clients[0].stats()
                     if replay is not None and clean(replay) else before)
            out["rss_mb"] = tree_peak_rss_mb(self.server.pid)
        finally:
            await self.stop(clients)
        cold_answered = self.settle(cold)
        out.update(
            cold_wall_s=cold["wall_s"], cold_cpu_s=cold["cpu_s"],
            cold_points=cold_answered,
            cold_latencies=cold["latencies"], accept_s=cold["accept_s"],
            first_result_s=cold["first_result_s"],
            cold_instructions=self.tally.counts["instructions"],
            stats={key: after.get(key, 0) - before.get(key, 0)
                   for key in ("simulated", "dedup_hits", "cache_hits",
                               "errors", "worker_respawns")})
        wall, points = cold["wall_s"], cold_answered
        if replay is not None:
            out.update(replay_wall_s=replay["wall_s"],
                       replay_cpu_s=replay["cpu_s"],
                       replay_points=self.settle(replay),
                       replay_latencies=replay["latencies"])
            out["accept_s"] += replay["accept_s"]
            wall += replay["wall_s"]
            points += out["replay_points"]
        out.update(timed_s=wall, answered=points)
        if self.spec["trace"]:
            out["layers"] = layer_report(self.clock, self.tally, wall)
        return out


def clean(record: dict) -> bool:
    """No pass of a storm was cut short."""
    return not record.get("timed_out") and "refused" not in record


def serve_cycle(spec: dict, gate: Gate) -> dict:
    return asyncio.run(ServeRun(spec, gate, LayerClock()).run())


CYCLES = {"cold": cold_cycle, "replay": replay_cycle, "serve": serve_cycle}


def main() -> int:
    spec = json.loads(sys.argv[1])
    import repro

    src = Path(spec["src"]).resolve()
    if src not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"repro imported from {repro.__file__}, not {src}")
    gate = Gate(spec["workload"])
    out = CYCLES[WORKLOADS[spec["workload"]]["mode"]](spec, gate)
    out.update(attempted=gate.attempted, failed=gate.failed,
               failures=gate.failures, memsys=gate.totals)
    Path(spec["out"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
