"""Workload table, point keys and result digests shared by the benchmark.

Nothing here imports ``repro``: the orchestrator (``run.py``) stays free
of the package so its own memory and start-up never enter a measurement;
only the per-cycle child processes (``worker.py``) and ``pin.py`` import
the simulator.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Pinned per-workload digests and ``memsys`` totals (written by pin.py).
DIGESTS_FILE = HERE / "digests.json"

#: Each workload: the ``repro.exp.spec`` presets whose union is its grid,
#: and how a cycle runs it (see worker.py).
WORKLOADS = {
    "fig5-cold": {"grids": ("figure5",), "mode": "cold"},
    "fig7-cold": {"grids": ("figure7",), "mode": "cold"},
    "serve-storm": {"grids": ("figure5",), "mode": "serve"},
    "replay-warm": {"grids": ("figure5", "latency", "fetch-pressure",
                              "vc-kernels"), "mode": "replay"},
}

#: ``SimResult.mem_stats`` fields summed into the ``memsys.*`` metrics.
#: They are simulated counts, so they must repeat exactly on every run.
MEMSYS_KEYS = ("l1_hits", "l1_misses", "l2_misses", "dram_bytes",
               "vector_transactions", "wbuf_full_stalls")

#: CPU seconds of one :func:`yardstick` call on the nominal host (a
#: 2-vCPU 2.1 GHz Xeon guest, Python 3.11).  Gated times are scaled by
#: ``REF_NOMINAL_S / measured yardstick time`` -- see ``run.py``.
REF_NOMINAL_S = 0.0134
#: Yardstick calls per host-speed reading (``run.py`` takes one reading
#: right before and one right after each cycle).
REF_SAMPLES = 7

#: Every environment variable that selects which path ``repro`` runs
#: (engine, jit, cache location, telemetry) starts with this prefix.
ENV_PREFIX = "REPRO_"


def point_key(payload: dict) -> str:
    """A short, stable name for one point payload."""
    key = (f"{payload['kind']}/{payload['target']}/{payload['isa']}"
           f"/w{payload['way']}/l{payload.get('latency', 1)}"
           f"/{payload.get('memory', 'perfect')}/s{payload.get('scale', 1)}")
    if payload.get("accounting"):
        key += "/acct"
    return key


def result_digest(result: dict) -> str:
    """Digest of every deterministic ``SimResult`` field.

    Same definition as ``tests/test_golden_digest.py::result_digest``:
    the ``to_dict()`` image without ``meta`` (wall-clock bookkeeping).
    """
    data = {k: v for k, v in result.items() if k != "meta"}
    canon = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def grid_digest(digests: dict[str, str]) -> str:
    """One digest over a whole grid's per-point digests (order-free)."""
    canon = json.dumps(sorted(digests.items()), separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def memsys_totals(results) -> dict[str, int]:
    """Sums of the :data:`MEMSYS_KEYS` over result dicts."""
    totals = dict.fromkeys(MEMSYS_KEYS, 0)
    for result in results:
        stats = result.get("mem_stats", {})
        for key in MEMSYS_KEYS:
            totals[key] += int(stats.get(key, 0))
    return totals


def shuffled(items, *labels) -> list:
    """``items`` in an order fixed by ``labels`` (seed, workload, cycle...).

    String seeding of :class:`random.Random` hashes with sha512, so the
    order is identical across processes and Python hash randomization.
    """
    out = list(items)
    random.Random(":".join(str(label) for label in labels)).shuffle(out)
    return out


def scrubbed_env(environ=None) -> tuple[dict, dict]:
    """(child environment, removed ``REPRO_*`` variables).

    Removing every ``REPRO_*`` variable means a stray ``REPRO_NO_BATCH``
    or ``REPRO_CACHE_DIR`` cannot swap the engine or the cache under
    measurement; the removed values are recorded with each run.
    """
    environ = dict(os.environ if environ is None else environ)
    removed = {k: v for k, v in environ.items() if k.startswith(ENV_PREFIX)}
    for key in removed:
        del environ[key]
    return environ, removed


class _Lane:
    """A toy register file stepped by :func:`yardstick`."""

    __slots__ = ("pc", "regs", "ready")

    def __init__(self) -> None:
        self.pc = 0
        self.regs = [0] * 16
        self.ready: dict[int, int] = {}

    def step(self, op: int) -> int:
        regs = self.regs
        dst, src = op & 15, (op >> 4) & 15
        value = regs[dst] = (regs[dst] + regs[src] + op) & 0xFFFF
        if value & 1:
            self.ready[dst] = self.pc
        self.pc += 1
        return value


def yardstick() -> int:
    """Fixed pure-Python work of the kind the simulator does (attribute
    access, list and dict updates, small-int arithmetic, method calls).

    It uses nothing from ``repro``, so no change to the program moves its
    time; only the host's speed does.
    """
    lane, acc = _Lane(), 0
    for i in range(60_000):
        acc ^= lane.step((i * 40503) & 0xFFFF)
    return acc


def host_speed_samples() -> list[float]:
    """CPU seconds of :data:`REF_SAMPLES` yardstick calls, after one
    untimed warm-up call, with the collector off so the caller's heap
    does not enter the reading."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yardstick()
        samples = []
        for _ in range(REF_SAMPLES):
            start = time.process_time()
            yardstick()
            samples.append(time.process_time() - start)
        return samples
    finally:
        if was_enabled:
            gc.enable()
