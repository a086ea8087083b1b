"""The JIT fast path is bit-identical to the interpreted timing core.

numba is optional; where it is absent the same kernels run as plain
python under ``REPRO_JIT_PUREPY=1`` -- identical code path, identical
integer arithmetic, just slower.  The autouse fixture forces that mode so
parity is exercised on every host, with or without a compiler.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cpu import Core, machine_config
from repro.cpu.batch import BatchCore, LaneSpec
from repro.cpu.jit import (NUMBA_VERSION, UnjittableError, jit_available,
                           jit_enabled, lane_unjittable_reason,
                           run_lanes_jit, warm)
from repro.exp.engine import Session
from repro.exp.spec import SweepSpec
from repro.memsys import PerfectMemory

from test_golden_digest import (GOLDEN_DIGESTS, grid_points, make_memsys,
                                result_digest)
from test_stream_threshold import _trace_of_length

#: Memory labels of the golden grid the kernel can express (PerfectMemory
#: lanes); the cache hierarchies fall back to the interpreted stepper.
JITTABLE = ("perfect", "latency50")


@pytest.fixture(autouse=True)
def _jit_capable_everywhere(monkeypatch):
    """Make the jit path executable even where numba is missing."""
    monkeypatch.setenv("REPRO_JIT_PUREPY", "1")
    monkeypatch.delenv("REPRO_NO_JIT", raising=False)


def _run(kernel, isa, way, label, *, jit):
    from repro.exp.engine import built_kernel
    core = Core(machine_config(way, isa), make_memsys(label, way, isa))
    return core.run(built_kernel(kernel, isa).trace, jit=jit)


# --- toggles and capability detection ----------------------------------------

def test_env_toggles(monkeypatch):
    assert jit_available()          # forced pure-python counts as available
    assert jit_enabled()
    monkeypatch.setenv("REPRO_NO_JIT", "1")
    assert not jit_enabled()
    result = _run("idct", "mmx", 2, "perfect", jit=None)
    assert result.meta["jit"] is False      # None defers to the env toggle
    monkeypatch.delenv("REPRO_NO_JIT")
    assert jit_enabled()


def test_lane_gating():
    cfg = machine_config(2, "mmx")
    perfect = LaneSpec(cfg, PerfectMemory(1, cfg.mem_ports,
                                          cfg.mem_port_width))
    assert lane_unjittable_reason(perfect) is None
    cache = LaneSpec(cfg, make_memsys("cache", 2, "mmx"))
    assert isinstance(lane_unjittable_reason(cache), str)


def test_numba_absent_means_no_jit(monkeypatch):
    """Without numba and without the pure-python override the path reports
    unavailable and ``Core.run(jit=True)`` silently stays interpreted --
    behavior identical to v1.4.0."""
    if NUMBA_VERSION is not None:
        pytest.skip("numba is installed; the absent branch is unreachable")
    monkeypatch.delenv("REPRO_JIT_PUREPY", raising=False)
    assert not jit_available()
    forced = _run("idct", "mmx", 2, "perfect", jit=True)
    assert forced.meta["jit"] is False
    assert result_digest(forced) == \
        result_digest(_run("idct", "mmx", 2, "perfect", jit=False))


def test_warm_is_idempotent():
    warm()
    warm()


# --- golden mini-grid parity -------------------------------------------------

def test_golden_grid_with_jit_forced_on():
    """Every grid point still lands on its seed digest with the jit path
    requested: PerfectMemory points run the kernel, cache points fall back
    to the interpreted stepper -- both bit-identical."""
    ran_jit = 0
    for kernel, isa, way, label in grid_points():
        result = _run(kernel, isa, way, label, jit=True)
        assert result_digest(result) == \
            GOLDEN_DIGESTS[(kernel, isa, way, label)], \
            (kernel, isa, way, label)
        assert result.meta["jit"] is (label in JITTABLE), \
            (kernel, isa, way, label)
        ran_jit += result.meta["jit"]
    assert ran_jit == sum(p[3] in JITTABLE for p in grid_points())


@pytest.mark.parametrize("point", [p for p in grid_points()
                                   if p[3] in JITTABLE][::8])
def test_golden_subset_with_jit_forced_off(point):
    result = _run(*point, jit=False)
    assert result.meta["jit"] is False
    assert result_digest(result) == GOLDEN_DIGESTS[point]


# --- mixed jit/fallback batch group through Session.run ----------------------

MIXED_SWEEP = SweepSpec(name="jit-mixed", kind="kernel", targets=("idct",),
                        isas=("mom",), ways=(2, 4),
                        memories=("perfect", "multiaddress"))


def test_mixed_group_through_session(tmp_path):
    """One same-trace batch group where half the lanes run the kernel and
    half fall back: identical results to a jit-off session, with
    ``meta["jit"]`` recording which path each lane took."""
    on = Session(tmp_path / "on", salt="x", jit=True).run(MIXED_SWEEP)
    off = Session(tmp_path / "off", salt="x", jit=False).run(MIXED_SWEEP)
    assert set(on) == set(off) and len(on) == 4
    for point, result in on.items():
        assert result_digest(result) == result_digest(off[point]), point
        assert result.meta["jit"] is (point.memory == "perfect"), point
        assert off[point].meta["jit"] is False, point
        assert result.meta.get("batch_lanes") == 4, point


# --- decode rings ------------------------------------------------------------

def test_decode_ring_wraparound():
    """A long trace through deliberately small decode blocks and rings
    forces many wraparounds and retention checks in the jit driver."""
    trace = _trace_of_length(5000)
    cfg = machine_config(4, "mmx")
    ref = Core(cfg, PerfectMemory(1, 2, 1)).run(trace, jit=False)
    spec = LaneSpec(machine_config(4, "mmx"), PerfectMemory(1, 2, 1))
    (stats,) = run_lanes_jit([spec], trace, block=512, ring=2048)
    assert stats["cycles"] == ref.cycles
    assert stats["fetch_stalls"] == ref.fetch_stall_cycles
    assert stats["rename_stalls"] == ref.rename_stall_events


def test_unjittable_trace_length_guard():
    """The 2^31 record-count guard raises before touching any state."""
    class _HugeTrace:
        def __len__(self):
            return 1 << 31
    spec = LaneSpec(machine_config(2, "mmx"), PerfectMemory(1, 2, 1))
    with pytest.raises(UnjittableError):
        run_lanes_jit([spec], _HugeTrace())


# --- hypothesis differential fuzzer ------------------------------------------

@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(way=st.sampled_from((1, 2, 4, 8)),
       isa=st.sampled_from(("mmx", "mom")),
       latency=st.sampled_from((1, 3, 50)),
       acc=st.booleans(), late=st.booleans(), zero=st.booleans(),
       n=st.integers(min_value=40, max_value=400))
def test_fuzz_jit_matches_python(way, isa, latency, acc, late, zero, n):
    from repro.emulib.trace import Trace
    from repro.exp.engine import built_kernel
    seed = built_kernel("idct", isa).trace
    trace = Trace(seed.isa)
    while len(trace) < n:
        trace.extend(seed)
    trace.truncate(n)
    trace.invalidate_summary()
    cfg = machine_config(way, isa)

    def core():
        return Core(cfg, PerfectMemory(latency, cfg.mem_ports,
                                       cfg.mem_port_width),
                    acc_chaining=acc, late_release=late,
                    zero_idiom_elision=zero)

    ref = core().run(trace, jit=False)
    jitted = core().run(trace, jit=True)
    assert jitted.meta["jit"] is True
    assert result_digest(jitted) == result_digest(ref)


# --- repro bench schema-drift tolerance --------------------------------------

def test_bench_delta_lines_tolerate_schema_drift():
    from repro.exp.cli import _bench_delta_lines
    old = {"a": 1, "dropped": 2.0, "same": "x", "renamed": 3}
    new = {"a": 2, "added": True, "same": "x"}
    text = "\n".join(_bench_delta_lines(old, new))
    assert "a: 1 -> 2  (+100.0%)" in text
    assert "dropped: 2.0 -> n/a" in text
    assert "added: n/a -> True" in text
    assert "renamed: 3 -> n/a" in text
    assert "same" not in text
    assert _bench_delta_lines({}, {}) == []
    assert _bench_delta_lines({"k": 1}, {"k": 1}) == []
