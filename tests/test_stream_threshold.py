"""Record sources and column geometry never shift timing.

``Core.run`` picks its record source by trace size: below
``STREAM_THRESHOLD`` (or whenever a record list is already cached) it
walks the cached ``timing_records()`` list; at or above it it streams
``TimingRecords`` chunk by chunk.  The boundary tests pin that a trace at
exactly the threshold and at ``threshold +- 1`` produces bit-identical
``SimResult`` digests through both paths, so the crossover can never
shift timing.  The default threshold (1 << 20 instructions) would need
megainstruction traces, so the boundary is exercised by lowering
``STREAM_THRESHOLD`` to a kernel-sized value -- the selection logic is
identical, only the constant moves.

``BatchCore`` has no such choice: its
shared decode always reads the trace's columnar rows, sealed chunks then
staging tail, and never fills the record cache.  The geometry tests pin
that every way of laying the same rows out in chunks digests exactly as
``Core.run`` does.
"""

import pytest

from repro.cpu import Core, machine_config
from repro.cpu.batch import BatchCore, LaneSpec
from repro.emulib.trace import CHUNK_ROWS, Trace
from repro.exp.engine import built_kernel
from repro.memsys import PerfectMemory

from test_golden_digest import result_digest


def test_default_threshold_value():
    """The production crossover sits at 1M instructions (frame scale)."""
    assert Core.STREAM_THRESHOLD == 1 << 20


def _trace_of_length(n: int, *, isa: str = "mmx",
                     chunk_rows: int = CHUNK_ROWS):
    """A trace of exactly ``n`` instructions (kernel trace, repeated).

    Built as a *fresh* ``Trace`` object: ``built_kernel`` memoizes per
    process, so extending/truncating its trace in place would corrupt
    every later test and benchmark sharing the memo (and, through the
    experiment engine, poison the on-disk result cache with results of
    the mutilated trace)."""
    seed = built_kernel("idct", isa).trace
    base = Trace(seed.isa, chunk_rows=chunk_rows)
    while len(base) < n:
        base.extend(seed)
    base.truncate(n)
    base.invalidate_summary()
    assert len(base) == n and not base.records_cached()
    return base


def _digest(trace, *, streamed: bool, monkeypatch, threshold: int) -> str:
    """One run through an explicitly-selected record source."""
    if streamed:
        monkeypatch.setattr(Core, "STREAM_THRESHOLD", threshold)
        trace.invalidate_summary()      # a cached list would win otherwise
    else:
        monkeypatch.setattr(Core, "STREAM_THRESHOLD", 1 << 60)
    core = Core(machine_config(4, "mmx"), PerfectMemory(1, 2, 1))
    result = core.run(trace)
    assert result.instructions == len(trace)
    return result_digest(result)


THRESHOLD = 512      # kernel-sized stand-in for 1 << 20


@pytest.mark.parametrize("n", [THRESHOLD - 1, THRESHOLD, THRESHOLD + 1],
                         ids=("below", "exact", "above"))
def test_boundary_lengths_digest_identically_through_both_paths(
        monkeypatch, n):
    trace = _trace_of_length(n)
    cached = _digest(trace, streamed=False, monkeypatch=monkeypatch,
                     threshold=THRESHOLD)
    streamed = _digest(trace, streamed=True, monkeypatch=monkeypatch,
                       threshold=THRESHOLD)
    assert cached == streamed


# --- BatchCore reads the columns directly ------------------------------------

def _lane(isa: str) -> LaneSpec:
    cfg = machine_config(4, isa)
    return LaneSpec(cfg, PerfectMemory(1, cfg.mem_ports, cfg.mem_port_width))


def _appended_after_cache(isa: str):
    """A trace whose record list was cached, then grown past it."""
    trace = _trace_of_length(1000, isa=isa)
    trace.timing_records()
    assert trace.records_cached()
    trace.extend(built_kernel("idct", isa).trace)
    return trace


#: (chunk_rows, length) layouts of the same repeated kernel rows: one row
#: per chunk; 7-row chunks with and without an unsealed staging tail; the
#: default chunk size all in the tail, and exactly one sealed chunk.
GEOMETRIES = {
    "rows1": lambda isa: _trace_of_length(300, isa=isa, chunk_rows=1),
    "rows7-tail": lambda isa: _trace_of_length(703, isa=isa, chunk_rows=7),
    "rows7-sealed": lambda isa: _trace_of_length(700, isa=isa, chunk_rows=7),
    "default-tail": lambda isa: _trace_of_length(1500, isa=isa),
    "default-sealed": lambda isa: _trace_of_length(CHUNK_ROWS, isa=isa),
    "appended-after-cache": _appended_after_cache,
}


@pytest.mark.parametrize("isa", ("mmx", "mom"))
@pytest.mark.parametrize("geometry", list(GEOMETRIES))
def test_column_geometry_batch_matches_core(geometry, isa):
    """However the rows are chunked, a BatchCore lane digests exactly as
    ``Core.run``, and leaves the record cache empty."""
    trace = GEOMETRIES[geometry](isa)
    (result,) = BatchCore([_lane(isa)]).run(trace)
    assert not trace.records_cached()
    fresh = _lane(isa)
    ref = Core(fresh.config, fresh.memsys).run(trace)
    assert result.instructions == len(trace)
    assert result_digest(result) == result_digest(ref)


def test_batch_paths_leave_record_cache_empty():
    """Below ``STREAM_THRESHOLD`` ``Core.run`` caches the record list; the
    batch decode must not, which is what keeps a cold sweep's peak memory
    at the columnar store plus the decode rings."""
    trace = _trace_of_length(THRESHOLD)
    assert len(trace) < Core.STREAM_THRESHOLD
    BatchCore([_lane("mmx"), _lane("mmx")]).run(trace)
    assert not trace.records_cached()
