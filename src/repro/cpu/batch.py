"""Batch-lane timing core: N machine configurations, one pass over a trace.

A Figure-7 grid simulates one trace under many machine configurations.
:class:`~repro.cpu.core.Core` pays the trace walk -- columnar decode,
record classification, dependence discovery, branch-predictor streams --
once *per configuration*; :class:`BatchCore` pays it once per *trace* and
shares the products read-only across all configurations ("lanes"),
exactly the fetch/decode amortization the paper's matrix ISA applies to
data lanes (Section 2).

What is shared, and why it is exact
-----------------------------------

* **Decoded rows.**  Each row of the trace's columnar store
  (:meth:`~repro.emulib.trace.Trace.iter_rows`) is folded once, with no
  intermediate :class:`~repro.emulib.trace.TimingRecord`, into flat ring
  buffers of plain ints and tuples (issue constants, packed register
  charges, chaining mode) sized to two streaming blocks, so any trace is
  decoded once for the whole grid instead of once per point while peak
  memory stays at the columnar store plus two blocks -- the trace's
  record cache is never filled.  Constants that depend on an ablation
  knob are folded into per-knob ring *variants* (rows the knob does not
  touch share one tuple object), so lanes select a ring up front
  instead of re-testing knobs per instruction.
* **Dependences.**  ``Core.run`` discovers producers dynamically through
  a ``last_writer`` map that drops entries at commit.  Commit is in
  order, so the in-flight window is the contiguous index range
  ``[committed, fetch_idx)`` -- the *static* last-writer edge (computed
  once at decode) filtered per lane by ``producer >= committed`` is the
  identical relation, and any producer further back than the largest ROB
  in the batch can never be in flight, which bounds the edge distance.
* **Branch outcomes.**  Fetch is strictly in program order, so the
  bimodal counters and BTB tags see a configuration-independent stream:
  per (bimodal, BTB) *size class* the mispredict/redirect outcome of
  every control instruction -- and the total lookup/mispredict/BTB-miss
  counters -- are pure functions of the trace, computed once at decode.
  (The BTB stream depends on the bimodal size because mispredicted taken
  branches bypass the BTB, which is why the class key is the pair.)
  Fetch-disturbing controls are also listed positionally per class, so a
  lane's fetch phase advances a whole fetch group in O(1) instead of
  testing every instruction for a taken branch.
* **Register/LSQ charges.**  Rename bookkeeping runs on SWAR-packed
  ints: the four pool counters *and* the LSQ occupancy live in one
  integer (16-bit biased fields), and every record's allocation,
  rename-check, commit-release and writeback-release charges are packed
  once at decode, so dispatch admission is one subtract-mask-compare.
* **Memory rows.**  The materialized ``DynInstr`` of each memory row is
  handed read-only to every lane's memory model (no model mutates it).

Lane state and stepping
-----------------------

Each lane still owns divergent scheduler state -- clock, ROB window,
physical-register counters, FU and port horizons, stall counters -- kept
in flat rings of plain ints indexed by ``instruction_index & (window-1)``
(the live window is bounded by ``rob_size + 2*width``).  Lanes with
different configurations retire the same instruction at different
cycles, so there is no cross-lane cycle lockstep to vectorize; lockstep
exists at the *trace* level instead: all lanes consume one decoded block
stream, pausing at block boundaries, and identical lanes (same config,
knobs and perfect-memory shape) collapse to one simulation whose result
is replicated.  At each pause a lane records how far it has committed;
the driver checks that against the ring-retention invariant before
decoding over the oldest block.

Divergent events -- mispredict redirects, structural parks, memory-model
retries -- are per-lane by nature and handled inside each lane's
stepper, a generator transcription of ``Core.run``'s event loop (same
phase order, same scheduling disciplines, same horizon search) that must
stay *bit-identical* to it; the golden-digest parity tests pin this.

Points a batch cannot express raise :class:`UnbatchableError`; callers
(``repro.exp.engine``) fall back to per-point ``Core`` runs.
"""

from __future__ import annotations

import gc
import heapq
from collections import deque
from time import perf_counter as _perf_counter

from ..emulib.trace import DynInstr, TimingRecord, Trace
from ..isa.model import InstrClass, RegPool
from ..memsys.perfect import PerfectMemory
from .config import MachineConfig
from .core import (Core, SimResult, TimingStats, checked_stack,
                   _FAR_FUTURE, _NO_EVENT)
from .funit import _NON_PIPELINED

#: compute InstrClass -> (family index, needs complex unit);
#: family order is (int, fp, med), matching Core's pool routing.
_FAM = {
    InstrClass.INT_SIMPLE: (0, False),
    InstrClass.INT_COMPLEX: (0, True),
    InstrClass.FP_SIMPLE: (1, False),
    InstrClass.FP_COMPLEX: (1, True),
    InstrClass.MED_SIMPLE: (2, False),
    InstrClass.MED_COMPLEX: (2, True),
}

_KIND_CONTROL = TimingRecord.KIND_CONTROL
_KIND_COMPUTE = TimingRecord.KIND_COMPUTE
_MED = int(RegPool.MED)

#: SWAR register/LSQ accounting: pool ``p`` occupies bits ``[16p,
#: 16p+16)`` and the LSQ is field 4 (bits ``[64, 80)``), each with bias
#: ``1 << 15``.  Field values never stray more than a few hundred from
#: the bias (limits and charges are small), so fields never borrow into
#: their neighbours and sign tests reduce to bit 15.
_BIAS = 1 << 15
_LSQ_SHIFT = 64
_M32 = (1 << 32) - 1
_M80 = (1 << 80) - 1

#: ``e_completion`` sentinel for dispatched-but-unissued entries -- far
#: above any reachable cycle, so the commit head test and the producer
#: scan read one ring instead of a ring plus an "issued" flag ring.
_UNISSUED = 1 << 62


class UnbatchableError(RuntimeError):
    """This lane set cannot run through :class:`BatchCore`; use ``Core``."""


class LaneSpec:
    """One configuration lane: what ``Core(config, memsys, **knobs)`` takes.

    The memory system is owned by the lane (mutated during the run and
    read for ``mem_stats``), exactly as ``Core`` owns the one it is
    constructed with.
    """

    __slots__ = ("config", "memsys", "acc_chaining", "late_release",
                 "zero_idiom_elision", "accounting")

    def __init__(self, config: MachineConfig, memsys, *,
                 acc_chaining: bool = True, late_release: bool = True,
                 zero_idiom_elision: bool = True,
                 accounting: bool = False) -> None:
        self.config = config
        self.memsys = memsys
        self.acc_chaining = acc_chaining
        self.late_release = late_release
        self.zero_idiom_elision = zero_idiom_elision
        self.accounting = accounting

    def dedup_key(self):
        """Lanes with equal keys are provably identical simulations.

        Only perfect-memory lanes participate: a cache hierarchy is a
        stateful object whose identity matters, so such lanes never
        collapse.  Returns ``None`` for non-deduplicable lanes.
        """
        ms = self.memsys
        if type(ms) is not PerfectMemory:
            return None
        return (self.config, self.acc_chaining, self.late_release,
                self.zero_idiom_elision, self.accounting, ms.latency,
                ms.portset.ports, ms.portset.port_width)


class _CtlState:
    """Predictor/BTB stream for one (bimodal entries, BTB entries) class."""

    __slots__ = ("ring", "pos_idx", "pos_code", "counters", "bmask", "tags",
                 "btbmask", "btbdiv", "lookups", "mispredicts", "btb_misses")

    def __init__(self, bimodal_entries: int, btb_entries: int,
                 ring_size: int) -> None:
        #: per-record fetch outcome: 0 = fall through, 1 = mispredict
        #: (fetch blocks until resolve), 2 = taken redirect on a BTB hit
        #: (next fetch at cycle+1), 3 = redirect on a BTB miss (cycle+2).
        self.ring = [0] * ring_size
        #: absolute index / outcome of every *nonzero* control (the ones
        #: that disturb fetch), in program order.  Fetch consumes these
        #: sequentially, so a fetch group with no taken branch advances
        #: in one jump.
        self.pos_idx: list[int] = []
        self.pos_code: list[int] = []
        self.counters = bytearray([2]) * bimodal_entries
        self.bmask = bimodal_entries - 1
        self.tags: list[int | None] = [None] * btb_entries
        self.btbmask = btb_entries - 1
        self.btbdiv = btb_entries
        self.lookups = 0
        self.mispredicts = 0
        self.btb_misses = 0


class _SharedDecode:
    """The once-per-trace decode products, consumed block by block.

    Rows come straight from the trace's columnar store
    (:meth:`~repro.emulib.trace.Trace.iter_rows`); no per-row record
    object is built.  Within one run two things are memoized: the issue
    constants and flags per ``(op_id, vl)`` (from the trace's per-opcode
    :meth:`~repro.emulib.trace.Trace.op_metas` table), and the SWAR
    charges per ``(dsts, vl, is_memory)``.  Only memory rows get a
    :class:`~repro.emulib.trace.DynInstr`, because the memory models
    take one.

    Per record, indexed ``i & mask``:

    * ``op_raw`` / ``op_ac`` -- single-row pipelined compute packs to a
      small int (scan index | latency << 3, the overwhelmingly common
      case and the stepper's fastest path); everything else is a
      (kind, scan index, unused, exec_rows, latency, non_pipelined,
      chain_mode, vl, instr|None) tuple.  The ``_ac`` variant folds
      accumulator chaining (latency 1 on eligible records) and shares
      the object everywhere else
    * ``deps`` -- tuple of producer indices (static last-writer edges),
      or ``None``
    * ``chains`` -- consumer chains on producers' element streams
    * ``ismem`` -- 0/1, for the horizon's LSQ-vs-rename disambiguation
    * SWAR charge rings, in raw / zero-idiom-elided variants:
      ``alloc`` (sum of charges + LSQ slot, dispatch), ``chk``/``smask``
      (per-pool max charge and presence mask, rename/LSQ admission),
      ``commit_if`` / ``commit_full`` (commit-time decrements for
      late-release on/off), ``rel`` (writeback-release charges of the
      MED/ACC pools)
    * per (bimodal, BTB) class, ``ctl`` -- fetch-control codes (ring)
      plus the positional nonzero-control lists
    """

    def __init__(self, trace: Trace, dep_cap: int,
                 ctl_classes, block: int, ring: int) -> None:
        n = len(trace)
        self.n = n
        self.next_row = trace.iter_rows().__next__
        self.metas = trace.op_metas()
        #: ``vl * len(metas) + op_id`` -> (op_raw, op_ac, code, chains,
        #: elide); see :meth:`_classify`.
        self._op_memo: dict[int, tuple] = {}
        #: ``(dsts, vl, is_memory)`` -> packed charges; see :func:`_charges`.
        self._charge_memo: dict[tuple, tuple[int, ...]] = {}
        self.dep_cap = dep_cap
        self.block = block
        if n > ring:
            self.size = ring
        else:
            self.size = 1 << max(0, (n - 1).bit_length())
        self.mask = self.size - 1
        self.avail = 0
        size = self.size
        self.op_raw: list = [None] * size
        self.op_ac: list = [None] * size
        self.deps: list = [None] * size
        self.chains = [False] * size
        self.ismem = [0] * size
        self.alloc_raw = [0] * size
        self.alloc_z = [0] * size
        self.chk = [0] * size
        self.smask_raw = [0] * size
        self.smask_z = [0] * size
        self.commit_if_raw = [0] * size
        self.commit_if_z = [0] * size
        self.commit_full_raw = [0] * size
        self.commit_full_z = [0] * size
        self.rel_raw = [0] * size
        self.rel_z = [0] * size
        #: all-zero ring late_release=False lanes read their releases from.
        self.zero_ring = [0] * size
        self.last_writer: dict[int, int] = {}
        self.ctl: dict[tuple[int, int], _CtlState] = {
            key: _CtlState(key[0], key[1], size) for key in ctl_classes}
        fill = min(block, size)
        self._zeros = [0] * fill
        self._nones: list = [None] * fill
        self._falses = [False] * fill

    @staticmethod
    def _classify(meta, vl: int) -> tuple:
        """Issue constants of one (opcode, vl) pair.

        Returns ``(op_raw, op_ac, code, chains, elide)``: the two op-ring
        values (for memory rows a tuple still missing its trailing
        ``DynInstr``), ``code`` 0 = compute/nop, 1 = memory, 2 = branch,
        3 = jump, the element-chaining flag and whether the zero-idiom
        elision drops the row's charges.
        """
        is_mem = meta.is_memory
        if vl <= 1:
            chmode = 0
        elif is_mem:
            chmode = 1
        elif meta.writes_acc:
            chmode = 0
        else:
            chmode = 2
        chains = vl > 1 and meta.chains_class
        elide = meta.op_name in Core.ZERO_IDIOMS
        kind = meta.kind
        if kind == _KIND_COMPUTE:
            fam, needc = _FAM[meta.iclass]
            rows = vl if meta.is_media_compute else 1
            nonpip = meta.op_name in _NON_PIPELINED
            sidx = fam * 2 + needc
            lat = meta.latency
            if rows == 1 and not nonpip:
                # Fast single-row pipelined compute, packed as a small
                # int (scan index | latency << 3).  For these the
                # chain-ready cycle always equals completion (chmode 0
                # trivially; chmode 2 because the first element lands
                # with the last when occupancy is one cycle), so the
                # stepper's int path skips the chain-mode dispatch.
                op = sidx | lat << 3
            else:
                op = (kind, sidx, False, rows, lat, nonpip, chmode, vl, None)
            # Eligible accumulates always span multiple rows, so the
            # chained variant is never int-packed.
            op_ac = ((kind, sidx, False, rows, 1, nonpip, chmode, vl, None)
                     if meta.acc_pair and meta.is_media_compute and vl > 1
                     else op)
            return op, op_ac, 0, chains, elide
        if is_mem:
            op = (1, 0, False, 1, 0, False, chmode, vl)
            return op, op, 1, chains, elide
        if kind == _KIND_CONTROL:
            op = (2, 0, False, 1, 0, False, 0, 1, None)
            return op, op, 3 if meta.is_jump else 2, chains, elide
        op = (3, 0, False, 1, 0, False, 0, 1, None)
        return op, op, 0, chains, elide

    def decode_block(self) -> None:
        """Decode up to one block of records into the shared rings."""
        n = self.n
        start = self.avail
        if start >= n:
            return
        m = min(self.block, n - start)
        mask = self.mask
        base = start & mask      # blocks are aligned: the span is contiguous
        end = base + m
        zeros = self._zeros
        # Reset the span (sparsely-written rings only; the op rings are
        # always written).  Slice stores are C-speed.
        self.deps[base:end] = self._nones[:m]
        self.chains[base:end] = self._falses[:m]
        self.ismem[base:end] = zeros[:m]
        self.alloc_raw[base:end] = zeros[:m]
        self.alloc_z[base:end] = zeros[:m]
        self.chk[base:end] = zeros[:m]
        self.smask_raw[base:end] = zeros[:m]
        self.smask_z[base:end] = zeros[:m]
        self.commit_if_raw[base:end] = zeros[:m]
        self.commit_if_z[base:end] = zeros[:m]
        self.commit_full_raw[base:end] = zeros[:m]
        self.commit_full_z[base:end] = zeros[:m]
        self.rel_raw[base:end] = zeros[:m]
        self.rel_z[base:end] = zeros[:m]

        op_raw_r = self.op_raw
        op_ac_r = self.op_ac
        deps_r = self.deps
        chains_r = self.chains
        ismem_r = self.ismem
        alloc_raw = self.alloc_raw
        alloc_z = self.alloc_z
        chk_r = self.chk
        smask_raw = self.smask_raw
        smask_z = self.smask_z
        cif_raw = self.commit_if_raw
        cif_z = self.commit_if_z
        cfull_raw = self.commit_full_raw
        cfull_z = self.commit_full_z
        rel_raw = self.rel_raw
        rel_z = self.rel_z
        lw = self.last_writer
        cap = self.dep_cap
        nxt = self.next_row
        metas = self.metas
        nops = len(metas)
        op_memo = self._op_memo
        charge_memo = self._charge_memo
        classify = self._classify
        ctl_rows: list[tuple[int, int, bool, int, object]] = []
        for i in range(start, start + m):
            op_id, srcs, dsts, addr, nbytes, stride, vl, taken, site = nxt()
            slot = i & mask
            key = vl * nops + op_id
            ent = op_memo.get(key)
            if ent is None:
                ent = op_memo[key] = classify(metas[op_id], vl)
            op, op_ac, code, chains, elide = ent
            if code == 1:
                op += (DynInstr(metas[op_id].op, srcs, dsts, addr, nbytes,
                                stride, vl, taken, site),)
                op_raw_r[slot] = op
                op_ac_r[slot] = op
                ismem_r[slot] = 1
            else:
                op_raw_r[slot] = op
                op_ac_r[slot] = op_ac
                if code:
                    ctl_rows.append((i, slot, code == 3, site, taken))
            if srcs:
                dl = None
                for src in srcs:
                    j = lw.get(src, -1)
                    if j >= 0 and i - j <= cap:
                        if dl is None:
                            dl = [j]
                        else:
                            dl.append(j)
                if dl is not None:
                    deps_r[slot] = tuple(dl)
                    if chains:
                        chains_r[slot] = True
            if dsts or code == 1:
                ckey = (dsts, vl, code == 1)
                ch = charge_memo.get(ckey)
                if ch is None:
                    ch = charge_memo[ckey] = _charges(*ckey)
                alloc, chk, smask, all_sum, if_sum, rel = ch
                for d in dsts:
                    lw[d] = i
                alloc_raw[slot] = alloc
                chk_r[slot] = chk
                smask_raw[slot] = smask
                cfull_raw[slot] = all_sum
                cif_raw[slot] = if_sum
                rel_raw[slot] = rel
                if not elide:
                    alloc_z[slot] = alloc
                    smask_z[slot] = smask
                    cfull_z[slot] = all_sum
                    cif_z[slot] = if_sum
                    rel_z[slot] = rel
        for st in self.ctl.values():
            ring = st.ring
            ring[base:end] = zeros[:m]
            pos_idx, pos_code = st.pos_idx, st.pos_code
            counters, bmask = st.counters, st.bmask
            tags, btbmask, btbdiv = st.tags, st.btbmask, st.btbdiv
            lookups = st.lookups
            mispred = st.mispredicts
            bmiss = st.btb_misses
            for i, slot, is_jump, site, taken in ctl_rows:
                code = 0
                if is_jump:
                    idx = site & btbmask
                    tag = site // btbdiv
                    if tags[idx] == tag:
                        code = 2
                    else:
                        tags[idx] = tag
                        bmiss += 1
                        code = 3
                else:
                    # Transcribes BimodalPredictor.predict_and_update plus
                    # Core.run's fetch-path use of its return value.
                    lookups += 1
                    idx = site & bmask
                    ctr = counters[idx]
                    pred = ctr >= 2
                    if taken:
                        if ctr < 3:
                            counters[idx] = ctr + 1
                    elif ctr > 0:
                        counters[idx] = ctr - 1
                    if pred != taken:
                        mispred += 1
                        code = 1
                    elif taken:
                        idx = site & btbmask
                        tag = site // btbdiv
                        if tags[idx] == tag:
                            code = 2
                        else:
                            tags[idx] = tag
                            bmiss += 1
                            code = 3
                if code:
                    ring[slot] = code
                    pos_idx.append(i)
                    pos_code.append(code)
            st.lookups = lookups
            st.mispredicts = mispred
            st.btb_misses = bmiss
        self.avail = start + m


def _charges(dsts: tuple[int, ...], vl: int,
             is_memory: bool) -> tuple[int, ...]:
    """SWAR charges of one row: ``(alloc, chk, smask, commit_full,
    commit_if, rel)``.

    A destination costs ``vl`` rename rows in the MED pool (at least
    one) and one row elsewhere; memory rows add an LSQ slot as field 4.
    """
    alloc = smask = if_sum = all_sum = rel = chk = 0
    mx: dict[int, int] = {}
    for d in dsts:
        p = d >> 8
        charge = vl if p == _MED and vl > 1 else 1
        sh = p << 4
        packed = charge << sh
        alloc += packed
        all_sum += packed
        if p < 2:
            if_sum += packed
        else:
            rel += packed
        smask |= _BIAS << sh
        if charge > mx.get(p, 0):
            mx[p] = charge
    for p, c in mx.items():
        chk += c << (p << 4)
    if is_memory:       # LSQ admission/occupancy as SWAR field 4
        lsq_bit = 1 << _LSQ_SHIFT
        alloc += lsq_bit
        chk += lsq_bit
        smask |= _BIAS << _LSQ_SHIFT
        if_sum += lsq_bit
        all_sum += lsq_bit
    return alloc, chk, smask, all_sum, if_sum, rel


class _LaneState:
    """Per-lane constants and end-of-run outputs for one stepper."""

    __slots__ = ("spec", "index", "width", "rob_size", "lsq_size",
                 "front_latency", "phys_limit", "acc_chaining",
                 "late_release", "zero_elision", "window",
                 "fu_busy", "fu_of", "scan", "lanes_of",
                 "fu_simple", "fu_total",
                 "pm", "mem_try", "mem_hint", "ctl_key", "accounting",
                 "committed", "cycles", "fetch_stalls", "rename_stalls",
                 "stack")

    def __init__(self, spec: LaneSpec, index: int) -> None:
        cfg = spec.config
        self.spec = spec
        self.index = index
        self.width = cfg.width
        self.rob_size = cfg.rob_size
        self.lsq_size = cfg.lsq_size
        self.front_latency = cfg.front_latency
        self.phys_limit = [cfg.phys_limit(pool) for pool in RegPool]
        self.acc_chaining = spec.acc_chaining
        self.late_release = spec.late_release
        self.zero_elision = spec.zero_idiom_elision
        need = cfg.rob_size + 2 * cfg.width
        self.window = 1 << (need - 1).bit_length()
        # One busy-horizon list per FU family, simple units first -- the
        # exact unit order FuPool scans, so first-free-wins matches.
        self.fu_busy = [[0] * cfg.int_units.total,
                        [0] * cfg.fp_units.total,
                        [0] * cfg.med_units.total]
        self.fu_simple = [cfg.int_units.simple, cfg.fp_units.simple,
                          cfg.med_units.simple]
        self.fu_total = [cfg.int_units.total, cfg.fp_units.total,
                         cfg.med_units.total]
        # Indexed by a record's scan index (family*2 + needs_complex):
        # the busy list, the unit subrange FuPool would scan, and the
        # family's lane (row-per-cycle) count.
        self.fu_of = [self.fu_busy[0], self.fu_busy[0],
                      self.fu_busy[1], self.fu_busy[1],
                      self.fu_busy[2], self.fu_busy[2]]
        self.scan = [range(0, self.fu_total[0]),
                     range(self.fu_simple[0], self.fu_total[0]),
                     range(0, self.fu_total[1]),
                     range(self.fu_simple[1], self.fu_total[1]),
                     range(0, self.fu_total[2]),
                     range(self.fu_simple[2], self.fu_total[2])]
        self.lanes_of = [1, 1, 1, 1, cfg.med_lanes, cfg.med_lanes]
        ms = spec.memsys
        self.pm = ms if type(ms) is PerfectMemory else None
        self.mem_try = ms.try_issue
        self.mem_hint = getattr(ms, "earliest_issue", None)
        self.ctl_key = (cfg.bimodal_entries, cfg.btb_entries)
        self.accounting = spec.accounting
        self.committed = 0        # read by BatchCore.run's retention check
        self.cycles = 0
        self.fetch_stalls = 0
        self.rename_stalls = 0
        self.stack = None         # CPI-stack dict when accounting is on


def _lane_stepper(ls: _LaneState, shared: _SharedDecode):
    """One lane's event loop over the shared decode stream.

    A generator transcription of :meth:`Core.run` -- identical phase
    order (release, commit, wake, issue, dispatch, fetch, horizon),
    identical scheduling disciplines and identical stall accounting --
    over ring-buffered plain-int state instead of per-instruction
    objects.  Heap entries are packed ints (``cycle << 32 | index``,
    same lexicographic order as Core's ``(cycle, seq)`` tuples), the
    ready list is kept sorted instead of heapified (nothing is ever
    inserted mid-walk: every wakeup computed during issue lands strictly
    after ``cycle``), register/LSQ accounting is one SWAR word, and
    fetch advances per *group* (bounded by the shared nonzero-control
    positions) rather than per instruction.

    It ``yield``\\ s whenever fetch could outrun the decoded prefix; the
    driver decodes the next block and resumes every paused lane.
    Pausing is timing-transparent: the lane resumes inside the same
    simulated cycle with more records visible.
    """
    n = shared.n
    gmask = shared.mask
    g_deps = shared.deps
    g_chains = shared.chains
    g_ismem = shared.ismem
    ctl = shared.ctl[ls.ctl_key]
    g_ctl = ctl.ring
    pos_idx = ctl.pos_idx
    pos_code = ctl.pos_code
    g_op = shared.op_ac if ls.acc_chaining else shared.op_raw
    zel = ls.zero_elision
    g_alloc = shared.alloc_z if zel else shared.alloc_raw
    g_chk = shared.chk
    g_smask = shared.smask_z if zel else shared.smask_raw
    if ls.late_release:
        g_rel = shared.rel_z if zel else shared.rel_raw
        g_commit = shared.commit_if_z if zel else shared.commit_if_raw
    else:
        g_rel = shared.zero_ring
        g_commit = shared.commit_full_z if zel else shared.commit_full_raw
    heappush = heapq.heappush
    heappop = heapq.heappop

    width = ls.width
    rob_size = ls.rob_size
    front_latency = ls.front_latency
    fqcap = 2 * width
    redirect = Core.MISPREDICT_REDIRECT

    fu_of = ls.fu_of
    scan = ls.scan
    lanes_of = ls.lanes_of
    fu_simple = ls.fu_simple
    busy_int = ls.fu_busy[0]
    fu_busy = ls.fu_busy

    pm = ls.pm
    if pm is not None:
        portset = pm.portset
        pm_busy = portset.busy_until
        pm_ports = len(pm_busy)
        pm_lat = pm.latency
        pm_slots = pm_ports * portset.port_width
        pm_scalar = portset.scalar_accesses
        pm_vector = portset.vector_accesses
        pm_elem = portset.element_accesses
        mem_try = mem_hint = None
    else:
        pm_busy = None
        mem_try = ls.mem_try
        mem_hint = ls.mem_hint

    W = ls.window
    wmask = W - 1
    e_completion = [0] * W
    e_chain = [0] * W
    e_pending = [0] * W
    e_base = [0] * W
    e_waiters: list[list[int]] = [[] for _ in range(W)]

    #: SWAR headroom word: field p holds (limit[p] - inflight[p]) + bias
    #: for the four register pools; field 4 is the LSQ.
    limits = ls.phys_limit
    D = sum((limits[p] + _BIAS) << (p << 4) for p in range(len(limits)))
    D += (ls.lsq_size + _BIAS) << _LSQ_SHIFT
    releases: list[int] = []            # completion << 80 | packed charges
    issuable: list[int] = []            # indices, sorted descending
    wakeups: list[int] = []             # heap of ready << 32 | index
    wakeups_next: list[int] = []
    parked: list[int] = []              # heap of retry << 32 | index
    waiting = 0                         # entries registered on producers

    #: fetch groups: each fetch cycle appends ``end_index << 32 |
    #: (cycle + front_latency)``; dispatch consumes them in order.  The
    #: queue never holds more than the fetch-queue cap of instructions.
    bursts: deque[int] = deque()
    bq_append = bursts.append
    bq_popleft = bursts.popleft
    burst_end = 0
    front_ready = 0
    cp = 0                              # cursor into pos_idx / pos_code

    fetch_idx = 0
    disp_idx = 0
    committed = 0
    cycle = 0
    next_fetch_cycle = 0
    fetch_stalls = 0
    rename_stalls = 0
    # CPI-stack accumulators; cbase/disp_before feed the classifier's
    # commits-this-cycle and head-age tests (same rules as Core.run).
    accounting = ls.accounting
    st_base = st_fetch = st_rename = st_fu = 0
    st_memc = st_meml = st_drain = 0
    pm_acct_n = 0
    pm_acct_occ = 0
    avail = shared.avail
    #: pause guard: fetch may proceed while ``fetch_idx <= aw``; decode
    #: appends to ``pos_idx`` only while this lane is paused, so its
    #: length is refreshed at the same points.
    aw = avail - width if avail < n else n
    npos = len(pos_idx)

    while committed < n:
        while fetch_idx > aw:
            ls.committed = committed
            yield
            avail = shared.avail
            aw = avail - width if avail < n else n
            npos = len(pos_idx)

        cycle += 1

        # --- release late-freed physical registers --------------------------
        while releases and (releases[0] >> 80) <= cycle:
            D += heappop(releases) & _M80

        # --- commit ---------------------------------------------------------
        cbase = committed
        lim = committed + width
        if disp_idx < lim:
            lim = disp_idx
        while committed < lim:
            if e_completion[committed & wmask] > cycle:
                break
            D += g_commit[committed & gmask]
            committed += 1
        if committed >= n:
            if accounting:
                if committed - cbase == width:
                    st_base += 1
                else:
                    st_drain += 1
            break

        # --- wake -----------------------------------------------------------
        dirty = False
        if wakeups_next:
            issuable += wakeups_next
            del wakeups_next[:]
            dirty = True
        while wakeups and (wakeups[0] >> 32) <= cycle:
            issuable.append(heappop(wakeups) & _M32)
            dirty = True
        while parked and (parked[0] >> 32) <= cycle:
            issuable.append(heappop(parked) & _M32)
            dirty = True
        if dirty and len(issuable) > 1:
            issuable.sort(reverse=True)     # pop() takes the oldest

        # --- issue: oldest-first among ready entries ------------------------
        issued = 0
        next_cycle = cycle + 1
        while issuable and issued < width:
            i = issuable.pop()
            gs = i & gmask
            op = g_op[gs]
            if type(op) is int:             # fast compute: 1 row, pipelined
                sidx = op & 7
                busy = fu_of[sidx]
                completion = None
                for u in scan[sidx]:
                    if busy[u] <= cycle:
                        busy[u] = next_cycle
                        completion = cycle + (op >> 3)
                        break
                if completion is None:
                    hint = min(busy[fu_simple[sidx >> 1]:]) if sidx & 1 \
                        else min(busy)
                    heappush(
                        parked,
                        ((hint if hint > cycle else next_cycle) << 32) | i)
                    continue
                ws = i & wmask
                e_completion[ws] = completion
                e_chain[ws] = completion
            else:
                kind, sidx, _fast, rows, lat, nonpip, chmode, vl, minstr = op
                completion = None
                if kind == 0:               # multi-row / non-pipelined
                    busy = fu_of[sidx]
                    for u in scan[sidx]:
                        if busy[u] <= cycle:
                            occ = -(-rows // lanes_of[sidx])
                            if nonpip and occ < lat:
                                occ = lat
                            if occ < 1:
                                occ = 1
                            busy[u] = cycle + occ
                            completion = cycle + occ - 1 + lat
                            break
                elif kind == 1:             # memory
                    if pm_busy is not None:
                        if vl > 1:
                            for b in pm_busy:
                                if b > cycle:
                                    break
                            else:
                                occ = -(-vl // pm_slots)
                                if occ < 1:
                                    occ = 1
                                until = cycle + occ
                                for p in range(pm_ports):
                                    pm_busy[p] = until
                                pm_vector += 1
                                pm_elem += vl
                                completion = cycle + occ - 1 + pm_lat
                                pm_acct_n += 1
                                pm_acct_occ += completion - cycle
                        else:
                            for p in range(pm_ports):
                                if pm_busy[p] <= cycle:
                                    pm_busy[p] = next_cycle
                                    pm_scalar += 1
                                    pm_elem += 1
                                    completion = cycle + pm_lat
                                    pm_acct_n += 1
                                    pm_acct_occ += pm_lat
                                    break
                    else:
                        completion = mem_try(minstr, cycle)
                elif kind == 2:             # control: simple integer pipe
                    for u in range(len(busy_int)):
                        if busy_int[u] <= cycle:
                            busy_int[u] = next_cycle
                            completion = next_cycle
                            break
                else:                       # nop
                    completion = next_cycle
                if completion is None:
                    # Structural hazard: park until the resource's
                    # earliest possible free cycle (Core._retry_cycle).
                    if kind == 1:
                        if pm_busy is not None:
                            hint = max(pm_busy) if vl > 1 else min(pm_busy)
                        else:
                            hint = mem_hint(minstr, cycle) if mem_hint \
                                else cycle
                    elif kind == 2:
                        hint = min(busy_int)
                    else:
                        busy = fu_of[sidx]
                        hint = min(busy[fu_simple[sidx >> 1]:]) if sidx & 1 \
                            else min(busy)
                    heappush(
                        parked,
                        ((hint if hint > cycle else next_cycle) << 32) | i)
                    continue
                ws = i & wmask
                e_completion[ws] = completion
                if chmode == 0:
                    e_chain[ws] = completion
                elif chmode == 1:
                    early = completion - vl + 1
                    e_chain[ws] = early if early > next_cycle else next_cycle
                else:
                    first = cycle + lat
                    e_chain[ws] = completion if completion < first else first
                if kind == 2 and g_ctl[gs] == 1:
                    next_fetch_cycle = completion + redirect
            issued += 1
            rel = g_rel[gs]
            if rel:
                heappush(releases, (completion << 80) | rel)
            if waiting:
                waiters = e_waiters[ws]
                if waiters:
                    waiting -= len(waiters)
                    chain = e_chain[ws]
                    for w in waiters:
                        wws = w & wmask
                        p = e_pending[wws] - 1
                        e_pending[wws] = p
                        avail_w = chain if g_chains[w & gmask] else completion
                        if avail_w > e_base[wws]:
                            e_base[wws] = avail_w
                        if p == 0:
                            ready = e_base[wws]
                            if ready == next_cycle:
                                wakeups_next.append(w)
                            elif ready <= cycle:
                                # Unreachable (results land after `cycle`);
                                # kept for strict equivalence with Core.
                                issuable.append(w)
                                issuable.sort(reverse=True)
                            else:
                                heappush(wakeups, (ready << 32) | w)
                    del waiters[:]

        # --- dispatch: fetch queue -> ROB (rename + allocate) ---------------
        # The three bounds (fetch frontier, dispatch width, ROB room) are
        # all fixed for the duration of the phase, so fold them into one.
        disp_before = disp_idx
        admission_blocked = False
        dlim = disp_idx + width
        if fetch_idx < dlim:
            dlim = fetch_idx
        rcap = committed + rob_size
        if rcap < dlim:
            dlim = rcap
        while disp_idx < dlim:
            if disp_idx >= burst_end:
                v = bq_popleft()
                burst_end = v >> 32
                front_ready = v & _M32
            if front_ready > cycle:
                break
            gs = disp_idx & gmask
            sm = g_smask[gs]
            if sm:
                if ((D - g_chk[gs]) & sm) != sm:
                    # Admission failed: LSQ-full breaks silently (a
                    # commit will free it); a register shortfall is a
                    # rename stall, exactly Core's check order.
                    admission_blocked = True
                    if (g_ismem[gs]
                            and ((D >> _LSQ_SHIFT) & 0xffff) <= _BIAS):
                        break
                    rename_stalls += 1
                    break
                D -= g_alloc[gs]
            i = disp_idx
            disp_idx += 1
            ws = i & wmask
            e_completion[ws] = _UNISSUED
            deps = g_deps[gs]
            if deps is None:
                wakeups_next.append(i)      # ready at dispatch + 1
                continue
            pending = 0
            base = next_cycle
            chaining = g_chains[gs]
            for j in deps:
                if j >= committed:          # producer still in flight
                    js = j & wmask
                    c = e_completion[js]
                    if c != _UNISSUED:
                        avail_d = e_chain[js] if chaining else c
                        if avail_d > base:
                            base = avail_d
                    else:
                        e_waiters[js].append(i)
                        pending += 1
            if pending:
                e_pending[ws] = pending
                e_base[ws] = base
                waiting += pending
            elif base == next_cycle:
                wakeups_next.append(i)
            else:
                heappush(wakeups, (base << 32) | i)

        # --- fetch: one group, stopping at the next taken branch ------------
        if cycle >= next_fetch_cycle:
            if fetch_idx < n:
                stop = fetch_idx + width
                if stop > n:
                    stop = n
                cap_stop = disp_idx + fqcap
                if stop > cap_stop:
                    stop = cap_stop
                if stop > fetch_idx:
                    if cp < npos and pos_idx[cp] < stop:
                        fetch_idx = pos_idx[cp] + 1
                        code = pos_code[cp]
                        cp += 1
                        if code == 1:
                            next_fetch_cycle = _FAR_FUTURE
                        elif code == 2:
                            next_fetch_cycle = next_cycle
                        else:
                            next_fetch_cycle = cycle + 2
                    else:
                        fetch_idx = stop
                    bq_append((fetch_idx << 32) | (cycle + front_latency))
        elif fetch_idx < n:
            fetch_stalls += 1

        # --- account: same end-of-cycle classification as Core.run ----------
        # Head index is `committed`; dispatched-this-cycle is
        # `committed >= disp_before` (the dispatch_cycle test without a
        # per-entry field).
        if accounting:
            if committed - cbase == width:
                st_base += 1
            elif committed < disp_idx:
                hc = e_completion[committed & wmask]
                if hc != _UNISSUED:
                    if g_ismem[committed & gmask] and hc > next_cycle:
                        st_meml += 1
                    elif admission_blocked:
                        st_rename += 1
                    else:
                        st_base += 1
                elif committed < disp_before:
                    if g_ismem[committed & gmask]:
                        st_memc += 1
                    elif admission_blocked:
                        st_rename += 1
                    else:
                        st_fu += 1
                elif admission_blocked:
                    st_rename += 1
                else:
                    st_base += 1
            elif fetch_idx >= n:
                st_drain += 1
            else:
                st_fetch += 1

        # --- horizon: first future cycle at which anything can happen -------
        if issuable or wakeups_next:
            continue
        nxt = _NO_EVENT
        if committed < disp_idx:
            hc = e_completion[committed & wmask]
            if hc != _UNISSUED:
                nxt = hc if hc > cycle else next_cycle
        if parked:
            retry = parked[0] >> 32
            if retry < nxt:
                nxt = retry
        if wakeups:
            ready = wakeups[0] >> 32
            if ready <= cycle:
                ready = next_cycle
            if ready < nxt:
                nxt = ready
        rename_blocked = False
        lsq_blocked = False
        if disp_idx < fetch_idx and disp_idx - committed < rob_size:
            if disp_idx >= burst_end:
                v = bq_popleft()
                burst_end = v >> 32
                front_ready = v & _M32
            if front_ready > cycle:
                if front_ready < nxt:
                    nxt = front_ready
            else:
                gs = disp_idx & gmask
                sm = g_smask[gs]
                if sm and ((D - g_chk[gs]) & sm) != sm:
                    if (g_ismem[gs]
                            and ((D >> _LSQ_SHIFT) & 0xffff) <= _BIAS):
                        # A commit frees the LSQ; commits are events.
                        lsq_blocked = True
                    else:
                        rename_blocked = True
                        if releases:
                            rel_at = releases[0] >> 80
                            if rel_at < nxt:
                                nxt = rel_at
                elif next_cycle < nxt:
                    nxt = next_cycle
        if (fetch_idx < n and fetch_idx - disp_idx < fqcap
                and next_fetch_cycle != _FAR_FUTURE):
            fetch_at = next_fetch_cycle if next_fetch_cycle > cycle \
                else next_cycle
            if fetch_at < nxt:
                nxt = fetch_at
        if nxt >= _NO_EVENT:
            raise RuntimeError(
                "batch lane deadlocked with no pending event "
                f"(lane {ls.index}, cycle {cycle}, {committed}/{n})")
        skipped = nxt - next_cycle
        if skipped > 0:
            if fetch_idx < n and next_fetch_cycle > next_cycle:
                stop = nxt if nxt < next_fetch_cycle else next_fetch_cycle
                fetch_stalls += stop - next_cycle
            if rename_blocked:
                rename_stalls += skipped
            if accounting:
                # Frozen-state span replay of the per-cycle rules; the
                # only in-span transition is the head's memory completion
                # landing exactly on `nxt` (see Core.run).
                adm = rename_blocked or lsq_blocked
                if committed < disp_idx:
                    hc = e_completion[committed & wmask]
                    if hc != _UNISSUED:
                        if g_ismem[committed & gmask]:
                            st_meml += skipped
                            if hc == nxt:
                                st_meml -= 1
                                if adm:
                                    st_rename += 1
                                else:
                                    st_base += 1
                        elif adm:
                            st_rename += skipped
                        else:
                            st_base += skipped
                    elif g_ismem[committed & gmask]:
                        st_memc += skipped
                    elif adm:
                        st_rename += skipped
                    else:
                        st_fu += skipped
                elif fetch_idx >= n:
                    st_drain += skipped
                else:
                    st_fetch += skipped
            cycle = nxt - 1     # the loop header re-increments

    ls.committed = committed
    ls.cycles = cycle
    ls.fetch_stalls = fetch_stalls
    ls.rename_stalls = rename_stalls
    if accounting:
        ls.stack = {
            "base": st_base, "fetch": st_fetch, "rename": st_rename,
            "fu_structural": st_fu, "mem_conflict": st_memc,
            "mem_latency": st_meml, "drain": st_drain}
    if pm is not None:
        portset.scalar_accesses = pm_scalar
        portset.vector_accesses = pm_vector
        portset.element_accesses = pm_elem
        pm.acct_accesses += pm_acct_n
        pm.acct_occupancy += pm_acct_occ


class BatchCore:
    """Run N configuration lanes over one trace in a single decode pass.

    Every lane's :class:`SimResult` is bit-identical to what
    ``Core(lane.config, lane.memsys, **knobs).run(trace)`` returns on a
    fresh core -- the golden-digest parity suite pins this.

    Args:
        lanes: :class:`LaneSpec` sequence (or ``(config, memsys)`` pairs,
            promoted with default knobs).  Order is preserved in
            :meth:`run`'s result list.
    """

    #: Records decoded per pause-resume round.  The shared rings hold
    #: two blocks, so a lane may trail the decode frontier by up to one
    #: whole block (its live window is only ``rob + 2*width`` anyway).
    BLOCK = 1 << 16
    RING = 1 << 17

    def __init__(self, lanes) -> None:
        specs: list[LaneSpec] = []
        for lane in lanes:
            if not isinstance(lane, LaneSpec):
                lane = LaneSpec(lane[0], lane[1])
            specs.append(lane)
        if not specs:
            raise ValueError("BatchCore needs at least one lane")
        for lane in specs:
            cfg = lane.config
            for entries in (cfg.bimodal_entries, cfg.btb_entries):
                if entries <= 0 or entries & (entries - 1):
                    raise UnbatchableError(
                        "predictor tables must be powers of two")
            if not hasattr(lane.memsys, "try_issue"):
                raise UnbatchableError(
                    f"memory model {type(lane.memsys).__name__} lacks "
                    "try_issue")
        self.lanes = specs

    def run(self, trace: Trace,
            phases: dict | None = None) -> list[SimResult]:
        """Simulate every lane to completion; results in lane order.

        ``phases``, when given, accumulates decode/step/writeback
        wall-clock seconds across the whole group (shared decode plus
        every lane), timed at decode-block granularity.
        """
        lanes = self.lanes
        n = len(trace)
        operations = trace.operation_count()

        # Identical perfect-memory lanes collapse onto one representative
        # simulation -- true lane lockstep.  share[i] is i for
        # representatives, else the index of the lane it mirrors.
        share = list(range(len(lanes)))
        rep_of: dict = {}
        for idx, lane in enumerate(lanes):
            key = lane.dedup_key()
            if key is None:
                continue
            if key in rep_of:
                share[idx] = rep_of[key]
            else:
                rep_of[key] = idx
        reps = [i for i in range(len(lanes)) if share[i] == i]

        if n == 0:
            empty = {name: 0 for name in ("base", "fetch", "rename",
                                          "fu_structural", "mem_conflict",
                                          "mem_latency", "drain")}
            return [self._result(
                lane, 0, 0, 0, None, 0, operations=operations,
                stack=empty if lane.accounting else None) for lane in lanes]

        _t = _perf_counter()
        _decode_t = 0.0
        _step_t = 0.0
        states = [_LaneState(lanes[i], i) for i in reps]
        dep_cap = max(st.rob_size for st in states)
        shared = _SharedDecode(trace, dep_cap,
                               {st.ctl_key for st in states},
                               self.BLOCK, self.RING)
        _decode_t += _perf_counter() - _t

        steppers = [_lane_stepper(st, shared) for st in states]
        active = []
        for gen in steppers:
            try:
                next(gen)
                active.append(gen)
            except StopIteration:
                pass

        was_enabled = gc.isenabled()
        gc.disable()
        try:
            while active:
                if shared.avail < n:
                    if shared.avail >= shared.size:
                        # About to overwrite the oldest ring block: every
                        # lane must have retired past it (lanes pause at
                        # the decode frontier, so their live windows all
                        # hug it; this is the safety net for that proof).
                        m = min(self.BLOCK, n - shared.avail)
                        floor = shared.avail + m - shared.size
                        cmin = min(st.committed for st in states)
                        if cmin < floor:
                            raise RuntimeError(
                                "batch ring retention violated: lane "
                                f"committed {cmin} < floor {floor}")
                    _t = _perf_counter()
                    shared.decode_block()
                    _decode_t += _perf_counter() - _t
                _t = _perf_counter()
                still = []
                for gen in active:
                    try:
                        next(gen)
                        still.append(gen)
                    except StopIteration:
                        pass
                active = still
                _step_t += _perf_counter() - _t
        finally:
            if was_enabled:
                gc.enable()

        _t = _perf_counter()
        by_rep = {st.index: st for st in states}
        results: list[SimResult] = []
        for idx, lane in enumerate(lanes):
            rep = share[idx]
            st = by_rep[rep]
            results.append(self._result(
                lane, st.cycles, st.fetch_stalls, st.rename_stalls,
                shared.ctl[st.ctl_key], n, mirrored=rep != idx,
                stats_of=lanes[rep], operations=operations,
                stack=st.stack))
        if phases is not None:
            phases["decode"] = phases.get("decode", 0.0) + _decode_t
            phases["step"] = phases.get("step", 0.0) + _step_t
            phases["writeback"] = (phases.get("writeback", 0.0)
                                   + _perf_counter() - _t)
        return results

    @staticmethod
    def _result(lane: LaneSpec, cycles: int, fetch_stalls: int,
                rename_stalls: int, ctl, n: int, *,
                mirrored: bool = False, stats_of: LaneSpec | None = None,
                operations: int | None = None,
                stack: dict | None = None) -> SimResult:
        source = (stats_of or lane).memsys
        mem_stats = source.stats() if hasattr(source, "stats") else {}
        result = SimResult(
            cycles=cycles,
            instructions=n,
            operations=operations if operations is not None else 0,
            branch_lookups=ctl.lookups if ctl is not None else 0,
            branch_mispredicts=ctl.mispredicts if ctl is not None else 0,
            btb_misses=ctl.btb_misses if ctl is not None else 0,
            fetch_stall_cycles=fetch_stalls,
            rename_stall_events=rename_stalls,
            mem_stats=dict(mem_stats),
        )
        if stack is not None:
            # Mirrored lanes replicate the representative's stack verbatim
            # (they are the same simulation); conservation is re-checked
            # per result either way.
            result.stack = checked_stack(cycles, TimingStats(**stack))
            if hasattr(source, "accounting_stats"):
                result.meta["mem_accounting"] = source.accounting_stats()
        if mirrored:
            result.meta["batch_mirrored"] = True
        return result
