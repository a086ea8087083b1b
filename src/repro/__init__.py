"""repro: reproduction of "Exploiting a New Level of DLP in Multimedia
Applications" (MICRO 1999) -- the MOM matrix-oriented multimedia ISA.

Public API highlights:

* :mod:`repro.core` -- the MOM ISA, matrix registers and accumulators.
* :mod:`repro.emulib` -- per-ISA emulation libraries (functional execution
  plus dynamic-trace capture).
* :mod:`repro.cpu` -- the trace-driven out-of-order superscalar model.
* :mod:`repro.memsys` -- cache hierarchy models including the vector and
  collapsing-buffer caches.
* :mod:`repro.kernels` -- the eight multimedia kernels in all four ISAs.
* :mod:`repro.apps` -- Mediabench-like applications.
* :mod:`repro.eval` -- drivers regenerating every table and figure.
"""

__version__ = "1.9.0"

from .core.matrix import MomRegister
from .core.accumulator import PackedAccumulator, PipelinedAccumulation
from .emulib.memory import Memory
from .emulib.trace import DynInstr, Trace
from .emulib.alpha_builder import AlphaBuilder
from .emulib.mmx_builder import MmxBuilder
from .emulib.mdmx_builder import MdmxBuilder
from .emulib.mom_builder import MomBuilder

__all__ = [
    "MomRegister",
    "PackedAccumulator",
    "PipelinedAccumulation",
    "Memory",
    "DynInstr",
    "Trace",
    "AlphaBuilder",
    "MmxBuilder",
    "MdmxBuilder",
    "MomBuilder",
    "__version__",
]
