"""The Relational Memory Engine — the paper's contribution (Figure 5).

The engine sits in the programmable logic between the CPU and main memory.
Its six modules are modelled one-to-one:

* :mod:`repro.rme.geometry` — the configuration port (Table 1, one
  ``(O, C)`` pair per run) and the request-descriptor equations (1)-(6).
* :mod:`repro.rme.requestor` — walks the table geometry and emits one
  descriptor per row and run.
* :mod:`repro.rme.fetch_unit` — Reader / Column Extractor / Writer; pulls
  the useful bytes of each row out of DRAM.
* :mod:`repro.rme.reorg_buffer` — the data and metadata scratch-pad
  memories (BRAM) holding the packed column-group.
* :mod:`repro.rme.monitor_bypass` — tracks which packed cache lines are
  complete and wakes stalled requests.
* :mod:`repro.rme.trapper` — intercepts CPU reads to ephemeral addresses
  and answers them (immediately on a buffer hit, after the fetch pipeline
  catches up on a miss).
* :mod:`repro.rme.engine` — wires everything together.
* :mod:`repro.rme.designs` — the BSL / PCK / MLP hardware revisions of
  Section 5.2.
* :mod:`repro.rme.resources` — the FPGA area/timing/power estimator that
  regenerates the structure of Table 3.
"""

from .designs import BSL, MLP, PCK, DesignParams, design_by_name
from .engine import RMEngine
from .geometry import TableGeometry
from .descriptors import RequestDescriptor
from .pushdown import HWAggregation, HWGroupBy, HWJoinFilter, HWSelection
from .resources import ResourceReport, estimate_resources

__all__ = [
    "RMEngine",
    "TableGeometry",
    "HWSelection",
    "HWAggregation",
    "HWGroupBy",
    "HWJoinFilter",
    "RequestDescriptor",
    "DesignParams",
    "BSL",
    "PCK",
    "MLP",
    "design_by_name",
    "ResourceReport",
    "estimate_resources",
]
