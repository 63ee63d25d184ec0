"""Access paths: the ways a query can reach its column group.

* ``DIRECT_ROW`` — scan the row-oriented base table in main memory,
  touching one group-width element per row at row-size stride (the
  "Direct Access" baseline of Figure 6).
* ``COLUMNAR`` — scan a materialised column-store copy (the "Columnar
  Access" baseline): packed data, but it only exists because someone paid
  to build and maintain the copy.
* ``RME`` — scan the ephemeral variable through the Relational Memory
  Engine: packed data that never exists in DRAM. Cold or hot is *state*
  (is the reorganization buffer filled?), not a separate path.
* ``INDEX`` — probe a B+-tree on the row-store and fetch only the
  qualifying rows (Section 4: indexes stay useful "when we have a very
  selective query").
* ``PIM`` — evaluate the predicate inside the DRAM banks themselves
  (bank-level processing-in-memory): each bank filters its local rows
  into a selection bitmap and only bitmaps or aggregate register lines
  cross the AXI boundary. The fourth peer of the shootout.
"""

from __future__ import annotations

from enum import Enum


class AccessPath(Enum):
    """How a scan reaches its data."""

    DIRECT_ROW = "direct_row"
    COLUMNAR = "columnar"
    RME = "rme"
    INDEX = "index"
    PIM = "pim"

