"""Golden copies of the three published value tables, plus cell-by-cell verification.

The expected strings are embedded so the tool can referee its own output:
a verification run recomputes every cell with certified intervals and
compares the rendered decimals character by character.
"""

from __future__ import annotations

from typing import List, NamedTuple

from . import density
from .numeric import Interval

# greedy-set density, 6 decimals
TABLE1 = {
    2: "0.648361",
    3: "0.747027",
    4: "0.799231",
    5: "0.833069",
    7: "0.874948",
    8: "0.888862",
    9: "0.899985",
    25: "0.961538",
    27: "0.964286",
    49: "0.980000",
    125: "0.992063",
    343: "0.997093",
}

# lower bound m_q, 6 decimals except the published 5-digit q=5 cell
TABLE2 = {
    2: ("0.845398", 6),
    3: ("0.921858", 6),
    4: ("0.952152", 6),
    5: ("0.96768", 5),
    7: ("0.982448", 6),
    8: ("0.986298", 6),
    9: ("0.989009", 6),
    25: ("0.998464", 6),
    27: ("0.998679", 6),
    49: ("0.999592", 6),
    125: ("0.999937", 6),
    343: ("0.999992", 6),
}

# (simple upper bound, sharper upper bound, lower bound), 9 decimals
TABLE3 = {
    2: ("0.857142857", "0.846375541", "0.845397956"),
    3: ("0.923076923", "0.921925273", "0.921857532"),
    4: ("0.952380952", "0.952160653", "0.952152070"),
    5: ("0.967741935", "0.967682134", "0.967680495"),
    7: ("0.982456140", "0.982447941", "0.982447814"),
    8: ("0.986301370", "0.986297660", "0.986297615"),
    9: ("0.989010989", "0.989009149", "0.989009131"),
    11: ("0.992481203", "0.992480647", "0.992480643"),
    13: ("0.994535519", "0.994535314", "0.994535313"),
    16: ("0.996336996", "0.996336937", "0.996336937"),
    17: ("0.996742671", "0.996742630", "0.996742630"),
    19: ("0.997375328", "0.997375307", "0.997375307"),
    23: ("0.998191682", "0.998191675", "0.998191675"),
    25: ("0.998463902", "0.998463898", "0.998463898"),
}


class CellResult(NamedTuple):
    q: int
    column: str
    expected: str
    computed: str
    ok: bool
    interval: Interval


def _cell(expected: str, report: density.DensityReport) -> CellResult:
    """The cell of column `report.kind` in row `report.q`."""
    ok = report.rendered == expected
    return CellResult(report.q, report.kind, expected, report.rendered, ok, report.interval())


def verify_table(which: int) -> List[CellResult]:
    """Recompute one table; returns one result per cell in publication order."""
    out = []
    if which == 1:
        for q, expected in TABLE1.items():
            out.append(_cell(expected, density.greedy_density(q, 6)))
    elif which == 2:
        for q, (expected, digits) in TABLE2.items():
            out.append(_cell(expected, density.lower_bound_mq(q, digits)))
    elif which == 3:
        for q, (simple, no, lower) in TABLE3.items():
            out.append(_cell(simple, density.certify("upper_simple", q, 9)))
            out.append(_cell(no, density.upper_bound_no(q, 9)))
            out.append(_cell(lower, density.lower_bound_mq(q, 9)))
    else:
        raise ValueError(f"no table {which}; choose 1, 2 or 3")
    return out

