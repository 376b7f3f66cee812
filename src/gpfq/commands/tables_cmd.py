"""`gpfq tables`: verify a published table cell by cell."""

import sys
import time

from ..cli import _JSON, _arg, tables

ARGUMENTS = [
    _arg("--which", type=int, choices=[1, 2, 3], required=True),
    _JSON,
]


def handle(parser, args):
    start = time.monotonic()
    cells = tables.verify_table(args.which)
    print(f"table {args.which} verified in {time.monotonic() - start:.2f}s", file=sys.stderr)
    all_pass = all(c.ok for c in cells)
    lines = [
        f"q={c.q} {c.column} expected={c.expected} computed={c.computed} "
        + ("PASS" if c.ok else f"FAIL interval=[{c.interval.lo}, {c.interval.hi}]")
        for c in cells
    ]
    lines.append(f"{sum(c.ok for c in cells)}/{len(cells)} cells PASS")
    rows = [{key: getattr(c, key) for key in ("q", "column", "expected", "computed", "ok")} for c in cells]
    return (0 if all_pass else 1), lines, {"which": args.which, "all_pass": all_pass, "cells": rows}
