"""Output checks: every timed result is compared, outside the timer,
with a reference, and each comparison counts as one attempted operation.
"""
from __future__ import annotations

import sys
import traceback

import duckdb
import numpy as np
import pandas as pd

from repro.oracle_sql import workload_count_sql
from repro.runtime.sharon import run_plan_pandas
from repro.runtime.windows import explode_windows_pandas

# Event-time seconds of stream checked against DuckDB's l-way self-join;
# longer slices make the length-10 joins of shared_core blow up.
ORACLE_SPAN = 120

Counts = tuple[np.ndarray, np.ndarray]


def canon(counts: pd.DataFrame) -> Counts:
    """(wid, key, qid) keys and counts, in key order, for exact comparison."""
    c = counts.sort_values(["wid", "key", "qid"], kind="stable")
    keys = c[["wid", "key", "qid"]].to_numpy(np.int64)
    return keys, c["cnt"].to_numpy(np.float64)


def same(a: Counts, b: Counts) -> bool:
    return (
        a[0].shape == b[0].shape
        and bool((a[0] == b[0]).all())
        and bool((a[1] == b[1]).all())
    )


class Tally:
    """Attempted and failed operations of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"[perfbench] FAILED: {what}", file=sys.stderr)

    def crashed(self, what: str) -> None:
        """Count an operation that raised; called from an except block."""
        traceback.print_exc(file=sys.stderr)
        self.record(f"{what} raised", False)


def oracle_check(inputs, plan, tally: Tally) -> None:
    """Diff both twin engines against DuckDB on the stream's first
    ``ORACLE_SPAN`` seconds (the executors' ground truth)."""
    wl = inputs.workload
    head = inputs.events[inputs.events["time"] < ORACLE_SPAN]
    ev = explode_windows_pandas(head, within=inputs.within, slide=inputs.slide)
    sql = workload_count_sql({q.qid: q.pattern for q in wl})
    con = duckdb.connect()
    try:
        con.register("ev", ev)
        expected = canon(con.execute(sql).fetchdf())
    finally:
        con.close()
    for engine, p in (("sharon", plan), ("aseq", None)):
        got = canon(run_plan_pandas(head, wl, p)[0])
        tally.record(f"{engine} twin vs DuckDB oracle", same(got, expected))
