"""SQL builders for the DuckDB correctness oracle.

``seq_count_sql`` renders COUNT(*) event sequence aggregation
(Definitions 1-2) as an l-way self-join over a window-exploded event
table — the declarative ground truth every executor is diffed against
via :func:`repro.oracle.assert_equivalent`. The join keeps strict time
ordering and same-(wid, key) membership, so it is exactly the two-step
semantics an engine must agree with.
"""
from __future__ import annotations


def seq_count_sql(pattern: tuple[str, ...], *, qid: int | None = None) -> str:
    """n-way self-join counting sequences per (wid, key) of table ``ev``.

    Output columns: [qid,] wid, key, cnt — ``cnt`` is DuckDB's BIGINT
    ``COUNT(*)``, the engines' ``long``. Groups with zero matches produce
    no row, as the engines emit only nonzero counts.
    """
    l = len(pattern)
    froms = ", ".join(f"ev e{i}" for i in range(l))
    conds = [f"e{i}.type = '{pattern[i]}'" for i in range(l)]
    conds += [f"e{i}.time < e{i + 1}.time" for i in range(l - 1)]
    conds += [f"e{i}.wid = e0.wid AND e{i}.key = e0.key" for i in range(1, l)]
    qid_col = f"{qid} AS qid, " if qid is not None else ""
    return (
        f"SELECT {qid_col}e0.wid AS wid, e0.key AS key, "
        f"COUNT(*) AS cnt "
        f"FROM {froms} WHERE {' AND '.join(conds)} "
        f"GROUP BY e0.wid, e0.key"
    )


def workload_count_sql(patterns: dict[int, tuple[str, ...]]) -> str:
    """UNION ALL of :func:`seq_count_sql` per query: (qid, wid, key, cnt)."""
    return " UNION ALL ".join(
        seq_count_sql(p, qid=qid) for qid, p in sorted(patterns.items())
    )
