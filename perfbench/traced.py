"""Per-layer metrics, from a traced run.

The traced run rebuilds the optimizer and the driver-local twin from
their layers' public functions, timing a span around each call:

- optimizer: ``sharable_patterns`` -> ``build_graph`` -> ``expand_graph``
  -> ``guaranteed_weight`` -> ``reduce_graph`` ->
  ``find_optimal_plan_decomposed`` (what ``sharon_optimizer`` runs);
- twin: ``explode_windows_pandas`` -> the ``(wid, key)`` split ->
  ``SharedCache`` (the ``TypeIndex``) -> ``eval_query`` per query (what
  ``run_plan_pandas`` runs).

Both rebuilds are checked against the untraced calls. Spark's own stage
statistics come from its status store, per job group; the streaming
figures come from the open-loop replay. Spans and counts are kept in
memory and written out when the run ends. Each round also times the
untraced optimizer and twin, and the difference is the tracing overhead.
Per-layer times are wall times as measured, not scaled to the reference
speed like the end-to-end metrics: they are read against each other.
"""
from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from statistics import median

import numpy as np
import pandas as pd

from repro.core.ccspan import sharable_patterns
from repro.core.expand import expand_graph
from repro.core.graph import build_graph
from repro.core.gwmin import guaranteed_weight
from repro.core.planner import PlanSearchStats, find_optimal_plan_decomposed
from repro.core.reduce import reduce_graph
from repro.runtime import metrics
from repro.runtime.kernels import Segment, SharedCache, eval_query
from repro.runtime.sharon import compile_plan
from repro.runtime.windows import explode_windows_pandas

from . import spark_session
from .prepare import Prepared, plan_keys
from .untraced import MIN_ROUNDS


class Tracer:
    """In-memory spans (name, start, end, parent; one trace per round)
    and counts recorded at the same layer boundaries."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.trace = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "trace": self.trace,
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def add(self, name: str, value: float) -> None:
        self.counts[self.trace][name] += value

    def totals(self, trace: int) -> dict[str, float]:
        """Seconds spent in each span name during ``trace``."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s["trace"] == trace:
                out[s["name"]] += s["end"] - s["start"]
        return out

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"spans": self.spans, "counts": self.counts, **extra})
        )


class _CountingCache(SharedCache):
    """A SharedCache that counts the shared aggregates it builds, by kind."""

    def __init__(self, times: np.ndarray, types: np.ndarray):
        super().__init__(times, types)
        self.kinds: Counter = Counter()

    def _build(self, kind: str, get, pattern):
        before = self.builds
        out = get(pattern)
        self.kinds[kind] += self.builds - before
        return out

    def get(self, pattern):
        return self._build("cmatrix", super().get, pattern)

    def get_forward(self, pattern):
        return self._build("forward", super().get_forward, pattern)

    def get_reverse(self, pattern):
        return self._build("reverse", super().get_reverse, pattern)


def traced_optimizer(tr: Tracer, p: Prepared):
    """Return (plan, score) rebuilt phase by phase, as sharon_optimizer."""
    wl, cost = p.inputs.workload, p.inputs.cost
    with tr.span("optimizer"):
        with tr.span("ccspan.mine"):
            sharables = sharable_patterns(wl)
        with tr.span("graph.build"):
            g = build_graph(wl, sharables, cost=cost)
        with tr.span("expand.expand"):
            gx = expand_graph(g, cost)
        with tr.span("gwmin.bound"):
            bound = guaranteed_weight(gx)
        with tr.span("reduce.reduce"):
            red = reduce_graph(gx, bound)
        stats = PlanSearchStats()
        with tr.span("planner.finder"):
            plan, score = find_optimal_plan_decomposed(
                red.graph, red.conflict_free, stats
            )
    score += sum(gx.weight(v) for v in red.conflict_free)
    for name, value in (
        ("ccspan.patterns", len(sharables)),
        ("graph.vertices", len(g.vertices)),
        ("graph.edges", g.n_edges),
        ("expand.options", len(gx.vertices)),
        ("expand.edges", gx.n_edges),
        ("gwmin.greedy_score", bound),
        ("reduce.pruned", len(red.pruned)),
        ("reduce.conflict_free", len(red.conflict_free)),
        ("planner.plans", stats.total_plans),
        ("planner.peak_level_plans", stats.peak_level_plans),
    ):
        tr.add(name, value)
    return plan, score


def traced_twin(tr: Tracer, p: Prepared, engine: str, plan) -> pd.DataFrame:
    """Rebuild ``run_plan_pandas(events, workload, plan)`` layer by layer."""
    wl, events = p.inputs.workload, p.inputs.events
    with tr.span(f"twin.{engine}"):
        with tr.span("windows.explode"):
            exploded = explode_windows_pandas(
                events, within=p.inputs.within, slide=p.inputs.slide
            )
        with tr.span("sharon.groupby"):
            parts = [
                (int(wid), int(key), g["time"].to_numpy(np.int64), g["type"].to_numpy(dtype="U"))
                for (wid, key), g in exploded.groupby(["wid", "key"], sort=True)
            ]
        compiled = {
            qid: [Segment(pat, shared) for pat, shared in segs]
            for qid, segs in compile_plan(wl, plan).items()
        }
        rows = []
        for wid, key, times, types in parts:
            with tr.span("kernels.typeindex"):
                cache = _CountingCache(times, types)
            with tr.span(f"kernels.{engine}_eval"):
                for qid, segments in compiled.items():
                    cnt = eval_query(times, types, segments, cache)
                    if cnt > 0:
                        rows.append((wid, key, qid, cnt))
            if engine == "sharon":
                tr.add("kernels.segments", sum(len(s) for s in compiled.values()))
                tr.add("kernels.state_bytes", cache.state_bytes)
                for kind in ("forward", "reverse", "cmatrix"):
                    tr.add(f"kernels.builds_{kind}", cache.kinds[kind])
    if engine == "sharon":
        tr.add("windows.rows_out", len(exploded))
        tr.add("windows.replication", len(exploded) / len(events))
        tr.add("sharon.partitions", len(parts))
        tr.add("sharon.max_partition_rows", max(len(t) for _, _, t, _ in parts))
    return pd.DataFrame(rows, columns=["wid", "key", "qid", "cnt"])


def spark_job(tr: Tracer, p: Prepared, engine: str, plan, group: str) -> dict | None:
    """Run one checked Spark job under a job group; return its stage figures."""
    sc = p.spark.sparkContext
    sc.setJobGroup(group, f"perfbench {engine}")
    with tr.span(f"spark.{engine}_job") as rec:
        sample = p.timed(f"spark {engine}", lambda: p.spark_counts(plan), p.matches)
    if sample is None:
        return None
    stats = spark_session.stage_stats(p.spark, group)
    stats["driver_s"] = sample.wall - stats["map_stage_s"] - stats["kernel_stage_s"]
    rec["stages"] = stats
    return stats


def measure(p: Prepared, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Return (per-layer metric values, run details); write spans."""
    tr = Tracer()
    rounds: list[dict[str, float]] = []
    jobs: list[dict] = []
    untraced_opt: list[float] = []
    untraced_twin: list[float] = []

    def optimizer_round():
        t = p.timed("sharon_optimizer", p.optimize, p.same_plan)
        if t is not None:
            untraced_opt.append(t.wall)
        try:
            plan, score = traced_optimizer(tr, p)
        except Exception:  # a failed operation is counted, not fatal
            p.tally.crashed("traced optimizer")
            return
        ok = plan_keys(plan) == plan_keys(p.plan) and score == p.plan_score
        p.tally.record("traced optimizer vs sharon_optimizer", ok)

    def twin_round(engines):
        ts = [p.timed(f"twin {e}", lambda pl=pl: p.twin_counts(pl), p.matches) for e, pl in engines]
        if None not in ts:
            untraced_twin.append(sum(t.wall for t in ts))
        for engine, plan in engines:
            try:
                counts = traced_twin(tr, p, engine, plan)
            except Exception:  # a failed operation is counted, not fatal
                p.tally.crashed(f"traced twin {engine}")
                continue
            p.tally.record(f"traced twin {engine} vs run_plan_pandas", p.matches(counts))

    def spark_round(engines):
        for engine, plan in engines:
            stats = spark_job(tr, p, engine, plan, f"perfbench-{tr.trace}-{engine}")
            if stats is not None:
                jobs.append(stats)

    def stream_round():
        with tr.span("streaming.segment"):
            p.open_segment()

    deadline = time.perf_counter() + seconds
    while tr.trace < MIN_ROUNDS or time.perf_counter() < deadline:
        engines = [("sharon", p.plan), ("aseq", None)]
        if tr.trace % 2:
            engines.reverse()
        ops = [optimizer_round, lambda: twin_round(engines), lambda: spark_round(engines), stream_round]
        for op in ops if tr.trace % 2 == 0 else ops[::-1]:
            op()
        values = {f"{k}_s": v for k, v in tr.totals(tr.trace).items()}
        # Both engines' twin runs explode, split and index the stream;
        # report these layers per run.
        for k in ("windows.explode_s", "sharon.groupby_s", "kernels.typeindex_s"):
            values[k] = values.get(k, 0.0) / len(engines)
        values["twin_s"] = values.get("twin.sharon_s", 0.0) + values.get("twin.aseq_s", 0.0)
        values.update(tr.counts[tr.trace])
        rounds.append(values)
        tr.trace += 1

    layer = {k: median(r.get(k, 0.0) for r in rounds) for k in LAYER_FROM_ROUNDS}
    for k in SPARK_FIELDS:
        layer[f"spark.{k}"] = median(j[k] for j in jobs) if jobs else None
    ol = p.open_loop
    layer.update({
        "streaming.process_batch_s": median(ol.process_s) if ol.process_s else None,
        "streaming.batches": len(ol.batches),
        "streaming.state_counters": ol.pass_state_counters,
        "streaming.lag_max_s": max(ol.lag_s) if ol.lag_s else None,
        "metrics.modeled_sharon": metrics.sharon_aggregates(p.inputs.workload, p.inputs.cost, p.plan),
        "metrics.modeled_aseq": metrics.aseq_aggregates(p.inputs.workload, p.inputs.cost),
        "spark.jvm_peak_rss_mb": spark_session.jvm_peak_rss_mb(),
        "trace.optimizer_overhead_s": median(r.get("optimizer_s", 0.0) for r in rounds)
        - median(untraced_opt) if untraced_opt else None,
        "trace.twin_overhead_s": median(r["twin_s"] for r in rounds) - median(untraced_twin)
        if untraced_twin else None,
    })
    tr.write(spans_path, {"spark_jobs": jobs})
    return layer, {"rounds": len(rounds), "spark_jobs": len(jobs), "spans": len(tr.spans)}


# Per-layer metrics read from each round's span totals and counts.
LAYER_FROM_ROUNDS = (
    "ccspan.mine_s", "ccspan.patterns", "graph.build_s", "graph.vertices", "graph.edges",
    "expand.expand_s", "expand.options", "expand.edges",
    "gwmin.bound_s", "gwmin.greedy_score", "reduce.reduce_s", "reduce.pruned",
    "reduce.conflict_free", "planner.finder_s", "planner.plans", "planner.peak_level_plans",
    "windows.explode_s", "windows.rows_out", "windows.replication",
    "sharon.groupby_s", "sharon.partitions", "sharon.max_partition_rows", "kernels.typeindex_s",
    "kernels.sharon_eval_s", "kernels.aseq_eval_s", "kernels.segments",
    "kernels.builds_forward", "kernels.builds_reverse", "kernels.builds_cmatrix", "kernels.state_bytes",
)
SPARK_FIELDS = (
    "map_stage_s", "map_tasks", "shuffle_bytes", "shuffle_records",
    "kernel_stage_s", "kernel_tasks", "driver_s",
)
