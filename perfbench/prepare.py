"""Set-up and warm-up shared by the untraced and the traced run."""
from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.optimizer import OptimizerResult, sharon_optimizer
from repro.runtime.sharon import run_plan, run_plan_pandas
from repro.runtime.streaming import time_chunks

from .checks import Counts, Tally, canon, same
from .inputs import N_BATCHES, SLICE, Inputs, Spec, make_inputs
from .stream_replay import OpenLoop, closed_loop

# set_up runs this many times; setup_s is the median. The first
# repetition also warms Spark's DataFrame creation, so it is the slowest.
SETUP_REPS = 3
# Spark warms up over several jobs (JIT compilation, Python workers):
# alternate engines until the last STEADY_JOBS job times (scaled, see
# PROBE_REF_S) lie within STEADY_RATIO of each other, after at least
# MIN_WARM_JOBS jobs.
MIN_WARM_JOBS, MAX_WARM_JOBS, STEADY_JOBS, STEADY_RATIO = 6, 8, 4, 1.15
# The open-loop replay advances this many batches per measurement round.
OPEN_BATCHES_PER_ROUND = 25
# Time metrics are reported at a fixed reference speed of the box. A
# probe, a fixed pure-Python loop, runs just before and just after each
# sample, and the sample's wall time is scaled by PROBE_REF_S over the
# mean of the two probe times. A shared VM runs in fast and slow spells of
# seconds to minutes that move every operation, Spark's JVM included,
# about as much as the probe. On a shared 4-vCPU x86 VM, over five
# shared_core runs in which the probe's own spread between runs was
# 0.23-0.29, the spread of the six timed operations between runs was
# 0.20-0.35 raw and 0.06-0.12 scaled. PROBE_REF_S is about the probe's time on that VM
# in a quiet spell, so scaled figures read as its wall times then.
PROBE_REF_S, PROBE_LOOPS = 0.004, 100_000


def probe() -> float:
    """Seconds of a fixed pure-Python loop, the median of three: the box's
    current speed, robust to a single interruption."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0
        for i in range(PROBE_LOOPS):
            x += i
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


@dataclass(frozen=True)
class Sample:
    """One timed sample: wall seconds per call and the probe around it."""

    wall: float
    probe: float

    @property
    def scaled(self) -> float:
        """The wall time at the reference speed (PROBE_REF_S)."""
        return self.wall * PROBE_REF_S / self.probe


@dataclass
class Prepared:
    """Everything a measurement round needs, built once per run."""

    spec: Spec
    spark: SparkSession
    inputs: Inputs
    sdf: DataFrame
    setup: list[Sample]
    tally: Tally
    plan: list = field(default_factory=list)
    plan_score: float = 0.0
    reference: Counts | None = None
    batches: list[pd.DataFrame] = field(default_factory=list)
    slice_events: int = 0
    slice_reference: Counts | None = None
    open_loop: OpenLoop | None = None
    # Open-loop batch latencies, scaled by the probe around their segment.
    open_latency_scaled: list[float] = field(default_factory=list)
    warmup: dict = field(default_factory=dict)

    # -- the timed operations, each returning what its check reads
    def optimize(self) -> OptimizerResult:
        return sharon_optimizer(
            self.inputs.workload, self.inputs.cost, decompose=True
        )

    def spark_counts(self, plan) -> pd.DataFrame:
        return run_plan(self.sdf, self.inputs.workload, plan).toPandas()

    def twin_counts(self, plan) -> pd.DataFrame:
        return run_plan_pandas(self.inputs.events, self.inputs.workload, plan)[0]

    def stream_slice(self) -> pd.DataFrame:
        return closed_loop(self.inputs.workload, self.batches[SLICE])

    # -- checks, run outside the timer
    def same_plan(self, res: OptimizerResult) -> bool:
        return plan_keys(res.plan) == plan_keys(self.plan) and res.score == self.plan_score

    def matches(self, counts: pd.DataFrame) -> bool:
        return same(canon(counts), self.reference)

    def matches_slice(self, counts: pd.DataFrame) -> bool:
        return same(canon(counts), self.slice_reference)

    def timed(
        self, what: str, fn: Callable[[], Any], check: Callable[[Any], bool], reps: int = 1
    ) -> Sample | None:
        """Time ``reps`` calls of ``fn`` between two probes; None if it
        raised or its last output failed ``check``."""
        gc.collect()
        before = probe()
        try:
            t0 = time.perf_counter()
            for _ in range(reps):
                out = fn()
            wall = (time.perf_counter() - t0) / reps
        except Exception:  # a failed operation is counted, not fatal
            self.tally.crashed(what)
            return None
        sample = Sample(wall, (before + probe()) / 2)
        ok = check(out)
        self.tally.record(what, ok)
        return sample if ok else None

    def open_segment(self) -> None:
        """Advance the open-loop replay one round and check finished passes."""
        gc.collect()
        before, done = probe(), len(self.open_loop.latency_s)
        try:
            self.open_loop.run(OPEN_BATCHES_PER_ROUND)
        except Exception:  # a failed operation is counted, not fatal
            self.tally.crashed("open-loop replay")
        scale = PROBE_REF_S / ((before + probe()) / 2)
        self.open_latency_scaled += [t * scale for t in self.open_loop.latency_s[done:]]
        for ex in self.open_loop.take_finished():
            self.tally.record("open-loop pass", self.matches(ex.results()))


def plan_keys(plan) -> list:
    return sorted(c.key() for c in plan)


def set_up(spark: SparkSession, spec: Spec, seed: int, tally: Tally) -> Prepared:
    """Generate the inputs, derive rates and cost model, load and cache
    the Spark DataFrame: ``SETUP_REPS`` times, keeping the last."""
    samples, sdf = [], None
    for _ in range(SETUP_REPS):
        if sdf is not None:
            sdf.unpersist(blocking=True)
        gc.collect()
        before = probe()
        t0 = time.perf_counter()
        inputs = make_inputs(spec, seed)
        sdf = spark.createDataFrame(inputs.events).cache()
        sdf.count()
        samples.append(Sample(time.perf_counter() - t0, (before + probe()) / 2))
    return Prepared(spec, spark, inputs, sdf, samples, tally)


def warm_up(p: Prepared) -> None:
    """Compute the plan and the references, then warm every timed
    operation until Spark jobs are steady."""
    t0 = time.perf_counter()
    wl, events = p.inputs.workload, p.inputs.events
    res = p.optimize()
    p.plan, p.plan_score = res.plan, res.score
    for _ in range(2):
        p.timed("sharon_optimizer", p.optimize, p.same_plan, p.spec.optimize_reps)
    p.reference = canon(p.twin_counts(None))
    p.batches = list(time_chunks(events, N_BATCHES))
    part = p.batches[SLICE]
    p.slice_events = sum(len(b) for b in part)
    p.slice_reference = canon(run_plan_pandas(pd.concat(part), wl, None)[0])
    p.open_loop = OpenLoop(wl, p.batches, p.spec.offered_eps)

    walls: list[float] = []
    for i in range(MAX_WARM_JOBS):
        plan = p.plan if i % 2 else None
        sample = p.timed("spark warm-up", lambda: p.spark_counts(plan), p.matches)
        if sample is None:
            break  # counted as failed; timing a failing engine is moot
        walls.append(sample.scaled)
        last = walls[-STEADY_JOBS:]
        if len(walls) >= MIN_WARM_JOBS and max(last) <= STEADY_RATIO * min(last):
            break
    p.warmup = {
        "warmup_s": time.perf_counter() - t0,
        "spark_warmup_jobs": len(walls),
        "spark_warmup_scaled_s": walls,
    }
