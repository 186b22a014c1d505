"""Where the time of a Spark ``run_plan`` job goes.

    python jobs/spark_floor.py --label change [--out BENCH_spark_floor.json]

Fixed config: both perfbench streams (``shared_core`` and
``traffic_clusters``) at seed 1 on ``local[4]``, in the benchmark's own
Spark session (``perfbench/spark_session.py``). Per stream, Sharon (the
optimizer's plan) and A-Seq (no plan) jobs alternate: ``WARM_JOBS`` jobs
warm the JVM and the Python workers, then each engine's figures are the
medians of ``JOBS`` jobs. A job is ``run_plan(...).toPandas()``; its wall
time (``wall_s``) splits into

- ``driver_s``: ``run_plan`` building the DataFrame on the driver;
- ``map_stage_s``: the stage that reads the cached events and writes
  the key shuffle;
- ``kernel_stage_s``: the stage that reads the shuffle and runs the
  ``mapInPandas`` tasks; it contains the next two;
- ``worker_before_udf_s``: from a kernel task's launch to its Python
  worker entering ``run_plan_pandas`` (worker hand-off, per-task set-up,
  unpickling the task, reading its Arrow input); mean over the tasks
  that hold rows;
- ``udf_s``: ``run_plan_pandas`` in the worker, summed over tasks;
- ``other_s``: ``wall_s`` less driver, map and kernel stage (scheduling,
  adaptive re-planning between the stages, result transfer, ``toPandas``).

To time inside the real task, the module's ``run_plan_pandas`` is
swapped, while ``run_plan`` pickles its task, for a call of the same
function that records its task's id and wall-clock entry and exit.

Python workers live as long as the Spark session, so what one call does
to a worker shows in later calls: measure two versions of the code in
two processes, each writing its own ``--label`` into the one JSON file.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
# Run straight from a checkout: its own sources and its perfbench.
sys.path[0:0] = [str(ROOT / "src"), str(ROOT)]

import pandas as pd  # noqa: E402
from pyspark.sql import DataFrame, SparkSession  # noqa: E402

from repro.runtime import sharon  # noqa: E402

WORKLOADS = ("shared_core", "traffic_clusters")
SEED, CORES, WARM_JOBS, JOBS = 1, 4, 6, 11
LAYERS = (
    "wall_s",
    "driver_s",
    "map_stage_s",
    "kernel_stage_s",
    "worker_before_udf_s",
    "udf_s",
    "other_s",
)


@contextmanager
def _timing_tasks(log_dir: str):
    """While active, ``run_plan`` pickles into its task a
    ``run_plan_pandas`` that also writes [entry, exit] wall-clock seconds
    to ``log_dir``/<task attempt id>.json."""

    def timed(*args):
        from pyspark import TaskContext

        from repro.runtime import sharon as worker_sharon  # the worker's own

        enter = time.time()
        out = worker_sharon.run_plan_pandas(*args)
        done = time.time()
        task = TaskContext.get().taskAttemptId()
        with open(os.path.join(log_dir, f"{task}.json"), "w") as f:
            json.dump([enter, done], f)
        return out

    original = sharon.run_plan_pandas
    sharon.run_plan_pandas = timed
    try:
        yield
    finally:
        sharon.run_plan_pandas = original


def _stages(spark: SparkSession, group: str) -> tuple[float, float, dict[int, float]]:
    """Map and kernel stage walls (s) of the jobs of ``group``, and the
    launch time (epoch s) of each kernel task, by task id."""
    sc = spark.sparkContext
    store = sc._jsc.sc().statusStore()
    map_s, kernel_s, launches = 0.0, 0.0, {}
    for jid in sc.statusTracker().getJobIdsForGroup(group):
        for sid in sc.statusTracker().getJobInfo(jid).stageIds:
            st = store.lastStageAttempt(sid)
            if st.status().toString() != "COMPLETE":
                continue  # skipped: its output was already there
            sub, done = st.submissionTime().get(), st.completionTime().get()
            wall = (done.getTime() - sub.getTime()) / 1000
            if st.shuffleWriteBytes() > 0:
                map_s += wall
            elif st.shuffleReadBytes() > 0:
                kernel_s += wall
                tasks = store.taskList(sid, st.attemptId(), st.numTasks())
                for i in range(tasks.size()):
                    t = tasks.apply(i)
                    launches[t.taskId()] = t.launchTime().getTime() / 1000
    return map_s, kernel_s, launches


def _job(
    spark: SparkSession, sdf: DataFrame, workload, plan, log_dir: str, group: str
) -> tuple[pd.DataFrame, dict]:
    """One ``run_plan`` job and its layer split."""
    spark.sparkContext.setJobGroup(group, "spark_floor")
    with _timing_tasks(log_dir):
        t0 = time.perf_counter()
        df = sharon.run_plan(sdf, workload, plan)
        t1 = time.perf_counter()
    out = df.toPandas()
    t2 = time.perf_counter()
    map_s, kernel_s, launches = _stages(spark, group)
    udf = {}
    for name in os.listdir(log_dir):
        with open(os.path.join(log_dir, name)) as f:
            udf[int(name.removesuffix(".json"))] = json.load(f)
        os.remove(os.path.join(log_dir, name))
    return out, {
        "wall_s": t2 - t0,
        "driver_s": t1 - t0,
        "map_stage_s": map_s,
        "kernel_stage_s": kernel_s,
        "worker_before_udf_s": (
            sum(enter - launches[t] for t, (enter, _) in udf.items()) / len(udf)
            if udf
            else 0.0
        ),
        "udf_s": sum(done - enter for enter, done in udf.values()),
        "other_s": t2 - t1 - map_s - kernel_s,
    }


def _canon(counts: pd.DataFrame) -> list[tuple]:
    rows = counts[["wid", "key", "qid", "cnt"]].itertuples(index=False, name=None)
    return sorted(rows)


def measure(
    spark: SparkSession, events: pd.DataFrame, workload, plan, jobs: int, warm: int
) -> dict:
    """Medians of each layer over ``jobs`` Sharon and ``jobs`` A-Seq
    jobs on ``events``, after ``warm`` untimed jobs; each engine's
    counts are checked against ``run_plan_pandas`` first."""
    engines = {"sharon": plan, "aseq": None}
    sdf = spark.createDataFrame(events).cache()
    sdf.count()
    log_dir = tempfile.mkdtemp(prefix="spark-floor-")
    run = os.path.basename(log_dir)  # job groups unique to this call
    try:
        for name, p in engines.items():
            want = _canon(sharon.run_plan_pandas(events, workload, p)[0])
            got, _ = _job(spark, sdf, workload, p, log_dir, f"{run}-check-{name}")
            if _canon(got) != want:
                raise RuntimeError(f"{name}: Spark and run_plan_pandas differ")
        for i in range(warm):
            p = plan if i % 2 else None
            _job(spark, sdf, workload, p, log_dir, f"{run}-warm-{i}")
        runs: dict[str, list[dict]] = {name: [] for name in engines}
        for i in range(jobs):
            order = list(engines) if i % 2 == 0 else list(engines)[::-1]
            for name in order:
                group = f"{run}-{name}-{i}"
                _, split = _job(spark, sdf, workload, engines[name], log_dir, group)
                runs[name].append(split)
    finally:
        shutil.rmtree(log_dir, ignore_errors=True)
        sdf.unpersist()
    return {
        name: {"jobs": len(r), **{k: median(s[k] for s in r) for k in LAYERS}}
        for name, r in runs.items()
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True, help="key of this run in the JSON file")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_spark_floor.json")
    args = ap.parse_args()

    # Spark's Python workers import this checkout's sources too.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    from perfbench import spark_session
    from perfbench.inputs import WORKLOADS as SPECS
    from perfbench.inputs import make_inputs
    from repro.core.optimizer import sharon_optimizer

    scratch = ROOT / ".perfbench" / f"floor-{os.getpid()}"
    spark = spark_session.start(scratch, cores=CORES)
    try:
        result = {
            "config": {
                "workloads": list(WORKLOADS),
                "seed": SEED,
                "master": spark.sparkContext.master,
                "warm_jobs": WARM_JOBS,
                "jobs": JOBS,
                "spark_version": spark.version,
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
            }
        }
        for name in WORKLOADS:
            inputs = make_inputs(SPECS[name], SEED)
            plan = sharon_optimizer(inputs.workload, inputs.cost).plan
            result[name] = measure(
                spark, inputs.events, inputs.workload, plan, JOBS, WARM_JOBS
            )
    finally:
        spark_session.stop(spark)
        shutil.rmtree(scratch, ignore_errors=True)

    bench = json.loads(args.out.read_text()) if args.out.exists() else {}
    bench[args.label] = result
    args.out.write_text(json.dumps(bench, indent=2) + "\n")
    print(json.dumps({args.label: result}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
