"""The benchmark's Spark session, its shutdown and its stage statistics.

The session mirrors the test session in ``conftest.py`` (64 shuffle
partitions, Arrow on, broadcast joins off, UI off) so the benchmark
measures what the tests run. Every directory Spark writes to is placed
under ``scratch``, inside the checkout.
"""
from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

from pyspark import SparkContext
from pyspark.sql import SparkSession

DRIVER_MEMORY = "1g"  # a few MB of events; keep the JVM small on a shared box


def start(scratch: Path, cores: int) -> SparkSession:
    """Launch a local[cores] session whose temporary files stay in ``scratch``."""
    tmp = scratch / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # Python workers inherit the JVM's environment, which is this one.
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    spark = (
        SparkSession.builder.master(f"local[{cores}]")
        .appName("perfbench")
        .config("spark.driver.memory", DRIVER_MEMORY)
        .config("spark.driver.host", "127.0.0.1")
        # -XX:-UsePerfData: HotSpot would otherwise write /tmp/hsperfdata_*.
        .config(
            "spark.driver.extraJavaOptions",
            f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData",
        )
        .config("spark.local.dir", str(tmp))
        .config("spark.sql.warehouse.dir", str(tmp / "warehouse"))
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def jvm_peak_rss_mb() -> float:
    """Peak resident set of the driver JVM (VmHWM), in MiB."""
    pid = SparkContext._gateway.proc.pid
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc status")


def stop(spark: SparkSession) -> None:
    """Stop the session and wait until the driver JVM has exited.

    The JVM leaves when its stdin closes; its Python workers leave when
    the JVM does.
    """
    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None or gateway.proc is None:
        return
    gateway.shutdown()
    proc = gateway.proc
    proc.stdin.close()
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=60)


def environment(spark: SparkSession) -> dict:
    """Spark version, master and the effective shuffle and AQE settings."""
    sc = spark.sparkContext
    conf = {
        row.key: row.value
        for row in spark.sql("SET -v").collect()
        if row.key.startswith("spark.sql.adaptive.")
    }
    for key in (
        "spark.sql.shuffle.partitions",
        "spark.sql.execution.arrow.pyspark.enabled",
        "spark.sql.autoBroadcastJoinThreshold",
    ):
        conf[key] = spark.conf.get(key)
    return {
        "spark_version": spark.version,
        "master": sc.master,
        "default_parallelism": sc.defaultParallelism,
        "driver_memory": DRIVER_MEMORY,
        "conf": conf,
    }


def stage_stats(spark: SparkSession, group: str) -> dict:
    """Map and kernel stage figures of the jobs run under job group ``group``.

    Read from Spark's status store: the map stage writes the
    ``(wid, key)`` shuffle, the kernel stage reads it and runs
    ``applyInPandas``. Times are stage wall times in seconds.
    """
    sc = spark.sparkContext
    store = sc._jsc.sc().statusStore()
    out = {
        "map_stage_s": 0.0,
        "map_tasks": 0,
        "shuffle_bytes": 0,
        "shuffle_records": 0,
        "kernel_stage_s": 0.0,
        "kernel_tasks": 0,
    }
    for jid in sc.statusTracker().getJobIdsForGroup(group):
        for sid in sc.statusTracker().getJobInfo(jid).stageIds:
            st = store.lastStageAttempt(sid)
            if st.status().toString() != "COMPLETE":
                continue  # skipped: the cached input was already there
            sub, done = st.submissionTime(), st.completionTime()
            wall = (done.get().getTime() - sub.get().getTime()) / 1000
            if st.shuffleWriteBytes() > 0:
                out["map_stage_s"] += wall
                out["map_tasks"] += st.numTasks()
                out["shuffle_bytes"] += st.shuffleWriteBytes()
                out["shuffle_records"] += st.shuffleWriteRecords()
            elif st.shuffleReadBytes() > 0:
                out["kernel_stage_s"] += wall
                out["kernel_tasks"] += st.numTasks()
    return out
