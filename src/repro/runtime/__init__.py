"""Runtime executors (paper Sections 3 and 8.2).

Four engines over one event stream, all producing per-(window, key,
query) COUNT(*) of matched event sequences:

- ``sharon``    — Sharon executor: online, shared per a sharing plan.
                  A-Seq (online, non-shared) is the same executor with
                  no plan: ``run_plan(events, workload, None)``.
- ``twostep``   — Flink-like (non-shared) and SPASS-like (shared
                  construction) two-step baselines, pure Spark SQL joins.

``windows`` assigns sliding windows, ``kernels`` holds the numpy math,
``streaming`` the chunked micro-batch driver, ``metrics`` the modeled
memory accounting.
"""
