"""One repetition of one workload, in a fresh process.

Started by ``hostbench/run.py`` as ``python -m hostbench.child``. The
process imports ``repro`` itself, so every repetition pays the import
and the cold cost-curve derivations a fresh ``repro-experiments``
process pays, and its peak memory cannot carry into another's. The
last line of standard output is a JSON report.

``--prepare`` instead makes the workload's inputs and references for a
seed, outside the timed repetitions: the replay trace file, and the
digests of the in-process racks that the replay and observed runs must
reproduce bit for bit.
"""

import argparse
import json
import os
import resource
import time


def repetition(args) -> dict:
    from hostbench import workloads

    workload = workloads.make(args.workload, args.seed, args.trace_file)
    tracer = None
    if args.spans_out:
        from hostbench.boundaries import BoundaryTracer

        tracer = BoundaryTracer(workload.current_run).install()
    workload.setup()
    # CLOCK_MONOTONIC is system-wide: the parent subtracts its spawn time.
    setup_end = time.monotonic()
    try:
        workload.run()
    finally:
        if tracer is not None:
            tracer.restore()

    from repro.mem.costmodel import curve_cache_info

    report = {
        "setup_end": setup_end,
        "in_work_setup_s": workload.in_work_setup_s,
        "records": workload.records,
    }
    if tracer is not None:
        from hostbench.boundaries import layer_metrics

        report["layers"] = layer_metrics(tracer.spans, workload.records, curve_cache_info())
        tracer.write(args.spans_out)
    me = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    report["cpu_s"] = me.ru_utime + me.ru_stime + workers.ru_utime + workers.ru_stime
    # ru_maxrss is in KiB on Linux; for reaped children it is the largest one.
    report["peak_rss_mb"] = (me.ru_maxrss + workers.ru_maxrss) / 1024.0
    return report


def prepare(args) -> dict:
    from hostbench import workloads

    references = {}
    if args.workload == "replay":
        workloads.write_replay_trace(args.trace_file, args.seed)
        references["rss"] = workloads.replay_reference(args.seed)
    elif args.workload == "observed":
        for episode in workloads.OBSERVED_EPISODES:
            references[episode] = workloads.rack_reference(episode, args.seed)
    return {"references": references}


def pin_to_one_cpu() -> None:
    """Run this process, and the workers it spawns, on one CPU.

    The replay's coordinator and worker take turns, so one CPU costs
    them no parallelism; it keeps cross-CPU wake-ups, which on a shared
    host vary with other tenants' load, out of every exchange.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main() -> None:
    pin_to_one_cpu()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-file", help="replay input (JSONL trace)")
    parser.add_argument("--spans-out", help="trace boundaries; write spans here")
    parser.add_argument("--prepare", action="store_true")
    args = parser.parse_args()
    report = prepare(args) if args.prepare else repetition(args)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
