"""Run one benchmark workload for a fixed time and print its metrics.

    python3 hostbench/run.py --workload sweep --seed 0 --seconds 28 --trace 0

Each repetition runs the whole workload in a fresh process
(``hostbench/child.py``), cold, and the run keeps starting repetitions
while the next one still fits in ``--seconds``. End-to-end metrics are
medians over the untraced repetitions. ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics
instead (medians over the traced ones), plus ``bench.trace_overhead``.

Every run's exact results are checked: against the digests committed
in ``hostbench/digests.json`` for the seed when there are any, against
the first repetition otherwise (so traced and untraced repetitions must
agree), and, for ``replay`` and ``observed``, against in-process racks
computed once per invocation. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--record`` runs one repetition and writes its digests for the seed
into ``hostbench/digests.json`` (after an intended change of results).
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
END_TO_END = ("wall_s", "setup_s", "sim_req_per_s", "cpu_s", "peak_rss_mb")
CHILD_TIMEOUT_S = 150.0


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["REPRO_PROCESSES"] = "1"
    # Temporary files (the dist runtime's unix-socket directory) stay in
    # the checkout. A socket path must fit in 107 bytes, which bounds
    # the checkout path to about 56 characters.
    env["TMPDIR"] = str(OUT)
    return env


def end_group(pgid: int) -> None:
    """Kill what is left of a child's process group and wait for it."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    raise ChildFailed(f"process group {pgid} did not end")


def run_child(arguments) -> tuple:
    """Run ``hostbench.child``; return (report, spawn time, wall seconds)."""
    command = [sys.executable, "-m", "hostbench.child", *arguments]
    spawned = time.monotonic()
    process = subprocess.Popen(
        command,
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        output, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
        wall = time.monotonic() - spawned
    except BaseException:
        end_group(process.pid)
        process.wait()
        raise
    end_group(process.pid)
    lines = output.decode("utf-8", "replace").strip().splitlines()
    if process.returncode != 0 or not lines:
        raise ChildFailed(f"{' '.join(arguments)}: exit code {process.returncode}")
    return json.loads(lines[-1]), spawned, wall


def repetition(args, traced: bool, trace_file) -> dict:
    arguments = ["--workload", args.workload, "--seed", str(args.seed)]
    if trace_file:
        arguments += ["--trace-file", str(trace_file)]
    if traced:
        arguments += ["--spans-out", str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")]
    report, spawned, wall = run_child(arguments)
    setup = report["setup_end"] - spawned + report["in_work_setup_s"]
    requests = sum(record["requests"] for record in report["records"])
    report.update(
        traced=traced,
        wall_s=wall,
        setup_s=setup,
        sim_req_per_s=requests / (wall - setup),
    )
    return report


def check_runs(reps, committed, references) -> tuple:
    """(attempted, failed, problems) over every run of every repetition."""
    expected = dict(committed or {})
    for record in reps[0]["records"]:
        expected.setdefault(record["key"], record["digest"])
    attempted = failed = 0
    problems = []
    for number, rep in enumerate(reps):
        seen = set()
        for record in rep["records"]:
            key = record["key"]
            seen.add(key)
            attempted += 1
            why = record["error"]
            if why is None and record["digest"] != expected.get(key):
                source = "committed digest" if committed else "first repetition"
                why = f"digest {record['digest']} != {source} {expected.get(key)}"
            if why is None and key in references and record["digest"] != references[key]:
                why = f"digest {record['digest']} != in-process rack {references[key]}"
            if why is not None:
                failed += 1
                problems.append(f"rep {number} run {key}: {why}")
        for key in sorted(set(committed or ()) - seen):
            attempted += 1
            failed += 1
            problems.append(f"rep {number} run {key}: missing")
    return attempted, failed, problems


def medians(reps, names) -> dict:
    return {name: statistics.median(rep[name] for rep in reps) for name in names}


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


def record_digests(args, rep, references) -> int:
    bad = [
        r for r in rep["records"]
        if r["error"] or references.get(r["key"], r["digest"]) != r["digest"]
    ]
    for record in bad:
        print(f"not recorded: run {record['key']}: {record['error'] or 'reference mismatch'}")
    if bad:
        return 1
    digests = load_digests()
    digests.setdefault(args.workload, {})[str(args.seed)] = {
        record["key"]: record["digest"] for record in rep["records"]
    }
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(rep['records'])} digests for {args.workload} seed {args.seed}")
    return 0


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", action="store_true", help="write this seed's digests to digests.json"
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}: nothing to benchmark", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    trace_file = OUT / f"replay-seed{args.seed}.jsonl" if args.workload == "replay" else None
    references = {}
    if args.workload in ("replay", "observed"):
        arguments = ["--prepare", "--workload", args.workload, "--seed", str(args.seed)]
        if trace_file:
            arguments += ["--trace-file", str(trace_file)]
        references = run_child(arguments)[0]["references"]

    if args.record:
        return record_digests(args, repetition(args, False, trace_file), references)

    reps = []
    started = time.monotonic()
    while True:
        reps.append(repetition(args, args.trace == 1 and len(reps) % 2 == 1, trace_file))
        if args.trace and len(reps) < 2:
            continue
        longest = max(rep["wall_s"] for rep in reps)
        if time.monotonic() - started + longest > args.seconds:
            break

    committed = load_digests().get(args.workload, {}).get(str(args.seed))
    attempted, failed, problems = check_runs(reps, committed, references)
    plain = [rep for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]
    end_to_end = medians(plain, END_TO_END)

    print(
        f"{args.workload} seed {args.seed}: {len(plain)} untraced + {len(traced)} traced "
        f"repetitions, {attempted} runs, {failed} failed "
        f"(failed_frac {failed / attempted:.4f})"
    )
    print("digests: " + ("committed" if committed else "not committed for this seed; "
                         "repetitions checked against each other"))
    for problem in problems[:20]:
        print("  FAILED " + problem)
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = dict(end_to_end)
    if args.trace:
        values.update(medians([rep["layers"] for rep in traced], traced[0]["layers"]))
        values["bench.trace_overhead"] = (
            statistics.median(rep["wall_s"] for rep in traced) / end_to_end["wall_s"]
        )
    for metric in spec["end_to_end"] + (spec["per_layer"] if args.trace else []):
        print(f"  {metric['name']:<36} {values[metric['name']]:>14.6g} {metric['unit']}")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "end_to_end": end_to_end,
        "per_layer": {m["name"]: values[m["name"]] for m in spec["per_layer"] if args.trace},
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "repetitions": [
            {key: rep[key] for key in ("traced",) + END_TO_END} for rep in reps
        ],
    }
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n"
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
    }
    print(json.dumps(result))
    return 0


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
