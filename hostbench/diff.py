"""Print end-to-end changes beside per-layer changes for two traced runs.

    python3 hostbench/diff.py OLD NEW

OLD and NEW are traced-run reports (``hostbench/out/report-<workload>-
seed<n>-trace1.json``, written by ``run.py --trace 1``) or directories
holding them; reports pair up by workload. For each workload the
end-to-end metrics come first, then every per-layer metric that is
non-zero on either side, so a change can show which layer its saving
came from. A change reads ``better`` or ``worse`` by the metric's
direction in ``BENCHMARK.json``.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_reports(path: Path) -> dict:
    files = sorted(path.glob("report-*-trace1.json")) if path.is_dir() else [path]
    reports = {}
    for file in files:
        report = json.loads(file.read_text())
        reports[report["workload"]] = report
    return reports


def change_row(metric: dict, old: float, new: float) -> str:
    if old == new:
        verdict, relative = "same", "0"
    else:
        relative = f"{(new - old) / old:+.1%}" if old else "new"
        lower = metric["better"] == "lower"
        verdict = "better" if (new < old) == lower else "worse"
    return (
        f"  {metric['name']:<36} {old:>12.5g} {new:>12.5g} {metric['unit']:<12}"
        f" {relative:>8}  {verdict}"
    )


def diff(old_reports: dict, new_reports: dict, spec: dict) -> list:
    lines = []
    for workload in sorted(set(old_reports) & set(new_reports)):
        old, new = old_reports[workload], new_reports[workload]
        lines.append(f"== {workload} (seed {old['seed']} -> {new['seed']})")
        lines.append(f"  {'end to end':<36} {'old':>12} {'new':>12}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            lines.append(change_row(metric, old["end_to_end"][name], new["end_to_end"][name]))
        lines.append(f"  {'per layer':<36} {'old':>12} {'new':>12}")
        for metric in spec["per_layer"]:
            name = metric["name"]
            before = old["per_layer"].get(name, 0.0)
            after = new["per_layer"].get(name, 0.0)
            if before or after:
                lines.append(change_row(metric, before, after))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    old, new = load_reports(args.old), load_reports(args.new)
    if not set(old) & set(new):
        print("no workload appears in both reports", file=sys.stderr)
        return 2
    print("\n".join(diff(old, new, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
