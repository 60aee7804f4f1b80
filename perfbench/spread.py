"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the repository root::

    python3 perfbench/spread.py [--write]

Runs ``perfbench/run.py --trace 0`` once per seed 0-9 and workload of
BENCHMARK.json (seeds outermost, so slow drift on the machine spreads
over every workload) and prints, per workload and metric, the median,
the quartiles as ``statistics.quantiles(values, n=4)`` gives them, and
the spread ``(q3 - q1) / median`` next to the metric's bound from
BENCHMARK.json. A spread above a third of the bound is flagged, and the
exit status is then 1. The events per second that each run's report
prints are summarised the same way, unflagged, to show how far the
per-probe throughput evens out host drift. ``--write`` stores the
figures and each seed's metrics-CSV digest in ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "perfbench" / "baseline.json"
SEEDS = range(10)


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, str]:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n"
                 f"{out.stdout}{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} lost events: {lines[-1]}")
    report = {line.split()[0]: line.split()[1] for line in lines[:-1]
              if line.startswith("  ")}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    metrics["throughput_evps"] = float(report["throughput_evps"])
    return metrics, report["csv_sha256"]


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    bounds["throughput_evps"] = None  # report only

    values = {w: {m: [] for m in bounds} for w in workloads}
    digests = {w: {} for w in workloads}
    for seed in SEEDS:
        for w in workloads:
            metrics, digest = run_once(w, seed, bench["run_seconds"])
            for m in bounds:
                values[w][m].append(metrics[m])
            digests[w][str(seed)] = digest
            print(f"seed {seed} {w}: " + " ".join(
                f"{m}={v:.6g}" for m, v in metrics.items()), flush=True)

    steady = True
    summary = {}
    for w in workloads:
        print(f"\n{w} ({len(SEEDS)} seeds)")
        summary[w] = {}
        for m, bound in bounds.items():
            v = values[w][m]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            if bound is None:
                note = "(report only)"
            else:
                note = f"(bound {bound:.0%})"
                if spread >= bound / 3:
                    note += "  UNSTEADY"
                    steady = False
            print(f"  {m:<20} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:6.2%} {note}")
            summary[w][m] = {"median": med, "q1": q1, "q3": q3,
                             "spread": spread}
    if args.write:
        doc = json.loads(BASELINE.read_text())
        for w in workloads:
            doc["workloads"][w]["baseline"] = {
                "seeds": [SEEDS.start, SEEDS.stop - 1],
                "metrics": summary[w], "csv_sha256": digests[w]}
        BASELINE.write_text(json.dumps(doc, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
