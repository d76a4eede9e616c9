"""Run the benchmark several times per workload and report each metric's spread.

    python3 bench/repeat.py [--runs 10] [--workload NAME ...] [--record FILE]

Each run is untraced, lasts BENCHMARK.json's run_seconds and uses its own
seed, 1 to --runs.  For every end-to-end metric this prints the
median of the runs and the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, which is the
spread the metric's bound in BENCHMARK.json must stay above.  --record writes
the medians, spreads and run context (interpreter, CPUs, CPU model, commit,
seeds, `src/` line count, sample counts) to FILE as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=list(run.WORKLOADS))
    parser.add_argument("--record")
    args = parser.parse_args()
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    spec = {m["name"]: m for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    summary = {"context": run.context(1) | {"cpu_model": cpu_model()},
               "seconds": seconds, "trace": 0, "workloads": {}}
    del summary["context"]["seed"]
    ok = True
    for name in args.workload or list(run.WORKLOADS):
        values: dict[str, list[float]] = {}
        raw: dict[str, list[float]] = {}
        samples: dict[str, list[int]] = {}
        seeds = list(range(1, args.runs + 1))
        for seed in seeds:
            cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= proc.returncode == 0 and result["correct"]
            report = json.loads((run.OUT / f"{name}-seed{seed}-trace0.json").read_text())
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            for metric, value in report["end_to_end_raw"].items():
                raw.setdefault(metric, []).append(value)
            for metric, count in report["samples"].items():
                samples.setdefault(metric, []).append(count)
            print(f"{name} seed {seed}: exit {proc.returncode}, "
                  + ", ".join(f"{k} {v['value']:.5g}" for k, v in result["metrics"].items()
                              if k in spec), flush=True)
        rows = {}
        for metric, vals in values.items():
            row = {"median": statistics.median(vals), "values": vals}
            if len(vals) >= 2:
                row["spread"] = spread(vals)
            if metric in spec:
                row["raw_median"] = statistics.median(raw[metric])
                row["raw_spread"] = spread(raw[metric]) if len(vals) >= 2 else 0.0
                row["bound"] = spec[metric]["bound"]
                row["samples_per_run"] = [min(samples[metric]), max(samples[metric])]
                flag = "" if row.get("spread", 0) < row["bound"] / 3 else "   <-- spread above bound/3"
                print(f"  {metric:<14} median {row['median']:<12.6g} spread {row.get('spread', 0):.4f}"
                      f"  bound {row['bound']}  (raw spread {row['raw_spread']:.4f}){flag}")
            rows[metric] = row
        summary["workloads"][name] = {"seeds": seeds, "metrics": rows}
    if args.record:
        Path(args.record).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
