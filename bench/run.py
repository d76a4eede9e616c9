"""The parkbases benchmark: three seeded workloads, each in fresh child processes.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Workloads (see NOTES.md for why each exists):
  verify-exhaustive  verify.run_suite(5, "all"), one pass per child process
  sampled-large      uniform random parking functions at n = 64, nine steps each
  cli-mixed          in-process cli.main(argv) requests: reads, bad payloads, writes

Load shape: one thread, a closed loop with one client, children run one after
another.  Each child sets up (interpreter start, `import parkbases`, input
generation), then runs whole batches until its share of --seconds has passed;
the parent spawns children until --seconds of batches have run.

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced children and reports per-layer metrics from the
traced ones, plus the tracing overhead.  Every answer is checked; the last
stdout line is one JSON object, and the exit code is 1 when any answer is wrong.
Details and spans go to .bench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
# A child is killed when it runs this much longer than its budget: its set-up
# plus one batch past the budget take a few seconds at most.
CHILD_SLACK_S = 60.0
# Time figures are expressed at the machine speed where the gauge loop of
# child.py takes this long on average (its mean on the 2-CPU Xeon the
# baseline was recorded on); raw figures are printed and saved next to them.
GAUGE_S = 0.0045
# name: (share of --seconds per child, percentile reported as item_ms_tail).
# Each percentile sits in the middle of a group of like items, not on the edge
# between two: on verify-exhaustive (19 checks a pass) p92 is the middle of the
# second-slowest check's times; on cli-mixed p99 is inside the 2% of
# `enumerate 6 bases` requests.
WORKLOADS = {
    "verify-exhaustive": (0.0, 92),
    "sampled-large": (0.2, 90),
    "cli-mixed": (0.2, 99),
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_tail": "ms",
    "peak_rss_mb": "MiB",
}

# Per-layer metrics printed on the JSON line: call counts of the wrapped
# functions, self time and cost per call of those every workload reaches, and
# the named ratios.  The traced run prints and saves more (see layer_metrics).
COUNTED = [
    "parking.parking_functions", "dbasis.distinguished_bases", "dbasis.validate_basis",
    "linalg.rank", "bijection.reconstruct", "bijection.reconstruct_geometric",
    "bijection.ray_stops", "braid.mutate", "braid.apply_word", "braid.mutate_parking",
    "braid.mutate_diagram", "braid.orbit_graph", "quiver.hom_ext_table", "quiver.hom_dim_oracle",
    "noncrossing.partition_chain", "noncrossing.partition", "noncrossing.maximal_chains",
    "noncrossing.stanley_labels", "noncrossing.chain_to_basis", "render.render",
    "cli.main", "cli.build_parser",
]
TIMED = [
    "dbasis.validate_basis", "linalg.rank", "bijection.reconstruct", "bijection.ray_stops",
    "braid.mutate", "braid.apply_word", "quiver.hom_ext_table", "noncrossing.partition_chain",
    "noncrossing.partition", "noncrossing.stanley_labels", "noncrossing.chain_to_basis",
]
RATIOS = {
    "linalg.rank.share_in_validate_basis": "ratio",
    "dbasis.validate_basis.reject_ratio": "ratio",
    "noncrossing.partition.calls_per_chain": "calls/chain",
    "noncrossing.partition.accept_ratio": "ratio",
    "bijection.reconstruct.repeat_share": "ratio",
    "braid.mutate_parking.repeat_share": "ratio",
    "bijection.ray_stops.share_in_hom_ext_table": "ratio",
    "cli.build_parser.share_in_main": "ratio",
    "cli.self_share": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}
PER_LAYER = (
    {f"{name}.calls": "count" for name in COUNTED}
    | {f"{name}.{m}": unit for name in TIMED for m, unit in (("self_s", "s"), ("us_per_call", "us"))}
    | RATIOS
)


class BenchError(Exception):
    pass


def spawn(name: str, seed: int, child: int, budget: float, traced: bool, limit: float) -> dict:
    """Run one child; returns its result with the parent-measured set-up time."""
    cmd = [sys.executable, str(BENCH / "child.py"), name, str(seed), str(child),
           repr(budget), "1" if traced else "0"]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    watchdog = threading.Timer(limit, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready != "READY\n" or code != 0:
        raise BenchError(f"child {child} of {name} failed (exit {code})")
    result = json.loads(rest.strip().splitlines()[-1])
    result["setup_s"] = setup
    result["traced"] = traced
    return result


def run_children(name: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    share = WORKLOADS[name][0]
    children: list[dict] = []
    measured = 0.0
    start = perf_counter()
    while measured < seconds or (trace and len(children) < 2):
        elapsed = perf_counter() - start
        if children and elapsed > 2 * seconds + 20:
            break
        traced = trace and len(children) % 2 == 1
        result = spawn(name, seed, len(children), share * seconds, traced, share * seconds + CHILD_SLACK_S)
        children.append(result)
        measured += result["measured_s"]
    return children


def quantile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


def speed_factor(children: list[dict]) -> float:
    """GAUGE_S over the mean gauge reading of these children: times multiply by it."""
    readings = [g for c in children for g in c["gauge_s"]]
    return GAUGE_S / statistics.mean(readings)


def end_to_end(name: str, children: list[dict], scale: bool = True) -> tuple[dict, dict]:
    """Metrics from untraced children, and the sample count behind each."""
    plain = [c for c in children if not c["traced"]]
    factor = speed_factor(plain) if scale else 1.0
    setups = [c["setup_s"] * factor for c in plain]
    batches = [s * factor for c in plain for s in c["batch_s"]]
    items = [r[1] * factor for c in plain for r in c["records"]]
    tail = WORKLOADS[name][1]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(batches),
        "items_per_s": len(items) / sum(batches),
        "item_ms_p50": statistics.median(items) * 1e3,
        "item_ms_tail": quantile(items, tail) * 1e3,
        "peak_rss_mb": max(c["maxrss_kb"] for c in plain) / 1024,
    }
    samples = {
        "setup_s": len(plain), "wall_s": len(batches), "items_per_s": len(items),
        "item_ms_p50": len(items), "item_ms_tail": len(items), "peak_rss_mb": len(plain),
    }
    return metrics, samples


def merge_traces(children: list[dict]) -> dict:
    total: dict = {"names": {}, "pairs": {}, "calls": {}, "yields": {}, "repeats": {}}
    for child in children:
        for key, table in child["trace"].items():
            for name, value in table.items():
                if isinstance(value, list):
                    row = total[key].setdefault(name, [0] * len(value))
                    total[key][name] = [a + b for a, b in zip(row, value)]
                else:
                    total[key][name] = total[key].get(name, 0) + value
    return total


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(name: str, children: list[dict]) -> tuple[dict, dict]:
    """Every per-layer figure of the traced children, and the base of each ratio."""
    traced = [c for c in children if c["traced"]]
    plain = [c for c in children if not c["traced"]]
    t = merge_traces(traced)
    names, pairs, calls = t["names"], t["pairs"], t["calls"]
    out: dict[str, float] = {}
    for fn in sorted(calls):
        _, inclusive, self_s, _ = names.get(fn, [0, 0.0, 0.0, 0])
        out[f"{fn}.calls"] = calls[fn]
        out[f"{fn}.self_s"] = self_s
        out[f"{fn}.us_per_call"] = _share(inclusive, calls[fn]) * 1e6
        if fn in t["yields"]:
            out[f"{fn}.us_per_item"] = _share(inclusive, t["yields"][fn]) * 1e6
        if fn.startswith("verify."):
            out[f"{fn}.s"] = _share(inclusive, calls[fn])

    def incl(name):
        return names.get(name, [0, 0.0, 0.0, 0])[1]

    def pair(parent, child):
        return pairs.get(f"{parent}>{child}", [0, 0.0, 0])

    merges = pair("noncrossing.maximal_chains", "noncrossing.partition")
    validate = names.get("dbasis.validate_basis", [0, 0.0, 0.0, 0])
    main_self = names.get("cli.main", [0, 0.0, 0.0, 0])[2]
    parser = pair("cli.main", "cli.build_parser")[1]
    ratios = {
        "linalg.rank.share_in_validate_basis": (
            pair("dbasis.validate_basis", "linalg.rank")[1], incl("dbasis.validate_basis"), "s in validate_basis"),
        "dbasis.validate_basis.reject_ratio": (validate[3], validate[0], "validate_basis calls"),
        "noncrossing.partition.calls_per_chain": (
            pair("noncrossing.partition_chain", "noncrossing.partition")[0],
            calls.get("noncrossing.partition_chain", 0), "partition_chain calls"),
        "noncrossing.partition.accept_ratio": (merges[0] - merges[2], merges[0], "merges tried in maximal_chains"),
        "bijection.reconstruct.repeat_share": (
            t["repeats"].get("bijection.reconstruct", 0), calls.get("bijection.reconstruct", 0), "reconstruct calls"),
        "braid.mutate_parking.repeat_share": (
            t["repeats"].get("braid.mutate_parking", 0), calls.get("braid.mutate_parking", 0), "mutate_parking calls"),
        "bijection.ray_stops.share_in_hom_ext_table": (
            pair("quiver.hom_ext_table", "bijection.ray_stops")[1], incl("quiver.hom_ext_table"), "s in hom_ext_table"),
        "cli.build_parser.share_in_main": (parser, incl("cli.main"), "s in cli.main"),
        "cli.self_share": (main_self + parser, incl("cli.main"), "s in cli.main"),
    }
    bases = {}
    for key, (part, whole, what) in ratios.items():
        out[key] = _share(part, whole)
        bases[key] = f"{whole:.6g} {what}"
    if name == "cli-mixed":
        by_verb: dict[str, list] = {}
        for c in traced:
            for verb, seconds, size in c["records"]:
                by_verb.setdefault(verb, []).append((seconds, size))
        for verb, rows in sorted(by_verb.items()):
            out[f"cli.main.{verb}.ms_p50"] = statistics.median(s for s, _ in rows) * 1e3
            out[f"cli.main.{verb}.bytes_out"] = statistics.mean(b for _, b in rows)
    factor = speed_factor(plain)
    traced_wall = statistics.median(s for c in traced for s in c["batch_s"]) * factor
    plain_wall = statistics.median(s for c in plain for s in c["batch_s"]) * factor
    out["trace.overhead_s"] = traced_wall - plain_wall
    out["trace.overhead_share"] = _share(traced_wall - plain_wall, plain_wall)
    bases["trace.overhead_s"] = f"traced wall_s {traced_wall:.4f} - untraced wall_s {plain_wall:.4f}"
    bases["trace.overhead_share"] = f"{plain_wall:.4f} s untraced wall_s"
    return out, bases


def print_layers(layers: dict, bases: dict) -> None:
    """The traced run's per-function table, then every other per-layer figure."""
    print(f"   {'traced function':<44} {'calls':>9} {'self_s':>10} {'us/call':>10} {'us/item':>9}")
    functions = sorted({key.rsplit(".", 1)[0] for key in layers if key.endswith(".calls")})
    shown = set()
    for fn in functions:
        fields = [f"{fn}.{m}" for m in ("calls", "self_s", "us_per_call", "us_per_item", "s")]
        shown.update(fields)
        if layers[f"{fn}.calls"]:
            item = layers.get(f"{fn}.us_per_item")
            print(f"   {fn:<44} {layers[fn + '.calls']:>9} {layers[fn + '.self_s']:>10.4f} "
                  f"{layers[fn + '.us_per_call']:>10.1f} {'' if item is None else f'{item:9.2f}'}")
    for key, value in layers.items():
        if key not in shown:
            base = f"  (base: {bases[key]})" if key in bases else ""
            print(f"   {key:<44} {value:12.6g}{base}")


def context(seed: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "parkbases").glob("*.py"))
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": seed,
        "src_lines": src_lines,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    children = run_children(name, seed, seconds, trace)
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    metrics, samples = end_to_end(name, children)
    raw, _ = end_to_end(name, children, scale=False)
    report = {
        "workload": name,
        "context": context(seed),
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": [f for c in children for f in c["failures"]][:10],
        "inputs": [c["inputs"] for c in children],
        "end_to_end": metrics,
        "end_to_end_raw": raw,
        "gauge_s": [c["gauge_s"] for c in children],
        "batch_s": [[round(s, 6) for s in c["batch_s"]] for c in children if not c["traced"]],
        "samples": samples,
        "tail_percentile": WORKLOADS[name][1],
    }
    print(f"== {name}  seed {seed}  trace {int(trace)}  children {len(children)}")
    print(f"   inputs sha256/16 per child: {' '.join(report['inputs'])}")
    print(f"   failed_frac {report['failed_frac']:.6g} ratio  ({failed} of {attempted} answers)")
    for failure in report["failures"]:
        print(f"   FAILED {failure[:300]}")
    for key, value in metrics.items():
        note = f"p{WORKLOADS[name][1]}, " if key == "item_ms_tail" else ""
        print(f"   {key:<14} {value:12.6g} {END_TO_END[key]:<4} (raw {raw[key]:.6g}; {note}{samples[key]} samples)")
    if trace:
        layers, bases = layer_metrics(name, children)
        report["per_layer"], report["ratio_bases"] = layers, bases
        print_layers(layers, bases)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(report, indent=1))
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "parkbases" / "__init__.py").is_file():
        print(f"no parkbases sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        reports = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    wanted = PER_LAYER if args.trace else END_TO_END
    key = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for report in reports:
        prefix = "" if len(reports) == 1 else report["workload"] + "."
        for metric, unit in wanted.items():
            metrics[prefix + metric] = {"value": report[key][metric], "unit": unit}
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
