"""One workload child process: set up, say READY, run batches, report JSON.

Run by `run.py`, never by hand:
    python3 bench/child.py WORKLOAD SEED CHILD BUDGET_S TRACE

The parent times set-up from spawning this process to reading its READY
line.  After READY the child runs whole batches of its input pool until
BUDGET_S seconds of batches have passed (at least one batch), then prints one
JSON line with its timings, failures and, when traced, its span totals.
"""
from __future__ import annotations

import json
import resource
import signal
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


class Gauge:
    """Machine-speed readings taken at even intervals while the child measures.

    The machine's speed drifts by tens of percent within seconds, for reasons
    outside this process.  Every EVERY_S seconds a SIGALRM handler times a
    fixed loop of small-int arithmetic (about 4.5 ms), which touches no
    library code and almost no memory.  The parent scales the run's times by
    the mean reading.  `clock()` is perf_counter minus the time spent in the
    handler, so the readings never count as the workload's time.
    """

    EVERY_S = 0.1

    def __init__(self):
        self.readings: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        x = 0
        for i in range(50_000):
            x = (x * 31 + i) & 255
        elapsed = perf_counter() - t0
        self.readings.append(elapsed)
        self.spent += elapsed

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.EVERY_S, self.EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def clock(self) -> float:
        while True:
            spent = self.spent
            now = perf_counter()
            if self.spent == spent:  # no reading landed between the two loads
                return now - spent


def set_up(name: str, seed: int, child: int, tracer):
    """The workload and its input pool, generated with the tracer (if any) off.

    Input generation calls library functions (cli-mixed reconstructs every
    request's basis); with the tracer off they add no span, no call and no
    repeat key to the traced figures.
    """
    import workloads

    if tracer is not None:
        tracer.active = False
    workload = workloads.WORKLOADS[name](tracer)
    pool = workload.pool(seed, child)
    if tracer is not None:
        tracer.active = True
    return workload, pool


def main(argv: list[str]) -> int:
    name, seed, child, budget, traced = argv
    seed, child, budget, traced = int(seed), int(child), float(budget), traced == "1"
    import parkbases

    if Path(parkbases.__file__).resolve().parent != ROOT / "src" / "parkbases":
        print(f"parkbases imported from {parkbases.__file__}, not from this checkout", file=sys.stderr)
        return 3
    import gen
    import spans

    tracer = None
    if traced:
        tracer = spans.Tracer()
        spans.install(tracer)
    workload, pool = set_up(name, seed, child, tracer)
    inputs = gen.digest(pool)
    proto = sys.stdout
    proto.write("READY\n")
    proto.flush()

    # Traced children take no readings, so that no span holds one; the
    # parent scales their times with the untraced children's readings.
    gauge = Gauge()
    clock = gauge.clock
    workload.clock = clock
    batch_s, records, failures = [], [], []
    attempted = failed = 0
    if not traced:
        gauge.start()
    begin = perf_counter()
    for batch in pool:
        spent = 0.0
        for item in batch:
            if tracer is not None:
                tracer.current_item = attempted
            t0 = clock()
            try:
                out = workload.run(item)
            except Exception as exc:  # noqa: BLE001 - a crash is a failed item, not a dead run
                out = exc
            seconds = clock() - t0
            if tracer is not None:
                tracer.active = False
            answers = workload.attempted(item)
            attempted += answers
            if isinstance(out, Exception):
                wrong = [f"{type(out).__name__}: {out}"] * answers
                spent += seconds
            else:
                wrong = workload.check(item, out)
                timed = workload.records(item, out, seconds)
                records.extend(timed)
                spent += sum(r[1] for r in timed)
            if tracer is not None:
                tracer.active = True
            failed += min(len(wrong), answers)
            failures.extend(wrong[: max(0, 5 - len(failures))])
        batch_s.append(spent)
        if perf_counter() - begin >= budget:
            break
    gauge.stop()
    measured = perf_counter() - begin

    result = {
        "inputs": inputs,
        "batch_s": batch_s,
        "gauge_s": gauge.readings,
        "records": records,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "measured_s": measured,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        span_dir = ROOT / ".bench_out" / "spans"
        span_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(span_dir / f"{name}-seed{seed}-child{child}.tsv.gz")
    proto.write(json.dumps(result) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
