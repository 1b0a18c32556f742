"""Run one benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload loop-oracles --seed 1 --seconds 32 --trace 0

Run from the repository root; the engine is imported from ``src``.  The run

1. times set-up in fresh interpreters (``setup_s``, the median of a few);
2. prepares the workload and makes one untimed warm-up query;
3. makes the once-per-run queries, then whole rounds of queries (cycling
   through the workload's round variants) for ``--seconds``, until at
   least ``MIN_QUERIES`` were made and at least one full pass over the
   variants; ``peak_rss_mb`` is read when that first pass ends, so that it
   measures a fixed amount of work whatever the machine's speed;
4. checks every answer and prints one JSON object as the last line.

End-to-end times are scaled to a reference host speed with the calibration
in ``calibrate``, which is timed every 0.1 s between queries.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones, computed from spans that are also written to
``bench/results/``.  A query fails if it raises or its check fails.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S, Calibration
from spans import NullTracer, Tracer, growth_per_k, ms_per_call, per_k_curve, self_time_ms

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "bench" / "results"
SETUP_PROBES = 7
CAL_AROUND_PROBE = 3
# p90 needs at least ten samples above it
MIN_QUERIES = 100

END_TO_END = [
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("parser.parse_program.ms_per_call", "ms"),
    ("parser.parse_exp.ms_per_call", "ms"),
    ("parser.chars_per_s", "1/s"),
    ("wp.wp_loop_free.ms_per_call", "ms"),
    ("wp.wp_loop_free.out_nodes", "count"),
    ("wp.Dist.expectation.ms_per_call", "ms"),
    ("wp.forward_dist.ms_per_call", "ms"),
    ("wp.kleene_iterate.ms_per_call", "ms"),
    ("wp.path_sum.ms_per_call", "ms"),
    ("wp.char_iterates.ms_per_call", "ms"),
    ("wp.kleene_iterate.growth_per_k", "ratio"),
    ("wp.path_sum.growth_per_k", "ratio"),
    ("wp.char_iterates.growth_per_k", "ratio"),
    ("semantics.eval_exp.qf.ms_per_call", "ms"),
    ("semantics.eval_exp.unrolled.ms_per_call", "ms"),
    ("semantics.eval_exp.quantified.ms_per_call", "ms"),
    ("semantics.eval_exp.oracle.ms_per_call", "ms"),
    ("normalform.to_prenex.ms_per_call", "ms"),
    ("normalform.to_snf.ms_per_call", "ms"),
    ("normalform.to_dnf.ms_per_call", "ms"),
    ("normalform.dnf_recover.ms_per_call", "ms"),
    ("normalform.to_dnf.out_nodes", "count"),
    ("goedel.encode_seq.ms_per_call", "ms"),
    ("goedel.decode_seq.ms_per_call", "ms"),
    ("goedel.encode_state.ms_per_call", "ms"),
    ("goedel.decode_state.ms_per_call", "ms"),
    ("series.make_sum.ms_per_call", "ms"),
    ("series.make_product.ms_per_call", "ms"),
    ("series.odot.ms_per_call", "ms"),
    ("series.dedekind_product.ms_per_call", "ms"),
    ("series.odot.out_nodes", "count"),
    ("loops.encode_loop.ms_per_call", "ms"),
    ("loops.plan_eval.ms_per_call", "ms"),
    ("loops.plan_eval.growth_per_k", "ratio"),
    ("loops.pure.ms_per_call", "ms"),
    ("loops.pure.out_nodes", "count"),
    ("loops.pure.rss_growth_mb", "MB"),
    ("cli.import_ms", "ms"),
    ("cli.wp.ms_per_call", "ms"),
    ("cli.forward.ms_per_call", "ms"),
    ("cli.normalize.ms_per_call", "ms"),
    ("cli.goedel.ms_per_call", "ms"),
    ("cli.series.ms_per_call", "ms"),
    ("cli.encode-loop.ms_per_call", "ms"),
]


def measure_setup(workload: str, seed: int, cal: Calibration) -> float:
    """Median seconds from starting a fresh interpreter to its first query.

    Each probe imports the engine, prepares the workload, makes one warm-up
    query and prints a line; the time runs until that line arrives, and is
    scaled by calibrations made just before and after the probe.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--probe"]
    times = []
    for _ in range(SETUP_PROBES):
        around = [cal.sample() for _ in range(CAL_AROUND_PROBE)]
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if code != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        around += [cal.sample() for _ in range(CAL_AROUND_PROBE)]
        times.append(elapsed * REFERENCE_S / statistics.median(around))
    return statistics.median(times)


class Runner:
    """Makes queries, times them, checks them, and counts failures."""

    def __init__(self, tracer, cal: Calibration):
        self.tracer = tracer
        self.cal = cal
        # (start, end) of each checked query
        self.spans: list[tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def attempt(self, query) -> bool:
        self.cal.maybe_sample()
        self.tracer.query(self.attempted)
        self.attempted += 1
        started = time.perf_counter()
        try:
            answer = query.run(self.tracer)
        except Exception as exc:  # a raising query is a failed query; keep running
            return self._fail(query, repr(exc))
        ended = time.perf_counter()
        try:
            ok = bool(query.check(answer))
        except Exception as exc:  # a check that cannot read the answer fails it
            return self._fail(query, f"check raised {exc!r}")
        if not ok:
            return self._fail(query, f"wrong answer {answer!r}"[:300])
        self.spans.append((started, ended))
        return True

    def _fail(self, query, why: str) -> bool:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"{query.name}: {why}")
        return False


def end_to_end(runner: Runner, setup_s: float, peak_rss_mb: float) -> dict:
    """The end-to-end metrics, with every latency scaled to the reference host."""
    runner.cal.sample()  # one after the last query
    lat = [(end - start) * runner.cal.scale(start, end) for start, end in runner.spans]
    return {
        "setup_s": setup_s,
        "queries_per_s": len(lat) / sum(lat),
        "query_p50_ms": 1000 * statistics.median(lat),
        "query_p90_ms": 1000 * statistics.quantiles(lat, n=10)[8],
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(spans: list[dict]) -> dict:
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    out = {}
    for metric, _ in PER_LAYER:
        base, stat = metric.rsplit(".", 1)
        group = by_name.get(base, [])
        if metric == "parser.chars_per_s":
            parses = by_name.get("parser.parse_program", []) + by_name.get("parser.parse_exp", [])
            busy = sum(s["end"] - s["start"] for s in parses)
            value = sum(s["chars"] for s in parses) / busy if busy else 0.0
        elif metric == "cli.import_ms":
            value = ms_per_call(by_name.get("cli.import", []))
        elif stat == "ms_per_call":
            value = ms_per_call(group)
        elif stat == "growth_per_k":
            value = growth_per_k(group)
        else:
            counted = [s[stat] for s in group if stat in s]
            value = statistics.fmean(counted) if counted else 0.0
        out[metric] = value
    return out


def probe(workload) -> int:
    tracer = NullTracer()
    workload.prepare(tracer)
    ok = Runner(tracer, Calibration()).attempt(workload.rounds[0][0])
    print("ready" if ok else "warm-up failed", flush=True)
    return 0 if ok else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, one child process at a time.

    Prints each run's result line, then one combined line whose metric
    names are prefixed with the workload.
    """
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            print(f"{name} trace={trace} {lines[-1]}", flush=True)
            result = json.loads(lines[-1])
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for every workload with and without tracing")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="internal: prepare, warm up, print 'ready' and exit")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import wpengine
    except ImportError as exc:
        print(f"cannot import the engine from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(wpengine.__file__).resolve().parent != ROOT / "src" / "wpengine":
        print(f"imported the engine from {wpengine.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, ROOT, probe=args.probe)
    try:
        if args.probe:
            return probe(workload)

        cal = Calibration()
        setup_s = measure_setup(args.workload, args.seed, cal)
        tracer = Tracer() if args.trace else NullTracer()
        workload.prepare(tracer)
        warm_ok = Runner(tracer, cal).attempt(workload.rounds[0][0])
        runner = Runner(tracer, cal)

        started = time.perf_counter()
        for query in workload.once:
            runner.attempt(query)
        kept = len(runner.spans)
        for query in getattr(workload, "side", ()):
            runner.attempt(query)
        del runner.spans[kept:]
        # the rounds get the full --seconds whatever the once-per-run and side
        # queries took, so a slow construction does not also cut them short
        rounds_started = time.perf_counter()
        rounds = 0
        variants = len(workload.rounds)
        while True:
            for query in workload.rounds[rounds % variants]:
                runner.attempt(query)
            rounds += 1
            if rounds == variants:
                peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            now = time.perf_counter()
            if (rounds >= variants and now - rounds_started >= args.seconds
                    and runner.attempted >= MIN_QUERIES):
                break
        wall = now - started
    finally:
        if hasattr(workload, "cleanup"):
            workload.cleanup()

    e2e = end_to_end(runner, setup_s, peak) if runner.spans else {}
    if args.trace:
        values, units = per_layer(tracer.spans), dict(PER_LAYER)
    else:
        values, units = e2e, dict(END_TO_END)
    result = {
        "correct": warm_ok and runner.failed == 0 and bool(runner.spans),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {**result, "rounds": rounds, "wall_s": wall, "failures": runner.failures,
              "end_to_end": e2e, "calibration_ms": 1000 * statistics.median(cal.durations)}
    if args.trace:
        spans = tracer.spans
        detail["self_time_ms"] = self_time_ms(spans)
        swept: dict[str, list[dict]] = {}
        for s in spans:
            if "k" in s:
                swept.setdefault(s["name"], []).append(s)
        detail["per_k_ms"] = {name: per_k_curve(group) for name, group in swept.items()}
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(spans))
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    for line in runner.failures:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
