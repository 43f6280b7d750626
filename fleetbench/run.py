#!/usr/bin/env python3
"""The repository benchmark.

Run from the root of a checkout:

    python3 fleetbench/run.py --workload mega_restart --seed 1 --seconds 25 --trace 0

It builds the worker (`fleetbench/Cargo.toml`, release profile, target
directory `$CARGO_TARGET_DIR` or `.bench_build`), then starts one fresh
worker process per iteration until `--seconds` have passed. Every
iteration runs the same rounds on the same inputs, which `--seed` chooses,
and every end-to-end time is CPU time in reference seconds (see
`fleetbench/README.md`). With
`--trace 0` the iterations are untraced and the result holds
every end-to-end metric; with `--trace 1` each iteration is a traced run and
the result holds every per-layer metric. The last line of standard output
is one JSON object: `correct`, `attempted`, `failed` and `metrics`.

The exit code is 0 only if every worker passed its output checks and the
result file under `.bench_work/` was written.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
WORKER = "byterobust-fleetbench"
# A worker runs for a few seconds; one that runs this long has hung.
WORKER_TIMEOUT_S = 150
MIN_ITERATIONS = {0: 2, 1: 1}

WORKLOADS = ("mega_restart", "prod_fleet", "live_query", "spill_fleet")

END_TO_END = {
    "setup_s": "s",
    "events_per_s": "1/s",
    "finish_s": "s",
    "peak_heap_mb": "MB",
    "fleet_ettr": "ratio",
    "query_live_p50_ms": "ms",
    "export_s": "s",
    "import_s": "s",
}

PLANS = ("machine", "category", "severity_floor", "time_bucket", "scan", "digest")
PER_LAYER = {
    **{f"core.advance_us.{c}": "us" for c in ("explicit", "implicit", "manual_restart")},
    **{f"core.advance_n.{c}": "count" for c in ("explicit", "implicit", "manual_restart")},
    "trainsim.capture_stacks_us": "us",
    "analyzer.aggregate_us": "us",
    "fleet.self_s": "s",
    "fleet.scheduler.picks": "count",
    "fleet.scheduler.heap_pushes": "count",
    "fleet.scheduler.stale_drops": "count",
    "fleet.warehouse.insert_us": "us",
    "fleet.service.publish_us": "us",
    "fleet.service.epochs": "count",
    "query_live_p99_ms": "ms",
    "query_sealed_p99_ms": "ms",
    "query_sealed_max_qps": "1/s",
    **{f"fleet.service.answer_us.{p}": "us" for p in PLANS},
    **{f"fleet.service.sealed_answer_us.{p}": "us" for p in PLANS},
    "fleet.service.oracle_us": "us",
    "fleet.service.queries_per_epoch": "ratio",
    "fleet.service.cache_hit_ratio": "ratio",
    "fleet.warehouse.spill_bytes_per_incident": "B",
    "fleet.warehouse.segments_written": "count",
    "fleet.warehouse.fault_ins": "count",
    "fleet.warehouse.fault_in_bytes": "B",
    "incident.codec.export_mb_per_s": "MB/s",
    "incident.codec.import_mb_per_s": "MB/s",
    "incident.codec.bytes_per_incident": "B",
    "live.generator_late_ms": "ms",
    "live.wall_p50_ms": "ms",
    "live.wall_p99_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
}


def fail(message):
    print(f"fleetbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(env):
    """Builds the worker; its output goes to stderr so stdout stays clean."""
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if result.returncode != 0:
        fail(f"building the worker failed (cargo exit {result.returncode})")
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", WORKER)
    if not os.path.isfile(binary):
        fail(f"worker binary missing at {binary}")
    return binary


def run_worker(argv, env, out_path):
    """Runs one worker in a fresh process; returns (exit code, its last
    stdout line)."""
    with open(out_path, "wb") as out:
        child = subprocess.Popen(argv, env=env, stdout=out)
        try:
            code = child.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"worker timed out after {WORKER_TIMEOUT_S} s: {' '.join(argv)}")
        finally:
            # Timed out, interrupted or terminated: never leave the worker behind.
            if child.poll() is None:
                child.kill()
                child.wait()
    with open(out_path, encoding="utf-8") as text:
        lines = [line for line in text.read().splitlines() if line.strip()]
    os.remove(out_path)
    return code, (lines[-1] if lines else "")


def quantile_ms(samples_ns, q):
    """The nearest-rank `q`-quantile of samples in ns, in ms. Every reported
    quantile is taken here: the live ones over the queries of all iterations
    pooled, the sealed p99 per one-second window (the host's speed drifts
    within seconds) with the median over windows reported."""
    ordered = sorted(samples_ns)
    rank = min(max(math.ceil(q * len(ordered)), 1), len(ordered))
    return ordered[rank - 1] / 1e6


def per_round(records, field, speed):
    """For each round, the median over its repetitions of `field`; times
    in reference seconds (each CPU time times the factor `speed` that the
    same thread measured beside it)."""
    times = {}
    for record in records:
        for piece in record["rounds"]:
            values = piece[field] if isinstance(piece[field], list) else [piece[field]]
            factor = piece[speed] if speed else 1.0
            times.setdefault(piece["round"], []).extend(v * factor for v in values)
    return {round_: statistics.median(values) for round_, values in times.items()}


def end_to_end(records):
    """Turns the untraced iterations into the end-to-end metrics, each with
    the number of samples behind it."""
    pieces = sum(len(r["rounds"]) for r in records)
    events = {p["round"]: p["events"] for r in records for p in r["rounds"]}
    run = per_round(records, "cpu_s", "fleet_speed")
    finish = per_round(records, "finish_s", "finish_speed")
    setup = per_round(records, "setup_s", "setup_speed")
    heap = per_round(records, "peak_heap_bytes", None)
    ettr = [p["fleet_ettr"] for r in records for p in r["rounds"]]
    live = [x for r in records for phase in r["live"] for x in phase["cpu_ns"]]
    export = [x * f for r in records for x, f in zip(r["export_s"], r["export_speed"])]
    import_ = [x * f for r in records for x, f in zip(r["import_s"], r["import_speed"])]
    return {
        "setup_s": (statistics.fmean(setup.values()),
                    sum(len(p["setup_s"]) for r in records for p in r["rounds"])),
        "events_per_s": (sum(events.values()) / sum(run.values()), pieces),
        "finish_s": (statistics.fmean(finish.values()), pieces),
        "peak_heap_mb": (statistics.fmean(heap.values()) / 2**20, pieces),
        "fleet_ettr": (statistics.median(ettr), len(ettr)),
        "query_live_p50_ms": (quantile_ms(live, 0.50), len(live)),
        "export_s": (statistics.median(export), len(export)),
        "import_s": (statistics.median(import_), len(import_)),
    }


def per_layer(records):
    names = records[0]["metrics"].keys()
    metrics = {
        name: (statistics.median(r["metrics"][name] for r in records), len(records))
        for name in names
    }
    live = [x for r in records for x in r["live_cpu_ns"]]
    metrics["query_live_p99_ms"] = (quantile_ms(live, 0.99), len(live))
    wall = [x for r in records for x in r["live_ns"]]
    metrics["live.wall_p50_ms"] = (quantile_ms(wall, 0.50), len(wall))
    metrics["live.wall_p99_ms"] = (quantile_ms(wall, 0.99), len(wall))
    sealed = [w for r in records for w in r["sealed_windows"]]
    metrics["query_sealed_p99_ms"] = (statistics.median(quantile_ms(w, 0.99) for w in sealed),
                                      sum(map(len, sealed)))
    metrics["query_sealed_max_qps"] = (statistics.median(r["max_qps"] for r in records),
                                       len(records))
    late = [x for r in records for x in r["generator_late_ns"]]
    metrics["live.generator_late_ms"] = (quantile_ms(late, 0.99), len(late))
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so a running worker is killed too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    work = os.path.join(root, ".bench_work")
    os.makedirs(work, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("BYTEROBUST_")}
    env["CARGO_TARGET_DIR"] = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(env)

    mode = "trace" if args.trace else "measure"
    records = []
    durations = []
    started = time.monotonic()
    while True:
        elapsed = time.monotonic() - started
        expected = statistics.median(durations) if durations else 0.0
        if len(records) >= MIN_ITERATIONS[args.trace] and elapsed + expected / 2 >= args.seconds:
            break
        iteration = len(records)
        argv = [binary, mode, "--workload", args.workload, "--seed", str(args.seed),
                "--iteration", str(iteration), "--work", work]
        begun = time.monotonic()
        code, line = run_worker(
            argv, env, os.path.join(work, f"worker-{os.getpid()}-{iteration}.out"))
        durations.append(time.monotonic() - begun)
        if not line:
            fail(f"worker printed nothing (exit {code}): {' '.join(argv)}")
        record = json.loads(line)
        record["exit"] = code
        records.append(record)
        if code != 0:
            break

    if args.trace:
        metrics = per_layer(records)
        units = PER_LAYER
        correct = all(r["exit"] == 0 and not r["failed_checks"] for r in records)
        attempted, failed = len(records), sum(r["exit"] != 0 for r in records)
    else:
        metrics = end_to_end(records)
        units = END_TO_END
        correct = all(r["exit"] == 0 and not r["ledger"]["failed_checks"] for r in records)
        attempted = sum(r["ledger"]["attempted"] for r in records)
        failed = sum(r["ledger"]["failed"] for r in records)
    missing = set(units) ^ set(metrics)
    if missing:
        fail(f"metric set differs from the declared one: {sorted(missing)}")

    host = records[0]["host"]
    print(f"fleetbench {args.workload} seed={args.seed} trace={args.trace} "
          f"iterations={len(records)} wall={time.monotonic() - started:.1f}s")
    print(f"  host: nproc={host['nproc']} stepping={host['stepping']} "
          f"(default {host['default_stepping']}) profile={host['profile']}")
    for name, (value, samples) in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {units[name]:<6} (n={samples})")
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "iterations": len(records), "host": host,
              "samples": {name: samples for name, (_, samples) in metrics.items()}}
    if args.trace:
        detail.update(failed_checks=sorted({c for r in records for c in r["failed_checks"]}))
    else:
        mix = {}
        for record in records:
            for key, count in record["mix"].items():
                mix[key] = mix.get(key, 0) + count
        factors = sorted(p["fleet_speed"] for r in records for p in r["rounds"])
        detail.update(speed_factor={"min": factors[0], "median": statistics.median(factors),
                                    "max": factors[-1]},
                      raw_events_per_s=sum(p["events"] for r in records for p in r["rounds"])
                      / sum(p["cpu_s"] for r in records for p in r["rounds"]),
                      mix=mix,
                      failed_checks=sorted({c for r in records for c in r["ledger"]["failed_checks"]}),
                      oracle_checked=sum(r["ledger"]["oracle_checked"] for r in records),
                      oracle_mismatched=sum(r["ledger"]["oracle_mismatched"] for r in records))
        for key in sorted(mix):
            print(f"  {key:<44} {mix[key]:>16d} count")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }
    print(json.dumps({"detail": detail}))
    out = os.path.join(work, f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    try:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump({"result": result, "detail": detail}, handle, indent=1)
    except OSError as error:
        fail(f"cannot write {out}: {error}")
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
