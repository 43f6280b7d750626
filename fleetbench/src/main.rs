//! The repository benchmark's worker: runs one iteration of one workload
//! and prints its raw measurements as one JSON line. `run.py` builds this
//! binary, starts one fresh process per iteration, and turns the iterations
//! into the reported metrics.
//!
//! ```text
//! byterobust-fleetbench measure --workload mega_restart --seed 1 --iteration 0 --work .bench_work
//! byterobust-fleetbench trace   --workload prod_fleet   --seed 1 --work .bench_work
//! ```
//!
//! `measure` exits 1 after printing when an output check failed; `trace`
//! also writes its spans to `<work>/spans-<workload>.jsonl` and exits 1 if
//! they cannot be written or the closure check failed.

mod bench;
mod cpu;
mod heap;
mod openloop;
mod spans;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use byterobust_incident::JsonValue;

use workload::Workload;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

struct Args {
    mode: String,
    workload: Workload,
    seed: u64,
    iteration: u64,
    work: PathBuf,
}

fn parse() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mode = args.next().ok_or("missing mode (measure | trace)")?;
    if mode != "measure" && mode != "trace" {
        return Err(format!("unknown mode `{mode}`"));
    }
    let (mut workload, mut seed, mut iteration, mut work) = (None, None, 0, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--iteration" => iteration = value.parse().map_err(|_| "bad --iteration")?,
            "--work" => work = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        mode,
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        iteration,
        work: work.ok_or("missing --work")?,
    })
}

fn main() -> ExitCode {
    // The workloads measure what a user gets by default: no BYTEROBUST_*
    // flag may steer the program (stepping mode, spill, traffic).
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("BYTEROBUST_") {
            std::env::remove_var(key);
        }
    }
    let args = match parse() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("byterobust-fleetbench: {message}");
            return ExitCode::from(2);
        }
    };
    if !heap::keep_freed_memory() {
        eprintln!(
            "byterobust-fleetbench: the C allocator refused mallopt; timings include unmapping"
        );
    }
    // The first calibration run pays the allocator's first-touch page
    // faults; the ones paired with timed work must not.
    std::hint::black_box(cpu::kernel());
    if let Err(error) = std::fs::create_dir_all(&args.work) {
        eprintln!(
            "byterobust-fleetbench: cannot create {}: {error}",
            args.work.display()
        );
        return ExitCode::FAILURE;
    }
    if args.mode == "measure" {
        let (json, ok) = bench::measure(args.workload, args.seed, args.iteration, &args.work);
        println!("{}", json.render());
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let traced = bench::trace(args.workload, args.seed, &args.work);
    let ok = traced.failed_checks.is_empty();
    let path = args
        .work
        .join(format!("spans-{}.jsonl", args.workload.name()));
    if let Err(error) = std::fs::write(&path, traced.spans) {
        eprintln!(
            "byterobust-fleetbench: cannot write {}: {error}",
            path.display()
        );
        return ExitCode::FAILURE;
    }
    let json = JsonValue::object(vec![
        ("workload", JsonValue::Str(args.workload.name().to_string())),
        ("host", bench::host_json()),
        ("spans", JsonValue::Str(path.display().to_string())),
        (
            "failed_checks",
            JsonValue::Array(
                traced
                    .failed_checks
                    .into_iter()
                    .map(JsonValue::Str)
                    .collect(),
            ),
        ),
        ("live_ns", u64s(traced.live_ns)),
        ("live_cpu_ns", u64s(traced.live_cpu_ns)),
        ("generator_late_ns", u64s(traced.late_ns)),
        (
            "sealed_windows",
            JsonValue::Array(traced.sealed_windows.into_iter().map(u64s).collect()),
        ),
        ("max_qps", JsonValue::F64(traced.max_qps)),
        (
            "metrics",
            JsonValue::Object(
                traced
                    .metrics
                    .into_iter()
                    .map(|(name, value)| (name, JsonValue::F64(value)))
                    .collect(),
            ),
        ),
    ]);
    println!("{}", json.render());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn u64s(values: Vec<u64>) -> JsonValue {
    JsonValue::Array(values.into_iter().map(JsonValue::U64).collect())
}
