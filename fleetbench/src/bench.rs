//! One benchmark iteration: set-up, fleet rounds, output checks, the
//! read-back phases, and (traced) the per-layer replay.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use byterobust_analyzer::AggregationResult;
use byterobust_cluster::FaultCategory;
use byterobust_core::{JobExecution, SegmentOutcome};
use byterobust_fleet::{
    BacklogDrainer, EpochSnapshot, EventScheduler, FleetQuery, FleetReport, IncidentWarehouse,
    QueryResponse, RepeatOffenderLedger, SchedulerKind, SteppingMode, TrafficGenerator,
    WarehouseService, WarehouseStorage,
};
use byterobust_incident::{IncidentDossier, IncidentQuery, JsonValue};
use byterobust_sim::{SimDuration, SimRng};
use byterobust_trainsim::TrainingRuntime;

use crate::cpu;
use crate::heap;
use crate::openloop::{self, PhaseOutcome};
use crate::spans::{self, LayerTotals, Tracer};
use crate::workload::{Inputs, Workload, CACHE_BUDGET, SPILL_BUDGET};

/// Set-ups timed per round (the median is reported).
const SETUP_REPEATS: usize = 5;
/// Latency limit of a live query, from its due time.
const LIVE_LIMIT: Duration = Duration::from_millis(250);
/// How long the ingest replay of a workload without a live service lasts.
const INGEST_SECS: f64 = 2.5;
/// Offered rates of the live and the fixed-rate sealed phase, queries per
/// second: a quarter to a third of what live reads on a mega-shaped
/// warehouse sustain, and an eighth of its sealed capacity, which puts a
/// thousand queries in each sealed window.
const LIVE_RATE: f64 = 150.0;
const SEALED_RATE: f64 = 1_000.0;
/// Windows of the fixed-rate sealed phase, and the length of each. The
/// host's speed drifts within seconds, so the sealed p99 is taken per
/// window and the median over windows is reported.
const SEALED_WINDOWS: u64 = 2;
const SEALED_WINDOW: Duration = Duration::from_secs(1);
/// Latency limit of a sealed query, from its due time.
const SEALED_LIMIT: Duration = Duration::from_millis(25);
/// Length of one probe of the sealed max-rate search.
const PROBE: Duration = Duration::from_millis(150);
/// Bisection steps of the sealed max-rate search.
const PROBE_BISECTIONS: usize = 3;
/// Export→import round trips per iteration.
const CODEC_REPEATS: usize = 3;
/// Rounds whose reports are read back, one per iteration in turn.
const READ_BACKS: u64 = 4;
/// Every `SAMPLE_EVERY`-th live answer is replayed post hoc.
const SAMPLE_EVERY: u64 = 4;
/// Stream offsets keep the phases' queries disjoint.
const SEALED_BASE: u64 = 1 << 32;
const PROBE_BASE: u64 = 1 << 33;
/// Closure tolerance of the traced replay, as a share of its wall.
const CLOSURE_TOLERANCE: f64 = 0.005;

impl Workload {
    /// Fleet rounds per iteration, so that each iteration spends a few
    /// seconds in the fleet itself. Round `r` of every iteration runs the
    /// same inputs, so a run that fits more iterations in its time repeats
    /// inputs rather than taking new ones.
    fn rounds(self) -> u64 {
        match self {
            Workload::MegaRestart => 32,
            Workload::LiveQuery => 24,
            Workload::ProdFleet => 3,
            Workload::SpillFleet => 4,
        }
    }
}

/// Output checks and failed-operation counts of one iteration.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    failed_checks: Vec<String>,
    oracle_checked: u64,
    oracle_mismatched: u64,
}

impl Ledger {
    fn check(&mut self, name: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failed_checks.push(name.to_string());
        }
    }

    fn phase(&mut self, outcome: &PhaseOutcome) {
        self.attempted += outcome.issued();
        self.failed += outcome.missed;
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("attempted", JsonValue::U64(self.attempted)),
            ("failed", JsonValue::U64(self.failed)),
            (
                "failed_checks",
                JsonValue::Array(
                    self.failed_checks
                        .iter()
                        .map(|name| JsonValue::Str(name.clone()))
                        .collect(),
                ),
            ),
            ("oracle_checked", JsonValue::U64(self.oracle_checked)),
            ("oracle_mismatched", JsonValue::U64(self.oracle_mismatched)),
        ])
    }
}

/// A live answer kept for the post-hoc replay check.
struct Sample {
    index: u64,
    epoch: u64,
    hash: u64,
}

fn hash_of(text: &str) -> u64 {
    let mut hasher = DefaultHasher::new();
    text.hash(&mut hasher);
    hasher.finish()
}

fn durations(values: &[Duration]) -> JsonValue {
    JsonValue::Array(
        values
            .iter()
            .map(|d| JsonValue::F64(d.as_secs_f64()))
            .collect(),
    )
}

fn u64s(values: &[u64]) -> JsonValue {
    JsonValue::Array(values.iter().map(|&v| JsonValue::U64(v)).collect())
}

fn f64s(values: &[f64]) -> JsonValue {
    JsonValue::Array(values.iter().map(|&v| JsonValue::F64(v)).collect())
}

fn snake(name: &str) -> String {
    let mut out = String::new();
    for (i, ch) in name.chars().enumerate() {
        if ch.is_ascii_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.push(ch.to_ascii_lowercase());
        } else {
            out.push(ch);
        }
    }
    out
}

const CATEGORIES: [&str; 3] = ["explicit", "implicit", "manual_restart"];

fn category_name(category: FaultCategory) -> &'static str {
    match category {
        FaultCategory::Explicit => "explicit",
        FaultCategory::Implicit => "implicit",
        FaultCategory::ManualRestart => "manual_restart",
    }
}

/// What a round built before its first event.
struct Built {
    inputs: Inputs,
    service: Option<WarehouseService>,
    runner: byterobust_fleet::FleetRunner,
    traffic: TrafficGenerator,
}

/// Builds the configs, the runner and the traffic tables `SETUP_REPEATS`
/// times, keeping the last build; returns it with every set-up time (CPU
/// time of the calling thread).
fn set_up(workload: Workload, seed: u64, round: u64, spill_dir: &Path) -> (Built, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        let started = cpu::now();
        let inputs = Inputs::generate(workload, seed, round);
        let service =
            (workload == Workload::LiveQuery).then(|| WarehouseService::new(CACHE_BUDGET));
        let runner = inputs.runner(workload, spill_dir, service.as_ref());
        let traffic = inputs.traffic();
        times.push((cpu::now() - started).as_secs_f64());
        // Dropping the previous build is not set-up work.
        built = Some(Built {
            inputs,
            service,
            runner,
            traffic,
        });
    }
    (built.expect("at least one set-up"), times)
}

/// Answers query `index` on the service's latest epoch; the answer comes
/// back with its epoch for the post-hoc check.
fn serve_live(
    service: &WarehouseService,
    traffic: &TrafficGenerator,
    index: u64,
    tracer: &mut Option<Tracer>,
) -> Option<(u64, QueryResponse)> {
    let query = traffic.query(index);
    let snapshot = service.latest()?;
    let response = answer(&snapshot, &query, tracer, LIVE_PLAN_LAYERS)?;
    Some((snapshot.epoch(), response))
}

const LIVE_PLAN_LAYERS: [&str; 6] = [
    "fleet.service.answer.machine",
    "fleet.service.answer.category",
    "fleet.service.answer.severity_floor",
    "fleet.service.answer.time_bucket",
    "fleet.service.answer.scan",
    "fleet.service.answer.digest",
];
const SEALED_PLAN_LAYERS: [&str; 6] = [
    "fleet.service.sealed_answer.machine",
    "fleet.service.sealed_answer.category",
    "fleet.service.sealed_answer.severity_floor",
    "fleet.service.sealed_answer.time_bucket",
    "fleet.service.sealed_answer.scan",
    "fleet.service.sealed_answer.digest",
];
const PLANS: [&str; 6] = [
    "machine",
    "category",
    "severity_floor",
    "time_bucket",
    "scan",
    "digest",
];

/// Answers one query on a pinned snapshot through the planner. With a
/// tracer, the call is wrapped in a span named after the plan it took.
fn answer(
    snapshot: &EpochSnapshot,
    query: &FleetQuery,
    tracer: &mut Option<Tracer>,
    layers: [&'static str; 6],
) -> Option<QueryResponse> {
    let span = tracer.as_mut().map(|t| t.open(layers[5]));
    let answered = snapshot.answer(query);
    if let (Some(tracer), Some(span)) = (tracer.as_mut(), span) {
        let plan = answered
            .as_ref()
            .and_then(|(_, plan)| plan.map(|p| p.label()))
            .unwrap_or("digest");
        let slot = PLANS.iter().position(|&p| p == plan).unwrap_or(5);
        tracer.close_as(span, layers[slot]);
    }
    answered.map(|(response, _)| response)
}

/// Replays sampled live answers against `answer_on(snapshot_at(epoch))`.
fn check_samples(
    service: &WarehouseService,
    traffic: &TrafficGenerator,
    samples: &[Sample],
    ledger: &mut Ledger,
    tracer: &mut Option<Tracer>,
) {
    for sample in samples {
        let span = tracer.as_mut().map(|t| t.open("fleet.service.oracle"));
        let replayed = service.snapshot_at(sample.epoch).and_then(|snapshot| {
            service
                .answer_on(&snapshot, &traffic.query(sample.index))
                .map(|r| hash_of(&r.render()))
        });
        if let (Some(tracer), Some(span)) = (tracer.as_mut(), span) {
            tracer.close(span);
        }
        ledger.attempted += 1;
        ledger.oracle_checked += 1;
        if replayed != Some(sample.hash) {
            ledger.failed += 1;
            ledger.oracle_mismatched += 1;
        }
    }
}

/// Drives the live reader against `service` until it is sealed.
fn live_reader(
    service: &WarehouseService,
    traffic: &TrafficGenerator,
    rate: f64,
    tracer: &mut Option<Tracer>,
) -> (PhaseOutcome, Vec<Sample>) {
    let mut samples = Vec::new();
    let mut reader_tracer = tracer.take();
    let outcome = openloop::drive(
        rate,
        LIVE_LIMIT,
        |_, _| service.is_sealed(),
        |index| serve_live(service, traffic, index, &mut reader_tracer),
        |index, (epoch, response)| {
            if index % SAMPLE_EVERY == 0 {
                samples.push(Sample {
                    index,
                    epoch,
                    hash: hash_of(&response.render()),
                });
            }
        },
    );
    *tracer = reader_tracer;
    (outcome, samples)
}

/// The output checks every fleet run must pass.
fn check_report(report: &FleetReport, inputs: &Inputs, ledger: &mut Ledger) {
    let stored: usize = report
        .jobs
        .iter()
        .map(|job| job.report.incident_store.len())
        .sum();
    ledger.check("warehouse_len", report.warehouse.len() == stored);
    let finished = report.jobs.len() == inputs.config.jobs.len()
        && report
            .jobs
            .iter()
            .zip(&inputs.config.jobs)
            .all(|(job, config)| job.report.ettr.total_time() >= config.config.duration);
    ledger.check("every_job_finished", finished);
    let ettr = report.fleet_ettr();
    ledger.check("fleet_ettr_in_range", ettr > 0.0 && ettr <= 1.0);
    let incidents = report.total_incidents();
    ledger.check(
        "event_count",
        report.events_processed >= incidents
            && report.events_processed <= incidents + report.jobs.len(),
    );
}

/// Incidents of each category (explicit, implicit, manual restart).
fn category_counts(report: &FleetReport) -> [u64; 3] {
    let mut counts = [0; 3];
    for job in &report.jobs {
        for incident in &job.report.incidents {
            counts[CATEGORIES
                .iter()
                .position(|&c| c == category_name(incident.category))
                .expect("category is listed")] += 1;
        }
    }
    counts
}

fn mix_of(report: &FleetReport, mix: &mut BTreeMap<String, u64>) {
    for job in &report.jobs {
        for incident in &job.report.incidents {
            let key = format!(
                "mix.{}.{}",
                category_name(incident.category),
                snake(&format!("{:?}", incident.mechanism))
            );
            *mix.entry(key).or_default() += 1;
        }
    }
}

/// One fleet run: its report, the CPU time and the wall of the run call,
/// the stepping thread's speed factor when it was not the caller's, and the
/// live reader's outcome when a service was attached.
struct FleetRun {
    report: FleetReport,
    cpu: Duration,
    speed: Option<f64>,
    wall: Duration,
    live: Option<(PhaseOutcome, Vec<Sample>)>,
}

/// Steps the fleet serially (`run_stepped(Heap, Serial)`), timing the call
/// on the calling thread's CPU clock and on the wall clock. Serial stepping
/// keeps the run on one thread: the default `FleetRunner::run()` resolves
/// to one stepping thread per core, and on a host whose cores are shared
/// with other guests its wall time measures their load more than the
/// fleet. It is also the stepping the traced replay reproduces.
fn step_serially(built: &Built) -> (FleetReport, Duration, Duration) {
    let started = Instant::now();
    let (report, cpu) = cpu::timed(|| {
        built
            .runner
            .run_stepped(SchedulerKind::Heap, SteppingMode::Serial)
    });
    (report, cpu, started.elapsed())
}

/// Runs the fleet once, serially: on the calling thread, or, on a workload
/// with a service (`live_query`), on a thread of its own beside one
/// open-loop reader, calibrated before and after the run.
fn run_fleet(built: &Built, reader_tracer: &mut Option<Tracer>) -> FleetRun {
    let Some(service) = &built.service else {
        let (report, cpu, wall) = step_serially(built);
        return FleetRun {
            report,
            cpu,
            speed: None,
            wall,
            live: None,
        };
    };
    std::thread::scope(|scope| {
        let fleet = scope.spawn(|| {
            let before = cpu::speed();
            let (report, cpu, wall) = step_serially(built);
            (report, cpu, (before + cpu::speed()) / 2.0, wall)
        });
        // Epoch 0 is published before the first event.
        while service.latest().is_none() && !fleet.is_finished() {
            std::thread::yield_now();
        }
        let live = live_reader(service, &built.traffic, LIVE_RATE, reader_tracer);
        let (report, cpu, speed, wall) = fleet.join().expect("fleet thread");
        FleetRun {
            report,
            cpu,
            speed: Some(speed),
            wall,
            live: Some(live),
        }
    })
}

/// The live phase of a workload without a live service: the fleet's
/// dossiers are re-ingested in event order into a fresh warehouse, at an
/// even pace over `INGEST_SECS`, publishing an epoch per insert, while the
/// reader queries at the workload's live rate. With tracers, the writer records a span
/// per publish on its own tracer, which is returned.
fn ingest_phase(
    report: &FleetReport,
    traffic: &TrafficGenerator,
    rate: f64,
    tracer: &mut Option<Tracer>,
) -> (PhaseOutcome, Vec<Sample>, WarehouseService, Option<Tracer>) {
    let mut dossiers: Vec<(&str, Arc<IncidentDossier>)> = report
        .jobs
        .iter()
        .flat_map(|job| {
            job.report
                .incident_store
                .all()
                .iter()
                .map(move |d| (job.label.as_str(), Arc::clone(d)))
        })
        .collect();
    dossiers.sort_by(|a, b| (a.1.at, a.0, a.1.seq).cmp(&(b.1.at, b.0, b.1.seq)));
    let service = WarehouseService::new(CACHE_BUDGET);
    let mut warehouse = IncidentWarehouse::new(report.warehouse.bucket_width());
    service.publish(&warehouse);
    let mut writer_tracer = tracer.as_ref().map(Tracer::sibling);
    let (outcome, samples) = std::thread::scope(|scope| {
        scope.spawn(|| {
            let started = Instant::now();
            let step = INGEST_SECS / dossiers.len().max(1) as f64;
            for (k, (label, dossier)) in dossiers.iter().enumerate() {
                // The writer's own lateness does not matter: it sleeps.
                let due = Duration::from_secs_f64(k as f64 * step);
                if let Some(left) = due.checked_sub(started.elapsed()) {
                    std::thread::sleep(left);
                }
                warehouse.insert_shared(label, Arc::clone(dossier));
                let span = writer_tracer
                    .as_mut()
                    .map(|t| t.open("fleet.service.publish"));
                service.publish(&warehouse);
                if let (Some(t), Some(span)) = (writer_tracer.as_mut(), span) {
                    t.close(span);
                }
            }
            service.seal();
        });
        live_reader(&service, traffic, rate, tracer)
    });
    (outcome, samples, service, writer_tracer)
}

/// The sealed phase: fixed-rate windows on the final snapshot, each on its
/// own stretch of the stream, then the highest rate that keeps up.
fn sealed_phase(
    service: &WarehouseService,
    traffic: &TrafficGenerator,
    tracer: &mut Option<Tracer>,
) -> (Vec<PhaseOutcome>, f64) {
    let snapshot = service.latest().expect("sealed service has an epoch");
    // The snapshot's posting lists are built by its first query, and a
    // spilled shard is faulted into the segment cache by the first query
    // that reads it: one full scan does both before timing.
    let _ = snapshot.answer(&FleetQuery::Incidents(IncidentQuery::any()));
    let windows: Vec<PhaseOutcome> = (0..SEALED_WINDOWS)
        .map(|window| {
            let base = SEALED_BASE + (window << 24);
            openloop::drive(
                SEALED_RATE,
                SEALED_LIMIT,
                |_, due| due >= SEALED_WINDOW,
                |index| {
                    answer(
                        &snapshot,
                        &traffic.query(base + index),
                        tracer,
                        SEALED_PLAN_LAYERS,
                    )
                },
                |_, _| {},
            )
        })
        .collect();
    let issued: u64 = windows.iter().map(PhaseOutcome::issued).sum();
    let total_ns: u64 = windows.iter().flat_map(|w| &w.latencies_ns).sum();
    let mean_ns = total_ns as f64 / issued.max(1) as f64;
    // Every probe replays the same stretch of the stream, so probes differ
    // only in their rate.
    let probe = |rate| {
        let outcome = openloop::drive(
            rate,
            SEALED_LIMIT,
            |_, due| due >= PROBE,
            |index| {
                answer(
                    &snapshot,
                    &traffic.query(PROBE_BASE + index),
                    &mut None,
                    SEALED_PLAN_LAYERS,
                )
            },
            |_, _| {},
        );
        openloop::kept_up(&outcome, SEALED_LIMIT)
    };
    // A probe that falls behind is repeated once, so that a single stall
    // of the host does not end the search.
    let max_qps = openloop::max_rate(0.8e9 / mean_ns.max(1.0), PROBE_BISECTIONS, |rate| {
        probe(rate) || probe(rate)
    });
    (windows, max_qps)
}

/// The host beside every number: core count, the stepping mode of the
/// timed runs (and the one `FleetRunner::run()` would resolve to here), and
/// the build profile.
pub fn host_json() -> JsonValue {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    JsonValue::object(vec![
        ("nproc", JsonValue::U64(nproc as u64)),
        (
            "stepping",
            JsonValue::Str(format!("{:?}", SteppingMode::Serial)),
        ),
        (
            "default_stepping",
            JsonValue::Str(format!("{:?}", SteppingMode::from_env())),
        ),
        (
            "profile",
            JsonValue::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_string(),
            ),
        ),
    ])
}

/// A per-round spill directory under the work directory.
fn spill_dir(work: &Path, tag: &str, round: u64) -> PathBuf {
    work.join(format!("spill-{}-{tag}-{round}", std::process::id()))
}

/// The read-back phases every workload ends with, on its last round's
/// report: the live phase (unless the fleet run had one), the sealed phase
/// (only when `with_sealed`), and the export→import round trip.
struct ReadBack {
    live: (PhaseOutcome, Vec<Sample>),
    writer: Option<Tracer>,
    live_epochs: u64,
    sealed: Option<Sealed>,
    export: Vec<Duration>,
    import: Vec<Duration>,
    /// The speed factor measured before each export and each import.
    export_speed: Vec<f64>,
    import_speed: Vec<f64>,
    export_bytes: u64,
}

/// What the sealed phase measured.
struct Sealed {
    windows: Vec<PhaseOutcome>,
    max_qps: f64,
    cache_hits: u64,
    cache_faults: u64,
}

fn read_back(
    run: FleetRun,
    built: &Built,
    ledger: &mut Ledger,
    live_tracer: &mut Option<Tracer>,
    tracer: &mut Option<Tracer>,
    with_sealed: bool,
) -> (ReadBack, FleetReport) {
    let FleetRun { report, live, .. } = run;
    let (live, live_service, writer) = match live {
        Some(live) => (live, built.service.clone().expect("live service"), None),
        None => {
            let (outcome, samples, service, writer) =
                ingest_phase(&report, &built.traffic, LIVE_RATE, live_tracer);
            ((outcome, samples), service, writer)
        }
    };
    ledger.phase(&live.0);
    check_samples(&live_service, &built.traffic, &live.1, ledger, tracer);
    let live_epochs = live_service.stats().epochs;
    drop(live_service);

    let sealed = with_sealed.then(|| {
        let service = match &built.service {
            Some(service) => service.clone(),
            None => {
                let service = WarehouseService::new(CACHE_BUDGET);
                service.publish(&report.warehouse);
                service.seal();
                service
            }
        };
        let (windows, max_qps) = sealed_phase(&service, &built.traffic, tracer);
        for window in &windows {
            ledger.phase(window);
        }
        let cache = service.stats().cache;
        Sealed {
            windows,
            max_qps,
            cache_hits: cache.hits,
            cache_faults: cache.faults,
        }
    });

    let mut export = Vec::with_capacity(CODEC_REPEATS);
    let mut import = Vec::with_capacity(CODEC_REPEATS);
    let mut export_speed = Vec::with_capacity(CODEC_REPEATS);
    let mut import_speed = Vec::with_capacity(CODEC_REPEATS);
    let mut json = String::new();
    let mut imported = None;
    for _ in 0..CODEC_REPEATS {
        export_speed.push(cpu::speed());
        let (exported, took) = cpu::timed(|| report.warehouse.export_json());
        json = exported;
        export.push(took);
        import_speed.push(cpu::speed());
        let (copy, took) = cpu::timed(|| IncidentWarehouse::import_json(&json));
        imported = Some(copy);
        import.push(took);
    }
    let round_trip = match imported {
        Some(Ok(copy)) => copy.render_digest() == report.warehouse.render_digest(),
        _ => false,
    };
    ledger.check("export_import_digest", round_trip);
    (
        ReadBack {
            live,
            writer,
            live_epochs,
            sealed,
            export,
            import,
            export_speed,
            import_speed,
            export_bytes: json.len() as u64,
        },
        report,
    )
}

/// Renders the report: the first part of the fleet's teardown. Returns
/// its CPU time.
fn render(report: &FleetReport) -> Duration {
    let (text, took) = cpu::timed(|| report.render());
    std::hint::black_box(text.len());
    took
}

/// Drops the report: the rest of the fleet's teardown. Returns its CPU
/// time.
fn drop_report(report: FleetReport) -> Duration {
    cpu::timed(|| drop(report)).1
}

/// The order in which iteration `iteration` runs the rounds. The last one
/// is read back: it cycles through the first `READ_BACKS` rounds, so that
/// every run of a few iterations reads back the same few reports, with
/// their own query streams. The others run before it, starting from a
/// different one each iteration, so that the first run of a fresh process
/// (cold, and the one whose peak memory is read) falls on a different input
/// each time.
fn round_order(rounds: u64, iteration: u64) -> Vec<u64> {
    let last = iteration % rounds.min(READ_BACKS);
    let mut order: Vec<u64> = (0..rounds).filter(|&round| round != last).collect();
    if !order.is_empty() {
        let shift = (iteration % order.len() as u64) as usize;
        order.rotate_left(shift);
    }
    order.push(last);
    order
}

/// A live phase's CPU-clock and wall-clock latencies.
fn live_json(outcome: &PhaseOutcome) -> JsonValue {
    JsonValue::object(vec![
        ("cpu_ns", u64s(&outcome.queue_latencies())),
        ("wall_ns", u64s(&outcome.latencies_ns)),
    ])
}

/// One untraced iteration; returns its measurements as one JSON object and
/// whether every output check passed. Every iteration runs every round on
/// the same inputs (see [`round_order`]); each round's figures are keyed by
/// the round, so that `run.py` can set the repetitions of one piece of work
/// side by side.
pub fn measure(workload: Workload, seed: u64, iteration: u64, work: &Path) -> (JsonValue, bool) {
    let mut ledger = Ledger::default();
    let mut rounds = Vec::new();
    let mut live = Vec::new();
    let mut mix = BTreeMap::new();
    let mut read_back_result = None;
    let mut no_tracer = None;
    let order = round_order(workload.rounds(), iteration);
    for (k, &round) in order.iter().enumerate() {
        let dir = spill_dir(work, "run", round);
        // The main thread is calibrated before the set-ups and after the
        // fleet run; a fleet run on this thread takes the mean of the two.
        let before = cpu::speed();
        heap::reset_peak();
        let (built, setup) = set_up(workload, seed, round, &dir);
        let mut run = run_fleet(&built, &mut no_tracer);
        let after = cpu::speed();
        ledger.attempted += run.report.events_processed as u64;
        check_report(&run.report, &built.inputs, &mut ledger);
        mix_of(&run.report, &mut mix);
        let (events, ettr) = (run.report.events_processed as u64, run.report.fleet_ettr());
        let fleet_speed = run.speed.unwrap_or((before + after) / 2.0);
        let (cpu, wall) = (run.cpu, run.wall);
        let rendered = render(&run.report);
        // The round's peak memory, read before the read-back phases add
        // their own.
        let peak_heap = heap::peak_bytes();
        let report = if k + 1 == order.len() {
            let (back, report) =
                read_back(run, &built, &mut ledger, &mut None, &mut no_tracer, false);
            read_back_result = Some(back);
            report
        } else {
            if let (Some((outcome, samples)), Some(service)) = (run.live.take(), &built.service) {
                ledger.phase(&outcome);
                check_samples(
                    service,
                    &built.traffic,
                    &samples,
                    &mut ledger,
                    &mut no_tracer,
                );
                live.push(live_json(&outcome));
            }
            run.report
        };
        drop(built);
        let finish = rendered + drop_report(report);
        let _ = std::fs::remove_dir_all(&dir);
        rounds.push(JsonValue::object(vec![
            ("round", JsonValue::U64(round)),
            ("events", JsonValue::U64(events)),
            ("cpu_s", JsonValue::F64(cpu.as_secs_f64())),
            ("fleet_speed", JsonValue::F64(fleet_speed)),
            ("wall_s", JsonValue::F64(wall.as_secs_f64())),
            ("finish_s", JsonValue::F64(finish.as_secs_f64())),
            ("setup_s", f64s(&setup)),
            ("setup_speed", JsonValue::F64(before)),
            ("finish_speed", JsonValue::F64(after)),
            ("fleet_ettr", JsonValue::F64(ettr)),
            ("peak_heap_bytes", JsonValue::U64(peak_heap as u64)),
        ]));
    }
    let back = read_back_result.expect("the last round reads back");
    // On `live_query` the read-back's live queries are the last fleet
    // run's; elsewhere they are the ingest phase's.
    live.push(live_json(&back.live.0));
    let ok = ledger.failed_checks.is_empty();
    let json = JsonValue::object(vec![
        ("workload", JsonValue::Str(workload.name().to_string())),
        ("seed", JsonValue::U64(seed)),
        ("host", host_json()),
        ("rounds", JsonValue::Array(rounds)),
        ("live", JsonValue::Array(live)),
        ("export_s", durations(&back.export)),
        ("import_s", durations(&back.import)),
        ("export_speed", f64s(&back.export_speed)),
        ("import_speed", f64s(&back.import_speed)),
        (
            "mix",
            JsonValue::Object(
                mix.into_iter()
                    .map(|(k, v)| (k, JsonValue::U64(v)))
                    .collect(),
            ),
        ),
        ("ledger", ledger.to_json()),
    ]);
    (json, ok)
}

/// The traced replay: the fleet's jobs (same seeds) stepped the way
/// `run_stepped(Heap, Serial)` steps a fleet without a broker, through the
/// public pieces it is made of. Events are taken in batches of one
/// scheduling quantum from an `EventScheduler` with the fleet's tie-break
/// stream. Each event first returns swept machines to the shared pool, then
/// advances its job through `JobExecution::advance_with_pool`. A new
/// dossier is fed to the offender ledger and the drainer, inserted into a
/// warehouse and published when the workload has a live service, and an
/// implicit incident's stacks are captured and aggregated at its job's
/// spec. A changed offender set is handed to every monitor at the end of
/// the batch. Returns the replay wall and, when traced, the tracer.
fn replay(
    workload: Workload,
    built: &Built,
    spill_dir: &Path,
    mut tracer: Option<Tracer>,
) -> (Duration, Option<Tracer>) {
    let config = &built.inputs.config;
    let mut executions: Vec<JobExecution> = config
        .jobs
        .iter()
        .zip(built.runner.job_seeds())
        .map(|(job, seed)| JobExecution::new(job.config.clone(), seed))
        .collect();
    if config.lean_trace {
        for execution in &mut executions {
            execution.controller_mut().trace_mut().disable();
        }
    }
    // The runner forks one stream per job, then the tie-break stream.
    let mut rng = SimRng::new(built.inputs.fleet_seed);
    for i in 0..executions.len() {
        rng.fork(i as u64 + 1);
    }
    let mut tie_rng = rng.fork(0xF1EE7);
    let runtimes: Vec<TrainingRuntime> = config
        .jobs
        .iter()
        .map(|job| TrainingRuntime::new(job.config.job.clone()))
        .collect();
    let mut pool = config.shared_pool();
    let mut drainer = BacklogDrainer::new();
    let mut offenders = RepeatOffenderLedger::new(config.repeat_offender_threshold);
    let mut warehouse = if workload == Workload::SpillFleet {
        IncidentWarehouse::with_storage(
            config.bucket_width,
            WarehouseStorage::new(SPILL_BUDGET, spill_dir),
        )
    } else {
        IncidentWarehouse::new(config.bucket_width)
    };
    let service = built
        .service
        .as_ref()
        .map(|_| WarehouseService::new(CACHE_BUDGET));
    if let Some(service) = &service {
        service.publish(&warehouse);
    }
    let mut scheduler = EventScheduler::new(SchedulerKind::Heap, &executions);
    let quantum = executions
        .iter()
        .map(JobExecution::scheduling_time_floor)
        .min()
        .unwrap_or(SimDuration::from_secs(1));
    let mut batch = Vec::new();

    macro_rules! span {
        ($layer:expr, $body:expr) => {
            match tracer.as_mut() {
                Some(t) => {
                    let id = t.open($layer);
                    let out = $body;
                    t.close(id);
                    out
                }
                None => $body,
            }
        };
    }

    let started = Instant::now();
    let root = tracer.as_mut().map(|t| t.open("unattributed"));
    while let Some((first_at, first_job)) = scheduler.next(&executions, &mut tie_rng) {
        // One batch: every event before the quantum ends, clamped to any
        // job end inside it.
        batch.clear();
        let mut window_end = first_at + quantum;
        let mut pick = Some((first_at, first_job));
        while let Some((at, job)) = pick {
            let end = executions[job].end_at();
            if at < end && end < window_end {
                window_end = end;
            }
            batch.push((at, job));
            pick = scheduler.next_in_window(&executions, &mut tie_rng, window_end, &[]);
        }
        let mut offenders_changed = false;
        for &(at, index) in &batch {
            for sweep in drainer.tick(at) {
                for &machine in &sweep.passed {
                    pool.restock(machine);
                }
            }
            let span = tracer.as_mut().map(|t| t.open("core.advance.finish"));
            let outcome = executions[index].advance_with_pool(&mut pool);
            match outcome {
                SegmentOutcome::Finished => {
                    if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
                        t.close(span);
                    }
                }
                SegmentOutcome::Incident { seq } => {
                    let dossier = executions[index]
                        .incident_store()
                        .get_shared(seq)
                        .expect("closed incident is stored");
                    if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
                        t.close_as(span, advance_layer(category_name(dossier.category)));
                    }
                    let label = &config.jobs[index].label;
                    offenders_changed |= offenders.observe(&dossier);
                    drainer.dispatch(label, &dossier, dossier.at + dossier.cost.total());
                    span!(
                        "fleet.warehouse.insert",
                        warehouse.insert_shared(label, Arc::clone(&dossier))
                    );
                    if let Some(service) = &service {
                        span!("fleet.service.publish", service.publish(&warehouse));
                    }
                    if dossier.category == FaultCategory::Implicit {
                        let stacks =
                            span!("trainsim.capture_stacks", runtimes[index].capture_stacks());
                        let aggregate =
                            span!("analyzer.aggregate", AggregationResult::aggregate(&stacks));
                        std::hint::black_box(aggregate);
                    }
                }
            }
            scheduler.reschedule(index, &executions);
        }
        if offenders_changed {
            let shared = offenders.offenders_shared();
            for execution in &mut executions {
                execution
                    .controller_mut()
                    .monitor_mut()
                    .set_repeat_offenders_shared(shared.clone());
            }
        }
    }
    if let (Some(t), Some(root)) = (tracer.as_mut(), root) {
        t.close(root);
    }
    let wall = started.elapsed();
    (wall, tracer)
}

fn median_secs(values: &[Duration]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort();
    sorted[sorted.len() / 2].as_secs_f64().max(1e-9)
}

fn advance_layer(category: &str) -> &'static str {
    match category {
        "explicit" => "core.advance.explicit",
        "implicit" => "core.advance.implicit",
        _ => "core.advance.manual_restart",
    }
}

fn mean_us(layers: &BTreeMap<&'static str, LayerTotals>, layer: &str) -> f64 {
    layers
        .get(layer)
        .filter(|t| t.count > 0)
        .map_or(0.0, |t| t.total_ns as f64 / t.count as f64 / 1e3)
}

fn count(layers: &BTreeMap<&'static str, LayerTotals>, layer: &str) -> u64 {
    layers.get(layer).map_or(0, |t| t.count)
}

fn total_ns(layers: &BTreeMap<&'static str, LayerTotals>, prefix: &str) -> u64 {
    layers
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(_, t)| t.total_ns)
        .sum()
}

/// What one traced iteration produced.
pub struct Traced {
    /// The per-layer metrics.
    pub metrics: Vec<(String, f64)>,
    /// Every span, as JSON lines.
    pub spans: String,
    /// Latencies of every live query, ns.
    pub live_ns: Vec<u64>,
    /// The same latencies on the reader's CPU clock, ns.
    pub live_cpu_ns: Vec<u64>,
    /// The live generator's issue lateness when it found itself idle, ns.
    pub late_ns: Vec<u64>,
    /// Latencies of each fixed-rate sealed window, ns.
    pub sealed_windows: Vec<Vec<u64>>,
    /// The highest sealed rate that kept up, queries per second.
    pub max_qps: f64,
    /// The checks that failed (the closure and replay checks included).
    pub failed_checks: Vec<String>,
}

/// One traced iteration: the fleet once under a span, the replay untraced
/// and traced, and the read-back phases with spans around each query.
pub fn trace(workload: Workload, seed: u64, work: &Path) -> Traced {
    let origin = Instant::now();
    let mut ledger = Ledger::default();
    let rounds = workload.rounds();
    let mut fleet_tracer = Tracer::new(origin);
    let mut reader = Some(Tracer::new(origin));
    // The fleet runs once under a span, stepped serially like the replay
    // that is subtracted from it. On `live_query` every round runs, so that
    // the live reader sees as many queries as an untraced iteration; the
    // last round is the one replayed and read back.
    let mut last = None;
    let mut live_ns = Vec::new();
    let mut live_cpu_ns = Vec::new();
    for round in 0..if workload == Workload::LiveQuery {
        rounds
    } else {
        1
    } {
        let dir = spill_dir(work, "trace", round);
        let (built, _) = set_up(workload, seed, round, &dir);
        let fleet_span = fleet_tracer.open("fleet.run");
        let run = run_fleet(&built, &mut reader);
        fleet_tracer.close(fleet_span);
        check_report(&run.report, &built.inputs, &mut ledger);
        if let Some((_, earlier, _, dir)) = last.replace((built, run, fleet_span, dir)) {
            if let Some((outcome, _)) = earlier.live {
                live_cpu_ns.extend(outcome.queue_latencies());
                live_ns.extend(outcome.latencies_ns);
            }
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    let (built, run, fleet_span, dir) = last.expect("at least one fleet round");
    let fleet_wall_ns = fleet_tracer.duration_ns(fleet_span);
    let ops = run.report.scheduler_ops;
    let spill = run.report.warehouse.spill_stats();
    let incidents = run.report.total_incidents().max(1) as f64;
    let fleet_epochs = built.service.as_ref().map_or(0, |s| s.stats().epochs);

    // A warm-up replay (its first allocations are page faults the others
    // do not pay), then untraced, traced, untraced: the traced replay is
    // compared with the mean of the two around it, so drift favours
    // neither.
    let replay_dir = spill_dir(work, "replay", 0);
    let mut plain = Duration::ZERO;
    let mut traced = None;
    for (k, tracer) in [None, None, Some(Tracer::new(origin)), None]
        .into_iter()
        .enumerate()
    {
        let with_tracer = tracer.is_some();
        let (wall, tracer) = replay(workload, &built, &replay_dir, tracer);
        let _ = std::fs::remove_dir_all(&replay_dir);
        if with_tracer {
            traced = Some((wall, tracer));
        } else if k > 0 {
            plain += wall / 2;
        }
    }
    let (traced_wall, replay_tracer) = traced.expect("traced replay");
    let plain_wall = plain;
    let replay_tracer = replay_tracer.expect("traced replay");
    let layers = replay_tracer.layers();
    ledger.check(
        "trace_closure",
        spans::closure_holds(&layers, traced_wall.as_nanos() as u64, CLOSURE_TOLERANCE),
    );
    // The replay must have advanced the jobs through the fleet's events,
    // or the layer times below would describe another run.
    let replayed = CATEGORIES.map(|c| count(&layers, advance_layer(c)));
    ledger.check(
        "replay_matches_fleet",
        replayed == category_counts(&run.report),
    );

    let mut epilogue = Some(Tracer::new(origin));
    let (back, report) = read_back(run, &built, &mut ledger, &mut reader, &mut epilogue, true);
    let sealed = back.sealed.as_ref().expect("traced runs read back sealed");
    let epilogue = epilogue.expect("read-back tracer");
    drop(built);
    drop(report);
    let _ = std::fs::remove_dir_all(&dir);
    let reader = reader.expect("reader tracer");
    let reader_layers = reader.layers();
    let epilogue_layers = epilogue.layers();

    let replayed_fleet_ns = total_ns(&layers, "core.advance.")
        + total_ns(&layers, "fleet.warehouse.insert")
        + total_ns(&layers, "fleet.service.publish");
    let live_queries = back.live.0.issued() as f64;
    let cache_lookups = sealed.cache_hits + sealed.cache_faults;
    let export_mb = back.export_bytes as f64 / 1e6;
    let unattributed = layers
        .get("unattributed")
        .map_or(0, |t| t.self_ns.max(0) as u64);

    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| metrics.push((name.to_string(), value));
    for category in CATEGORIES {
        let layer = advance_layer(category);
        put(
            &format!("core.advance_us.{category}"),
            mean_us(&layers, layer),
        );
        put(
            &format!("core.advance_n.{category}"),
            count(&layers, layer) as f64,
        );
    }
    put(
        "trainsim.capture_stacks_us",
        mean_us(&layers, "trainsim.capture_stacks"),
    );
    put(
        "analyzer.aggregate_us",
        mean_us(&layers, "analyzer.aggregate"),
    );
    put(
        "fleet.self_s",
        (fleet_wall_ns as f64 - replayed_fleet_ns as f64) / 1e9,
    );
    put("fleet.scheduler.picks", ops.picks as f64);
    put("fleet.scheduler.heap_pushes", ops.heap_pushes as f64);
    put("fleet.scheduler.stale_drops", ops.stale_drops as f64);
    put(
        "fleet.warehouse.insert_us",
        mean_us(&layers, "fleet.warehouse.insert"),
    );
    // Where the fleet run publishes (`live_query`), the replay times it;
    // elsewhere only the read-back ingest publishes.
    let publish_us = match &back.writer {
        Some(writer) => mean_us(&writer.layers(), "fleet.service.publish"),
        None => mean_us(&layers, "fleet.service.publish"),
    };
    put("fleet.service.publish_us", publish_us);
    put("fleet.service.epochs", fleet_epochs as f64);
    for (plan, layer) in PLANS.iter().zip(LIVE_PLAN_LAYERS) {
        put(
            &format!("fleet.service.answer_us.{plan}"),
            mean_us(&reader_layers, layer),
        );
    }
    for (plan, layer) in PLANS.iter().zip(SEALED_PLAN_LAYERS) {
        put(
            &format!("fleet.service.sealed_answer_us.{plan}"),
            mean_us(&epilogue_layers, layer),
        );
    }
    put(
        "fleet.service.oracle_us",
        mean_us(&epilogue_layers, "fleet.service.oracle"),
    );
    put(
        "fleet.service.queries_per_epoch",
        live_queries / back.live_epochs.max(1) as f64,
    );
    put(
        "fleet.service.cache_hit_ratio",
        if cache_lookups == 0 {
            0.0
        } else {
            sealed.cache_hits as f64 / cache_lookups as f64
        },
    );
    put(
        "fleet.warehouse.spill_bytes_per_incident",
        spill.spill_bytes_written as f64 / incidents,
    );
    put(
        "fleet.warehouse.segments_written",
        spill.segments_written as f64,
    );
    put("fleet.warehouse.fault_ins", spill.fault_ins as f64);
    put(
        "fleet.warehouse.fault_in_bytes",
        spill.fault_in_bytes as f64,
    );
    put(
        "incident.codec.export_mb_per_s",
        export_mb / median_secs(&back.export),
    );
    put(
        "incident.codec.import_mb_per_s",
        export_mb / median_secs(&back.import),
    );
    put(
        "incident.codec.bytes_per_incident",
        back.export_bytes as f64 / incidents,
    );
    put(
        "trace.overhead_pct",
        (traced_wall.as_secs_f64() / plain_wall.as_secs_f64().max(1e-9) - 1.0) * 100.0,
    );
    put(
        "trace.unattributed_pct",
        unattributed as f64 / traced_wall.as_nanos().max(1) as f64 * 100.0,
    );

    let mut spans_out = String::new();
    fleet_tracer.write_jsonl("fleet", &mut spans_out);
    replay_tracer.write_jsonl("replay", &mut spans_out);
    reader.write_jsonl("live", &mut spans_out);
    epilogue.write_jsonl("read_back", &mut spans_out);
    if let Some(writer) = &back.writer {
        writer.write_jsonl("ingest", &mut spans_out);
    }
    Traced {
        metrics,
        spans: spans_out,
        sealed_windows: sealed
            .windows
            .iter()
            .map(|window| window.latencies_ns.clone())
            .collect(),
        max_qps: sealed.max_qps,
        live_cpu_ns: live_cpu_ns
            .into_iter()
            .chain(back.live.0.queue_latencies())
            .collect(),
        live_ns: live_ns
            .into_iter()
            .chain(back.live.0.latencies_ns)
            .collect(),
        late_ns: back.live.0.idle_late_ns,
        failed_checks: ledger.failed_checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_iteration_runs_every_round_and_reads_back_a_fixed_few() {
        for rounds in [1, 3, 4, 32] {
            let mut firsts = std::collections::BTreeSet::new();
            let mut lasts = std::collections::BTreeSet::new();
            for iteration in 0..2 * rounds {
                let order = round_order(rounds, iteration);
                let mut sorted = order.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..rounds).collect::<Vec<_>>());
                firsts.insert(order[0]);
                lasts.insert(*order.last().expect("rounds"));
            }
            let read_backs = rounds.min(READ_BACKS);
            assert_eq!(lasts, (0..read_backs).collect());
            // The first run of a fresh process turns through the rounds.
            assert!(firsts.len() as u64 >= rounds.min(READ_BACKS), "{firsts:?}");
        }
    }
}
