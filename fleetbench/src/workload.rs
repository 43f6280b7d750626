//! The four benchmark workloads and their generated inputs.
//!
//! Everything a run feeds the program — the fleet configuration, the fleet
//! seed and the query stream — is a pure function of (workload, seed,
//! round). The program receives only these generated inputs.

use std::path::Path;

use byterobust_core::JobConfig;
use byterobust_fleet::{
    FleetConfig, FleetJob, FleetRunner, TrafficConfig, TrafficGenerator, WarehouseService,
    WarehouseStorage,
};
use byterobust_sim::{SimDuration, SimRng};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Mega-drill job shapes, in-memory warehouse, default stepping mode.
    MegaRestart,
    /// The paper's §8.1 production jobs at 9,600 GPUs each.
    ProdFleet,
    /// Mega-drill shapes with a live query service and one reader thread.
    LiveQuery,
    /// Mega-drill shapes with a warehouse spill budget below the dossier
    /// count.
    SpillFleet,
}

/// 64-machine jobs kept from the mega drill.
pub const MEGA_SMALL_JOBS: usize = 16;
/// 128-machine jobs kept from the mega drill.
pub const MEGA_LARGE_JOBS: usize = 8;
/// Simulated duration of every mega-shaped job.
pub const MEGA_DAYS: u64 = 5;
/// Production jobs in each `prod_fleet` round: one dense, one MoE.
pub const PROD_JOBS: usize = 2;
/// Resident dossier budget of `spill_fleet`'s warehouse, below the ~4.3k
/// dossiers the fleet produces. Lower budgets make the spill rewrites grow
/// faster than the run (3,072 already doubles the fleet wall).
pub const SPILL_BUDGET: usize = 3_584;
/// Segment-cache budget of every query service the benchmark builds. It
/// exceeds the largest warehouse, so the cache never thrashes.
pub const CACHE_BUDGET: usize = 1 << 16;

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::MegaRestart,
        Workload::ProdFleet,
        Workload::LiveQuery,
        Workload::SpillFleet,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MegaRestart => "mega_restart",
            Workload::ProdFleet => "prod_fleet",
            Workload::LiveQuery => "live_query",
            Workload::SpillFleet => "spill_fleet",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn tag(self) -> u64 {
        Workload::ALL
            .iter()
            .position(|&w| w == self)
            .expect("workload is in ALL") as u64
            + 1
    }
}

/// The generated inputs of one fleet round.
pub struct Inputs {
    /// The fleet configuration (without the spill directory or the query
    /// service, which are per-process resources attached by [`Inputs::runner`]).
    pub config: FleetConfig,
    /// The fleet seed.
    pub fleet_seed: u64,
    /// The query-stream configuration.
    pub traffic: TrafficConfig,
}

impl Inputs {
    /// Generates the inputs of `workload` for (`seed`, `round`).
    pub fn generate(workload: Workload, seed: u64, round: u64) -> Inputs {
        let mut rng = SimRng::new(seed ^ workload.tag().rotate_left(48));
        let mut rng = rng.fork(round + 1);
        let fleet_seed = rng.fork(1).seed();
        let traffic_seed = rng.fork(2).seed();
        let config = match workload {
            Workload::ProdFleet => prod_fleet(),
            _ => mega_shapes(),
        };
        let labels: Vec<String> = config.jobs.iter().map(|job| job.label.clone()).collect();
        let machines = config.total_machines() as u32;
        let horizon_hours = config
            .jobs
            .iter()
            .map(|job| job.config.duration.as_secs_f64() as u64 / 3_600)
            .max()
            .unwrap_or(1);
        Inputs {
            config,
            fleet_seed,
            traffic: TrafficConfig::new(traffic_seed, labels, machines, horizon_hours),
        }
    }

    /// Builds the runner, attaching the per-process resources the workload
    /// needs: a spill directory for `spill_fleet`, the query service for
    /// `live_query`.
    pub fn runner(
        &self,
        workload: Workload,
        spill_dir: &Path,
        service: Option<&WarehouseService>,
    ) -> FleetRunner {
        let mut config = self.config.clone();
        if workload == Workload::SpillFleet {
            config = config.with_warehouse_storage(WarehouseStorage::new(SPILL_BUDGET, spill_dir));
        }
        if let Some(service) = service {
            config = config.with_query_service(service.clone());
        }
        FleetRunner::new(config, self.fleet_seed)
    }

    /// The query stream's generator (precomputes the zipf tables).
    pub fn traffic(&self) -> TrafficGenerator {
        TrafficGenerator::new(self.traffic.clone())
    }

    /// A text rendering of every generated input, for the purity test.
    #[cfg(test)]
    pub fn describe(&self, queries: u64) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "fleet seed {}", self.fleet_seed);
        for job in &self.config.jobs {
            let _ = writeln!(out, "{} {:?} {:?}", job.label, job.priority, job.config);
        }
        let _ = writeln!(
            out,
            "pool {:?} lean {} broker {:?}",
            self.config.pool_override, self.config.lean_trace, self.config.broker
        );
        let _ = writeln!(out, "traffic {:?}", self.traffic);
        let generator = self.traffic();
        for index in 0..queries {
            let _ = writeln!(out, "{}", generator.query(index).export_json());
        }
        out
    }
}

/// The mega-drill job shapes, trimmed to a run of about half a second: the
/// first `MEGA_SMALL_JOBS` 64-machine and `MEGA_LARGE_JOBS` 128-machine jobs,
/// each running `MEGA_DAYS` simulated days.
fn mega_shapes() -> FleetConfig {
    let mut config = FleetConfig::mega_drill();
    let mut small = 0;
    let mut large = 0;
    config.jobs.retain(|job| {
        if job.config.job.machines() == 64 {
            small += 1;
            small <= MEGA_SMALL_JOBS
        } else {
            large += 1;
            large <= MEGA_LARGE_JOBS
        }
    });
    for job in &mut config.jobs {
        job.config.duration = SimDuration::from_days(MEGA_DAYS);
    }
    config
}

/// The §8.1 production jobs, alternating dense (three months) and MoE (one
/// month), 9,600 GPUs each, lean trace.
fn prod_fleet() -> FleetConfig {
    let jobs = (0..PROD_JOBS)
        .map(|i| {
            if i % 2 == 0 {
                FleetJob::new(
                    format!("prod-dense-{i:02}"),
                    JobConfig::production_dense_three_months(),
                )
            } else {
                FleetJob::new(
                    format!("prod-moe-{i:02}"),
                    JobConfig::production_moe_one_month(),
                )
            }
        })
        .collect();
    FleetConfig::new(jobs).with_lean_trace()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_pure_function_of_workload_seed_and_round() {
        for workload in Workload::ALL {
            let a = Inputs::generate(workload, 7, 0).describe(256);
            let b = Inputs::generate(workload, 7, 0).describe(256);
            assert_eq!(a, b, "{}: same seed, different inputs", workload.name());
            let other_seed = Inputs::generate(workload, 8, 0).describe(256);
            assert_ne!(a, other_seed, "{}: seed is ignored", workload.name());
            let other_round = Inputs::generate(workload, 7, 1).describe(256);
            assert_ne!(a, other_round, "{}: round is ignored", workload.name());
        }
    }

    #[test]
    fn workload_shapes_match_their_descriptions() {
        let mega = Inputs::generate(Workload::MegaRestart, 1, 0).config;
        assert_eq!(mega.jobs.len(), MEGA_SMALL_JOBS + MEGA_LARGE_JOBS);
        assert!(mega.lean_trace && mega.broker.is_none());
        assert!(mega
            .jobs
            .iter()
            .all(|job| job.config.duration == SimDuration::from_days(MEGA_DAYS)));
        let prod = Inputs::generate(Workload::ProdFleet, 1, 0).config;
        assert_eq!(prod.jobs.len(), PROD_JOBS);
        assert!(prod
            .jobs
            .iter()
            .all(|job| job.config.job.world_size() == 9_600));
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
    }
}
