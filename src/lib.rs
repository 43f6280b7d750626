//! # ByteRobust-RS
//!
//! A Rust reproduction of **"Robust LLM Training Infrastructure at ByteDance"**
//! (ByteRobust, SOSP 2025). The workspace implements the paper's control plane
//! — automated fault tolerance, data-driven over-eviction, and controlled swift
//! recovery — together with every substrate it depends on (cluster model, fault
//! injector, 3D-parallel training workload model, telemetry, checkpointing, and
//! scheduling), all driven by a deterministic discrete-event simulator.
//!
//! This umbrella crate re-exports the individual crates so applications can
//! depend on a single `byterobust` crate:
//!
//! ```
//! use byterobust::prelude::*;
//!
//! let config = JobConfig::small_test();
//! let report = JobLifecycle::new(config, 7).run();
//! assert!(report.ettr.cumulative_ettr() > 0.5);
//! ```

pub use byterobust_agent as agent;
pub use byterobust_analyzer as analyzer;
pub use byterobust_checkpoint as checkpoint;
pub use byterobust_cluster as cluster;
pub use byterobust_core as core;
pub use byterobust_fleet as fleet;
pub use byterobust_incident as incident;
pub use byterobust_obs as obs;
pub use byterobust_parallelism as parallelism;
pub use byterobust_recovery as recovery;
pub use byterobust_sim as sim;
pub use byterobust_telemetry as telemetry;
pub use byterobust_trainsim as trainsim;

/// One-stop import for applications and examples.
pub mod prelude {
    pub use byterobust_agent::prelude::*;
    pub use byterobust_analyzer::prelude::*;
    pub use byterobust_checkpoint::prelude::*;
    pub use byterobust_cluster::prelude::*;
    pub use byterobust_core::prelude::*;
    pub use byterobust_fleet::prelude::*;
    pub use byterobust_incident::prelude::*;
    pub use byterobust_obs::{
        score_alerts, trace_diagnose, trace_diagnose_all, trace_get, Alert, AlertEngine, AlertRule,
        AlertScorecard, AlertSeverity, AlertTimeline, FaultWindow, MetricsRegistry, RuleSet,
        SignalBus, SpanKind, Trace, TraceQuery, TraceRecorder,
    };
    pub use byterobust_parallelism::prelude::*;
    pub use byterobust_recovery::prelude::*;
    pub use byterobust_sim::prelude::*;
    pub use byterobust_telemetry::prelude::*;
    pub use byterobust_trainsim::prelude::*;
}
