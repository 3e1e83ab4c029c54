//! Full-system multiprocessor simulator for the locality validation
//! experiments.
//!
//! This crate assembles the substrates — block-multithreaded processors
//! ([`commloc_proc`]), a directory-coherent memory system
//! ([`commloc_mem`]), and a cycle-level wormhole torus fabric
//! ([`commloc_net`]) — into the Alewife-like 64-node machine of Section 3
//! of Johnson, *"The Impact of Communication Locality on Large-Scale
//! Multiprocessor Performance"* (ISCA 1992), running the paper's
//! synthetic torus-neighbour application under a suite of
//! thread-to-processor mappings.
//!
//! The measurements it produces (`t_t`, `T_t`, `t_m`, `T_m`, `T_h`, `d`,
//! `rho`, `g`, `B`) are exactly the quantities the paper's combined model
//! predicts, enabling the model-versus-simulation validation of
//! Figures 3–5.
//!
//! # Quick start
//!
//! ```no_run
//! use commloc_sim::{run_experiment, Mapping, SimConfig};
//!
//! let mapping = Mapping::random(64, 42);
//! let m = run_experiment(&SimConfig::default(), &mapping, 20_000, 60_000).unwrap();
//! println!("d = {:.2} hops, T_m = {:.1} cycles", m.distance, m.message_latency);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod breakdown;
pub mod conformance;
mod csv;
mod error;
mod fit;
pub mod fuzz;
pub mod json;
mod machine;
mod mapping;
mod parallel;
mod resilience;
pub mod serve;
mod shard;
mod workload;

pub use breakdown::{SpanEvent, SpanLog, TransactionBreakdown, BREAKDOWN_CSV_HEADER};
pub use csv::MEASUREMENTS_CSV_HEADER;
pub use error::{SimError, StallKind, StallReport};
pub use fit::{fit_line, FitError, LineFit};
pub use machine::{
    run_experiment, run_sharded_experiment, Machine, MachineSnapshot, Measurements, SimConfig,
};
pub use mapping::{mapping_suite, suite_names, topology_mapping_suite, Mapping, NamedMapping};
pub use parallel::{default_jobs, parallel_map, set_job_budget};
pub use serve::{run_cached_sweep, CacheStats, ScenarioKey, ScenarioResult, ServeOptions};
pub use shard::ShardedMachine;

pub use resilience::{
    run_degradation, run_idle_wave, DegradationConfig, DegradationPoint, DisturbanceConfig,
    DisturbanceCurve, IdleWave, MigrationRecord, MigrationView, WorkStealingPolicy,
    ABSORPTION_COMPONENTS,
};
pub use workload::{
    state_word, transpose_peer, workload_home_map, NeighborProgram, Trace, TraceOp, Workload,
};

/// The analytical-model profile of a simulated interconnect: the bridge
/// between a [`commloc_net::Topology`] and [`commloc_model`]'s
/// generalized flux balance. The torus keeps the paper's analytic
/// Eq. 16/17 path (bit-identical to the plain dims/radix model); the
/// other fabrics feed their exact pairwise-distance census and directed
/// channel count in.
///
/// # Errors
///
/// Propagates [`commloc_model`]'s parameter validation.
pub fn model_profile(
    topology: &commloc_net::Topology,
) -> commloc_model::Result<commloc_model::TopologyProfile> {
    use commloc_model::TopologyProfile;
    match topology {
        commloc_net::Topology::Cube(t) => TopologyProfile::torus(t.dims(), t.radix() as f64),
        other => TopologyProfile::new(
            other.compute_nodes() as f64,
            other.mean_pairwise_distance(),
            other.channels_per_compute_node(),
        ),
    }
}
