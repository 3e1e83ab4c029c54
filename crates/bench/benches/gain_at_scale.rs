//! Measured locality gain vs. machine size — the cycle-level analogue
//! of Figure 7, run on the shard-parallel engine at sizes the
//! monolithic 8x8 validation machine cannot reach.
//!
//! For each torus size the harness runs the full-system simulator twice
//! — identity mapping (every torus-neighbour reference one hop) and
//! random mapping (distance per Eq. 17) — and reports the measured gain
//! as the ratio of per-processor transaction rates, exactly the
//! quantity [`commloc_model::expected_gain`] predicts. The model's
//! prediction at each size is printed alongside for the
//! model-versus-measurement comparison that EXPERIMENTS.md records.
//!
//! The largest default size, 320x320 = 102,400 nodes, is the paper's
//! N >= 10^5 regime: Figure 7's claim that locality is worth an
//! order of magnitude there is checked against a real simulation for
//! the first time in this repo, not just the closed-form model.
//!
//! Windows shrink as sizes grow (simulation cost scales with N); the
//! measured rates are steady-window averages after warm-up, and every
//! run uses the sharded engine (16 shards) — bit-exact with the
//! monolithic engine per the equivalence suite, so engine choice does
//! not affect the measurement.
//!
//! Run with: `cargo bench --bench gain_at_scale`. Set
//! `COMMLOC_GAIN_MAX_NODES` (e.g. 4096) to cap the size list for a
//! quick smoke run.

use commloc_model::{expected_gain, MachineConfig};
use commloc_sim::{default_jobs, Mapping, Scenario, SimConfig};

const SHARDS: usize = 16;

/// `(radix, warmup, window)` — windows shrink with size to keep the
/// sweep tractable; each stays several transaction latencies long.
const SIZES: [(usize, u64, u64); 5] = [
    (32, 2_000, 6_000),
    (64, 1_500, 4_500),
    (128, 1_000, 3_000),
    (256, 800, 2_400),
    (320, 800, 2_000),
];

fn main() {
    let max_nodes: usize = std::env::var("COMMLOC_GAIN_MAX_NODES")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(usize::MAX);
    let jobs = default_jobs();

    println!(
        "=== Measured locality gain vs machine size (identity / random mapping, \
         sharded engine, {SHARDS} shards, {jobs} job(s)) ===\n"
    );
    println!(
        "{:>7} {:>9} {:>8} {:>8} {:>11} {:>11} {:>9} {:>10}",
        "radix", "nodes", "d_ident", "d_rand", "rate_ident", "rate_rand", "gain", "model_gain"
    );
    for (radix, warmup, window) in SIZES {
        let nodes = radix * radix;
        if nodes > max_nodes {
            continue;
        }
        let config = SimConfig {
            dims: 2,
            radix,
            ..SimConfig::default()
        };
        let scenario = Scenario {
            shards: SHARDS,
            jobs,
            ..Scenario::new(config, warmup, window)
        };
        let identity = scenario
            .run(&Mapping::identity(nodes))
            .expect("identity run must not stall")
            .measure();
        let random = scenario
            .run(&Mapping::random(nodes, 1992))
            .expect("random run must not stall")
            .measure();
        let gain = identity.transaction_rate / random.transaction_rate;
        let model = expected_gain(&MachineConfig::alewife().with_nodes(nodes as f64))
            .expect("model solvable")
            .gain;
        println!(
            "{radix:>7} {nodes:>9} {:>8.2} {:>8.2} {:>11.6} {:>11.6} {gain:>9.2} {model:>10.2}",
            identity.distance, random.distance, identity.transaction_rate, random.transaction_rate,
        );
    }
}
