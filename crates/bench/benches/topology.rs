//! Gain by topology — the cross-interconnect counterpart of Figure 7.
//!
//! For each pluggable fabric (torus, non-wrapping mesh, fat tree,
//! dragonfly) at the default 64-ish-node scale, runs the cycle-level
//! simulator under identity and random placement and pairs the measured
//! gain with the analytical prediction on the same topology profile
//! (`rho = r·B·d/C`, the flux-balance generalization of Eq. 10). The
//! timed section covers one mesh measurement window — the marginal cost
//! of a non-cube fabric over the torus fast path.

use commloc_bench::time_it;
use commloc_model::{expected_gain, MachineConfig};
use commloc_net::Topology;
use commloc_sim::{model_profile, Scenario, SimConfig};
use std::hint::black_box;

const WARMUP: u64 = 5_000;
const WINDOW: u64 = 15_000;
const SEED: u64 = 1992;

fn reproduce() {
    println!("\n=== Gain by topology: measured vs model, identity / random placement ===");
    let topologies = [
        Topology::cube(2, 8),
        Topology::mesh(8, 8),
        Topology::fat_tree(2, 6),
        Topology::dragonfly(4, 4),
    ];
    println!(
        "{:<16} {:>7} {:>7} {:>9} {:>9} {:>9}",
        "topology", "nodes", "C/node", "d_random", "sim_gain", "model_gain"
    );
    for topology in &topologies {
        let config = SimConfig {
            topology: Some(topology.clone()),
            ..SimConfig::default()
        };
        let compute = topology.compute_nodes();
        let scenario = Scenario {
            seed: SEED,
            ..Scenario::new(config, WARMUP, WINDOW)
        };
        let measure = |name: &str| {
            let named = scenario.mapping(name).expect("a suite mapping");
            scenario
                .run(&named.mapping)
                .expect("fault-free run")
                .measure()
        };
        let (ident, random) = (measure("identity"), measure("random"));
        let profile = model_profile(topology).expect("profile");
        let predicted = expected_gain(&MachineConfig::alewife().with_topology_profile(profile))
            .expect("solvable");
        println!(
            "{:<16} {:>7} {:>7.2} {:>9.2} {:>9.2} {:>9.2}",
            topology.canonical(),
            compute,
            profile.channels_per_node,
            random.distance,
            ident.transaction_rate / random.transaction_rate,
            predicted.gain
        );
    }
}

fn main() {
    reproduce();
    let config = SimConfig {
        topology: Some(Topology::mesh(8, 8)),
        ..SimConfig::default()
    };
    let scenario = Scenario {
        seed: SEED,
        ..Scenario::new(config, WARMUP, WINDOW)
    };
    let mapping = scenario.mapping("random").expect("a suite mapping").mapping;
    time_it("topology/mesh8x8_random_20k_cycles", 3, || {
        black_box(black_box(&scenario).run(&mapping).unwrap().measure())
    });
}
