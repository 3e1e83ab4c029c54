//! Generality checks: the entire stack — routing, coherence, processors,
//! workload, measurement — on torus shapes other than the paper's 8x8.

use commloc::net::Torus;
use commloc::sim::{Mapping, Measurements, Scenario, SimConfig, SimError};

/// Runs `mapping` on `config` through the one run body and measures the
/// window.
fn measure(
    config: &SimConfig,
    mapping: &Mapping,
    warmup: u64,
    window: u64,
) -> Result<Measurements, SimError> {
    let scenario = Scenario::new(config.clone(), warmup, window);
    Ok(scenario.run(mapping)?.measure())
}

/// A 4x4x4 (64-node, 3D) machine runs the torus-neighbour workload end
/// to end: six neighbours per thread, e-cube over three dimensions,
/// identity mapping giving single-hop communication.
#[test]
fn three_dimensional_machine_end_to_end() {
    let cfg = SimConfig {
        dims: 3,
        radix: 4,
        ..SimConfig::default()
    };
    let m = measure(&cfg, &Mapping::identity(64), 8_000, 24_000).expect("runs");
    assert!((m.distance - 1.0).abs() < 0.05, "d = {}", m.distance);
    assert!(m.transaction_rate > 0.0);
    // Six neighbours: reads dominate the mix even more than in 2D, so g
    // shifts toward 2 messages/transaction x (6 reads + heavier write
    // invalidation): sanity-band only.
    assert!(
        m.messages_per_transaction > 2.0 && m.messages_per_transaction < 5.0,
        "g = {}",
        m.messages_per_transaction
    );
}

/// Random mapping distance on the 3D torus matches the geometric
/// expectation, and performance degrades relative to the identity.
#[test]
fn three_dimensional_random_mapping() {
    let torus = Torus::new(3, 4);
    let mapping = Mapping::random(64, 31);
    let expected = mapping.average_neighbor_distance(&torus);
    let cfg = SimConfig {
        dims: 3,
        radix: 4,
        ..SimConfig::default()
    };
    let random = measure(&cfg, &mapping, 8_000, 24_000).expect("runs");
    assert!(
        (random.distance - expected).abs() / expected < 0.1,
        "measured {} expected {expected}",
        random.distance
    );
    let ideal = measure(&cfg, &Mapping::identity(64), 8_000, 24_000).expect("runs");
    assert!(ideal.transaction_rate > random.transaction_rate);
}

/// A small non-square machine (2x16 ring-heavy torus) still routes,
/// stays coherent, and makes progress.
#[test]
fn skinny_one_dimensional_machine() {
    let cfg = SimConfig {
        dims: 1,
        radix: 16,
        ..SimConfig::default()
    };
    let m = measure(&cfg, &Mapping::identity(16), 6_000, 18_000).expect("runs");
    // 1D torus neighbours are one hop away under identity.
    assert!((m.distance - 1.0).abs() < 0.05);
    assert!(m.transaction_rate > 0.0);
}

/// Mapping distances on a 3D torus: Eq. 17's analytic value matches the
/// empirical mean over random mappings.
#[test]
fn eq17_holds_in_three_dimensions() {
    let torus = Torus::new(3, 4);
    let mut sum = 0.0;
    let trials = 12;
    for seed in 0..trials {
        sum += Mapping::random(64, seed).average_neighbor_distance(&torus);
    }
    let mean = sum / trials as f64;
    // Eq. 17: n*k^(n+1)/(4*(k^n - 1)) = 3*4^4/(4*63) = 3.047...
    let eq17 = 3.0 * 4f64.powi(4) / (4.0 * 63.0);
    assert!(
        (mean - eq17).abs() / eq17 < 0.1,
        "mean {mean} vs Eq. 17 {eq17}"
    );
}
