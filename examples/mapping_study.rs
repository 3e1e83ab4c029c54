//! Mapping study: run the full cycle-level simulator with the paper's
//! thread-to-processor mapping suite and watch performance degrade with
//! communication distance (the substance of Figures 4 and 5).
//!
//! Run with: `cargo run --release --example mapping_study`

use commloc::sim::{default_jobs, mapping_suite, run_cached_sweep, SimConfig};

fn main() {
    // `COMMLOC_SMOKE` shrinks the measurement windows so CI can exercise
    // the example in seconds; unset, the full windows reproduce the figure.
    let smoke = std::env::var_os("COMMLOC_SMOKE").is_some();
    let (warmup, window) = if smoke {
        (2_000, 6_000)
    } else {
        (20_000, 60_000)
    };
    let config = SimConfig::default();
    let torus = commloc::net::Torus::new(config.dims, config.radix);
    let suite = mapping_suite(&torus, 1992);
    let jobs = default_jobs();

    println!(
        "simulating {} mappings on a {}-node machine ({} context/processor, {jobs} jobs)\n",
        suite.len(),
        torus.nodes(),
        config.contexts
    );
    println!(
        "{:<14} {:>6} {:>6} {:>9} {:>9} {:>8} {:>7}",
        "mapping", "d", "d_sim", "r_t", "T_m", "T_h", "rho"
    );
    let points = run_cached_sweep(&config, &suite, warmup, window, jobs).expect("fault-free runs");
    for point in &points {
        let m = &point.measured;
        println!(
            "{:<14} {:>6.2} {:>6.2} {:>9.5} {:>9.1} {:>8.2} {:>7.3}",
            point.name,
            point.distance,
            m.distance,
            m.transaction_rate,
            m.message_latency,
            m.per_hop_latency,
            m.channel_utilization
        );
    }
    println!(
        "\nIdeal-to-worst mapping slowdown tracks distance, but sub-linearly —\n\
         fixed overheads bound the benefit of locality (paper Section 4.2)."
    );
}
