//! Multithreading study: measure application message curves from the
//! cycle-level simulator and compare their slopes against the analytical
//! latency sensitivity `s = p*g/c` (the substance of Figure 3).
//!
//! Run with: `cargo run --release --example multithreading`

use commloc::sim::{default_jobs, fit_line, mapping_suite, run_cached_sweep, SimConfig};

fn main() {
    // `COMMLOC_SMOKE` shrinks the measurement windows so CI can exercise
    // the example in seconds; unset, the full windows reproduce the figure.
    let smoke = std::env::var_os("COMMLOC_SMOKE").is_some();
    let (warmup, window) = if smoke {
        (2_000, 6_000)
    } else {
        (15_000, 45_000)
    };
    let torus = commloc::net::Torus::new(2, 8);
    let suite = mapping_suite(&torus, 7);

    for contexts in [1usize, 2, 4] {
        let config = SimConfig {
            contexts,
            ..SimConfig::default()
        };
        let mut points = Vec::new();
        let mut g_sum = 0.0;
        println!("p = {contexts}:");
        println!("  {:<14} {:>8} {:>8}", "mapping", "t_m", "T_m");
        let sweep = run_cached_sweep(&config, &suite, warmup, window, default_jobs())
            .expect("fault-free runs");
        for point in &sweep {
            let m = &point.measured;
            println!(
                "  {:<14} {:>8.1} {:>8.1}",
                point.name, m.message_interval, m.message_latency
            );
            points.push((m.message_interval, m.message_latency));
            g_sum += m.messages_per_transaction;
        }
        let fit = fit_line(&points).expect("distinct message intervals");
        let g = g_sum / suite.len() as f64;
        let s_model = contexts as f64 * g / 2.0; // c = 2
        println!(
            "  fitted slope s = {:.2} (model p*g/c = {:.2}), intercept = {:.1}, R^2 = {:.3}\n",
            fit.slope, s_model, fit.intercept, fit.r_squared
        );
    }
    println!(
        "Slopes grow with the context count: multithreaded processors are\n\
         proportionally less sensitive to message latency (paper Section 2.3)."
    );
}
