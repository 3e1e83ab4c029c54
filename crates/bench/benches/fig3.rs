//! Figure 3 — application message curves.
//!
//! The paper plots average inter-message injection time `t_m` against
//! average message latency `T_m` measured across the mapping suite, for
//! one, two, and four hardware contexts, and observes a linear
//! relationship whose slope roughly doubles with the context count
//! (slightly less in practice, because the effective critical path `c`
//! grows — measured 15% larger at four contexts).
//!
//! This bench regenerates the measured curves from the cycle-level
//! simulator, fits each line, and compares slopes against `s = p*g/c`.

use commloc_bench::{fit_message_curve, time_it, validation_runs};
use std::hint::black_box;

fn reproduce() {
    println!("\n=== Figure 3: application message curves (t_m vs T_m) ===");
    let mut slopes = Vec::new();
    for contexts in [1usize, 2, 4] {
        let runs = validation_runs(contexts);
        println!("\n-- {contexts} context(s) --");
        println!("{:<16} {:>6} {:>8} {:>8}", "mapping", "d", "t_m", "T_m");
        let mut g_avg = 0.0;
        for run in &runs {
            println!(
                "{:<16} {:>6.2} {:>8.1} {:>8.1}",
                run.name,
                run.measured.distance,
                run.measured.message_interval,
                run.measured.message_latency
            );
            g_avg += run.measured.messages_per_transaction;
        }
        g_avg /= runs.len() as f64;
        let fit = fit_message_curve(&runs).expect("non-degenerate validation suite");
        let s_nominal = contexts as f64 * g_avg / 2.0;
        println!(
            "fitted: T_m = {:.2} * t_m {:+.1}   (R^2 = {:.3}; nominal s = p*g/c = {:.2})",
            fit.slope, fit.intercept, fit.r_squared, s_nominal
        );
        slopes.push(fit.slope);
    }
    println!(
        "\nslope ratios: p2/p1 = {:.2}, p4/p1 = {:.2}  (paper: roughly 2 and 4, \
         slightly less in practice)",
        slopes[1] / slopes[0],
        slopes[2] / slopes[0]
    );
}

fn main() {
    reproduce();
    // Timing target: a short burst of the underlying simulation.
    time_it("fig3/short_sim_window", 10, || {
        let scenario = commloc_sim::Scenario::new(commloc_sim::SimConfig::default(), 500, 1_500);
        let mapping = commloc_sim::Mapping::identity(64);
        let m = scenario.run(&mapping).expect("fault-free run").measure();
        black_box(m.message_rate)
    });
}
