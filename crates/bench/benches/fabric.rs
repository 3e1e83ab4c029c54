//! Fabric engine performance harness.
//!
//! Measures the active-set cycle engine's throughput in **simulated
//! network cycles per wall-clock second** across representative
//! scenarios, compares it against the retained naive `ReferenceFabric`
//! (the golden model the equivalence tests check bit-for-bit), and writes
//! the measured record to `target/bench/BENCH_fabric.json`. The committed
//! `BENCH_fabric.json` at the repository root is only read; copying the
//! measured record over it re-blesses the baseline.
//!
//! Regression gate: if a committed `BENCH_fabric.json` exists and the
//! environment sets `COMMLOC_PERF_ENFORCE=1`, the harness exits non-zero
//! when any scenario's cycles/sec drops more than 20% below the committed
//! figure. Scenario cycle counts are tuned so the whole harness stays in
//! CI-smoke territory even on a loaded runner.
//!
//! Timing: each engine replays a scenario on fresh fabrics until the
//! summed wall-clock passes [`MIN_TIMED_SECS`] (`reps` and
//! `reference_reps` in the record), and cycles/sec is the cycles of every
//! repetition over that sum.
//!
//! Run with: `cargo bench --bench fabric`

use commloc_bench::{repeat_timed, write_measured, RegressionGate, Repeated};
use commloc_net::traffic::{BernoulliTraffic, TrafficPattern};
use commloc_net::{Fabric, FabricConfig, Message, ReferenceFabric, Torus};

/// Deterministic per-cycle injection schedule: `schedule[cycle]` lists
/// the 12-flit messages to inject before that cycle's step. Both engines
/// replay the identical schedule, so their delivered counts must agree —
/// the harness asserts it.
type Schedule = Vec<Vec<Message<u64>>>;

struct Scenario {
    name: &'static str,
    dims: u32,
    radix: usize,
    config: FabricConfig,
    /// Per-node per-cycle injection probability.
    rate: f64,
    cycles: u64,
    /// Bursty scenarios inject only during the first `burst` cycles of
    /// every `period` cycles; the optimized engine fast-forwards the idle
    /// tail of each period.
    burst: Option<(u64, u64)>,
}

struct Outcome {
    name: &'static str,
    cycles: u64,
    reps: u32,
    cycles_per_sec: f64,
    delivered: u64,
    reference_reps: u32,
    reference_cycles_per_sec: f64,
    speedup: f64,
}

/// The summed wall-clock each engine's repetitions of a scenario must
/// pass before its throughput is reported. One pass of an optimized row
/// takes a quarter of a second, and three single passes of one binary
/// read `sim_config_8x8` anywhere from 176 k to 282 k cycles/s; summed
/// over a few passes, one slow stretch of the host weighs less.
const MIN_TIMED_SECS: f64 = 1.0;

const MESSAGE_FLITS: u32 = 12;

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            // The paper's 8x8 machine with the fabric's default buffering.
            name: "default_8x8",
            dims: 2,
            radix: 8,
            config: FabricConfig::default(),
            rate: 0.01,
            cycles: 60_000,
            burst: None,
        },
        Scenario {
            // The full-system simulator's fabric configuration.
            name: "sim_config_8x8",
            dims: 2,
            radix: 8,
            config: FabricConfig {
                link_vcs: 4,
                vc_buffer_capacity: 16,
                injection_buffer_capacity: 16,
                ..FabricConfig::default()
            },
            rate: 0.01,
            cycles: 60_000,
            burst: None,
        },
        Scenario {
            name: "torus_3d_4x4x4",
            dims: 3,
            radix: 4,
            config: FabricConfig::default(),
            rate: 0.01,
            cycles: 40_000,
            burst: None,
        },
        Scenario {
            // Bursts separated by long idle gaps: the active-set engine's
            // idle fast-forward pays off beyond its per-cycle wins.
            name: "bursty_idle_gaps",
            dims: 2,
            radix: 8,
            config: FabricConfig::default(),
            rate: 0.05,
            cycles: 200_000,
            burst: Some((200, 4_000)),
        },
    ]
}

/// Replays the schedule on fresh optimized fabrics until the summed
/// wall-clock passes [`MIN_TIMED_SECS`]; the output is each run's
/// delivered messages. Idle stretches with no scheduled injections are
/// crossed with `fast_forward`, which the equivalence suite proves is
/// cycle-exact.
fn run_optimized(s: &Scenario, schedule: &Schedule) -> Repeated<Fabric<u64>, u64> {
    let fresh = || Fabric::new(Torus::new(s.dims, s.radix), s.config);
    repeat_timed(MIN_TIMED_SECS, fresh, |fabric| {
        let mut cycle = 0usize;
        while cycle < schedule.len() {
            if fabric.in_flight() == 0 && schedule[cycle].is_empty() {
                let gap = schedule[cycle..]
                    .iter()
                    .take_while(|injections| injections.is_empty())
                    .count();
                cycle += fabric.fast_forward(gap as u64) as usize;
                continue;
            }
            for message in &schedule[cycle] {
                fabric.inject(message.clone());
            }
            fabric.step().expect("fault-free fabric step");
            cycle += 1;
        }
        fabric.stats().delivered_messages
    })
}

/// [`run_optimized`] on the reference engine, stepping every cycle.
fn run_reference(s: &Scenario, schedule: &Schedule) -> Repeated<ReferenceFabric<u64>, u64> {
    let fresh = || ReferenceFabric::new(Torus::new(s.dims, s.radix), s.config);
    repeat_timed(MIN_TIMED_SECS, fresh, |fabric| {
        for injections in schedule {
            for message in injections {
                fabric.inject(message.clone());
            }
            fabric.step().expect("fault-free fabric step");
        }
        fabric.stats().delivered_messages
    })
}

fn render_json(outcomes: &[Outcome]) -> String {
    let mut out = String::from(
        "{\n  \"bench\": \"fabric\",\n  \"unit\": \"simulated_network_cycles_per_sec\",\n  \"scenarios\": [\n",
    );
    for (i, o) in outcomes.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"cycles\": {}, \"reps\": {}, \"cycles_per_sec\": {:.0}, \
             \"delivered_messages\": {}, \"reference_reps\": {}, \
             \"reference_cycles_per_sec\": {:.0}, \"speedup_vs_reference\": {:.2}}}{}\n",
            o.name,
            o.cycles,
            o.reps,
            o.cycles_per_sec,
            o.delivered,
            o.reference_reps,
            o.reference_cycles_per_sec,
            o.speedup,
            if i + 1 < outcomes.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let mut outcomes = Vec::new();
    println!("=== Fabric engine throughput (simulated network cycles / second) ===\n");
    for scenario in scenarios() {
        // The schedule comes from commloc-net's open-loop source (uniform
        // destinations, self-sends included), drawn only inside bursts.
        let mut source = BernoulliTraffic::new(
            scenario.radix.pow(scenario.dims),
            TrafficPattern::Uniform,
            scenario.rate,
            MESSAGE_FLITS..=MESSAGE_FLITS,
            0x1992_0615,
        );
        let schedule: Schedule = (0..scenario.cycles)
            .map(|cycle| match scenario.burst {
                Some((burst, period)) if cycle % period >= burst => Vec::new(),
                _ => source.pulse(),
            })
            .collect();
        let optimized = run_optimized(&scenario, &schedule);
        let reference = run_reference(&scenario, &schedule);
        let delivered = optimized.output;
        assert_eq!(
            delivered, reference.output,
            "{}: engines disagree on delivered messages",
            scenario.name
        );
        let cycles_per_sec = optimized.rate(scenario.cycles);
        let reference_cycles_per_sec = reference.rate(scenario.cycles);
        let speedup = cycles_per_sec / reference_cycles_per_sec;
        println!(
            "{:<18} {:>12.0} cyc/s over {:>2} runs  (reference {:>10.0} cyc/s, speedup {:>5.1}x, \
             {} delivered)",
            scenario.name,
            cycles_per_sec,
            optimized.reps,
            reference_cycles_per_sec,
            speedup,
            delivered
        );
        outcomes.push(Outcome {
            name: scenario.name,
            cycles: scenario.cycles,
            reps: optimized.reps,
            cycles_per_sec,
            delivered,
            reference_reps: reference.reps,
            reference_cycles_per_sec,
            speedup,
        });
    }

    let rates: Vec<(String, f64)> = outcomes
        .iter()
        .map(|o| (o.name.to_owned(), o.cycles_per_sec))
        .collect();
    let gate = RegressionGate::compare("fabric", "scenarios", "name", &rates, 0.8);

    let measured = write_measured("fabric", &render_json(&outcomes));
    println!("\nwrote {}", measured.display());

    gate.enforce();
}
