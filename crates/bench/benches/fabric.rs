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
//! Run with: `cargo bench --bench fabric`

use commloc_bench::{committed_baseline, write_measured};
use commloc_net::{Fabric, FabricConfig, Message, NodeId, ReferenceFabric, Torus};

/// Deterministic per-cycle injection schedule: `schedule[cycle]` lists
/// `(src, dst)` pairs of 12-flit messages to inject before that cycle's
/// step. Both engines replay the identical schedule, so their delivered
/// counts must agree — the harness asserts it.
type Schedule = Vec<Vec<(NodeId, NodeId)>>;

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
    cycles_per_sec: f64,
    delivered: u64,
    reference_cycles_per_sec: f64,
    speedup: f64,
}

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

/// xorshift64* — the schedule generator's only randomness source.
fn next_u64(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545F4914F6CDD1D)
}

fn build_schedule(s: &Scenario, seed: u64) -> Schedule {
    let nodes = s.radix.pow(s.dims);
    let mut state = seed | 1;
    let threshold = (s.rate * (1u64 << 53) as f64) as u64;
    (0..s.cycles)
        .map(|cycle| {
            if let Some((burst, period)) = s.burst {
                if cycle % period >= burst {
                    return Vec::new();
                }
            }
            let mut injections = Vec::new();
            for src in 0..nodes {
                if (next_u64(&mut state) >> 11) >= threshold {
                    continue;
                }
                let dst = next_u64(&mut state) as usize % nodes;
                if dst != src {
                    injections.push((NodeId(src), NodeId(dst)));
                }
            }
            injections
        })
        .collect()
}

/// Runs the optimized engine over the schedule; returns (wall seconds,
/// delivered messages). Idle stretches with no scheduled injections are
/// crossed with `fast_forward`, which the equivalence suite proves is
/// cycle-exact.
fn run_optimized(s: &Scenario, schedule: &Schedule) -> (f64, u64) {
    let mut fabric: Fabric<()> = Fabric::new(Torus::new(s.dims, s.radix), s.config);
    let start = std::time::Instant::now();
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
        for &(src, dst) in &schedule[cycle] {
            fabric.inject(Message::new(src, dst, MESSAGE_FLITS, ()));
        }
        fabric.step().expect("fault-free fabric step");
        cycle += 1;
    }
    (
        start.elapsed().as_secs_f64(),
        fabric.stats().delivered_messages,
    )
}

fn run_reference(s: &Scenario, schedule: &Schedule) -> (f64, u64) {
    let mut fabric: ReferenceFabric<()> =
        ReferenceFabric::new(Torus::new(s.dims, s.radix), s.config);
    let start = std::time::Instant::now();
    for injections in schedule {
        for &(src, dst) in injections {
            fabric.inject(Message::new(src, dst, MESSAGE_FLITS, ()));
        }
        fabric.step().expect("fault-free fabric step");
    }
    (
        start.elapsed().as_secs_f64(),
        fabric.stats().delivered_messages,
    )
}

fn render_json(outcomes: &[Outcome]) -> String {
    let mut out = String::from(
        "{\n  \"bench\": \"fabric\",\n  \"unit\": \"simulated_network_cycles_per_sec\",\n  \"scenarios\": [\n",
    );
    for (i, o) in outcomes.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"cycles\": {}, \"cycles_per_sec\": {:.0}, \
             \"delivered_messages\": {}, \"reference_cycles_per_sec\": {:.0}, \
             \"speedup_vs_reference\": {:.2}}}{}\n",
            o.name,
            o.cycles,
            o.cycles_per_sec,
            o.delivered,
            o.reference_cycles_per_sec,
            o.speedup,
            if i + 1 < outcomes.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Pulls `"cycles_per_sec": <value>` for `name` out of a committed
/// baseline without a JSON dependency: scenario objects are one per line
/// in the format this harness writes.
fn baseline_cycles_per_sec(baseline: &str, name: &str) -> Option<f64> {
    let needle = format!("\"name\": \"{name}\"");
    let line = baseline.lines().find(|l| l.contains(&needle))?;
    let rest = line.split("\"cycles_per_sec\": ").nth(1)?;
    rest.split(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

fn main() {
    let baseline = committed_baseline("fabric");

    let mut outcomes = Vec::new();
    println!("=== Fabric engine throughput (simulated network cycles / second) ===\n");
    for scenario in scenarios() {
        let schedule = build_schedule(&scenario, 0x1992_0615);
        let (secs, delivered) = run_optimized(&scenario, &schedule);
        let (ref_secs, ref_delivered) = run_reference(&scenario, &schedule);
        assert_eq!(
            delivered, ref_delivered,
            "{}: engines disagree on delivered messages",
            scenario.name
        );
        let cycles_per_sec = scenario.cycles as f64 / secs;
        let reference_cycles_per_sec = scenario.cycles as f64 / ref_secs;
        let speedup = cycles_per_sec / reference_cycles_per_sec;
        println!(
            "{:<18} {:>12.0} cyc/s  (reference {:>10.0} cyc/s, speedup {:>5.1}x, {} delivered)",
            scenario.name, cycles_per_sec, reference_cycles_per_sec, speedup, delivered
        );
        outcomes.push(Outcome {
            name: scenario.name,
            cycles: scenario.cycles,
            cycles_per_sec,
            delivered,
            reference_cycles_per_sec,
            speedup,
        });
    }

    let mut regressed = Vec::new();
    if let Some(baseline) = &baseline {
        println!();
        for o in &outcomes {
            let Some(committed) = baseline_cycles_per_sec(baseline, o.name) else {
                continue;
            };
            let ratio = o.cycles_per_sec / committed;
            println!(
                "vs committed baseline: {:<18} {:>6.2}x ({:.0} -> {:.0} cyc/s)",
                o.name, ratio, committed, o.cycles_per_sec
            );
            if ratio < 0.8 {
                regressed.push(format!(
                    "{}: {:.0} cyc/s is {:.0}% below the committed {:.0} cyc/s",
                    o.name,
                    o.cycles_per_sec,
                    (1.0 - ratio) * 100.0,
                    committed
                ));
            }
        }
    }

    let measured = write_measured("fabric", &render_json(&outcomes));
    println!("\nwrote {}", measured.display());

    if !regressed.is_empty() {
        eprintln!("\nperformance regression (>20% below committed baseline):");
        for r in &regressed {
            eprintln!("  {r}");
        }
        if std::env::var("COMMLOC_PERF_ENFORCE").as_deref() == Ok("1") {
            std::process::exit(1);
        }
        eprintln!("  (set COMMLOC_PERF_ENFORCE=1 to fail the run)");
    }
}
