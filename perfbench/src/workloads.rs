//! The three machine workloads: `paper_8x8`, `faults_4x4`, `shard_64x64`.
//!
//! Each run sets up the workload several times (every set-up must end in
//! the same simulated state) and then times many short measured
//! operations for the requested seconds: simulated windows continued
//! from the warmed state. Short operations let order statistics separate
//! the code's speed from the host's drift between faster and slower
//! phases, which lasts from tens of milliseconds to seconds.

use crate::probe;
use crate::run::{Run, Samples};
use crate::spans::Recorder;
use crate::Report;
use commloc_mem::MemConfig;
use commloc_net::{FaultConfig, FaultPlan, Torus};
use commloc_sim::conformance::{reduced_suite, REDUCED_WARMUP, REDUCED_WINDOW};
use commloc_sim::{Machine, MachineSnapshot, Mapping, ShardedMachine, SimConfig};
use std::fmt;
use std::time::Instant;

/// `faults_4x4` fault plans per run: the run's seed picks four, and the
/// run measures all of them, because how much work a window holds
/// depends on the fault pattern (one plan per run spread windows 11%
/// across seeds).
const FAULT_PLANS: u64 = 4;
/// `faults_4x4` watchdog: wider than the cycles a run simulates from
/// construction, so no seed's retry gaps can trip it (a retry's capped
/// backoff alone reaches 1 M network cycles), while every step still
/// checks it and it still bounds each fast-forward jump.
const FAULT_WATCHDOG: u64 = 4_000_000;
/// `shard_64x64` torus radix.
const SHARD_RADIX: usize = 64;
/// Contiguous shards of the sharded machine.
pub const SHARDS: usize = 4;
/// `shard_64x64` warmup from cold.
const SHARD_WARMUP: u64 = 200;
/// `shard_64x64` timed slice of the continuing window. The identity
/// workload's nodes compute and communicate in step, so a slice much
/// shorter than a few transaction rounds times either a busy or a quiet
/// phase (25-cycle slices split into two modes 2x apart).
const SHARD_CHUNK: u64 = 50;
/// `shard_64x64` slices whose end state is the run's digest.
const SHARD_DIGEST_CHUNKS: usize = 20;
/// Set-up repetitions of `paper_8x8` and `shard_64x64` (each takes
/// seconds of warmup, or a 34 MB machine).
const SETUPS: usize = 3;
/// Fewest timed slices of `faults_4x4` and `shard_64x64`, so the tail
/// percentile sits well above the median however slow the host.
const MIN_OPS: usize = 40;

/// The simulated outcome a host-speed change must leave bit-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    /// Transaction completions since construction.
    pub completions: u64,
    /// Network cycles since construction.
    pub net_cycles: u64,
    /// Network cycles skipped by fast-forward.
    pub fast_forwarded: u64,
    /// Messages delivered in the measurement window.
    pub delivered: u64,
}

impl Digest {
    /// The digest of a monolithic machine.
    pub fn of(m: &Machine) -> Self {
        Self {
            completions: m.completions(),
            net_cycles: m.net_cycle(),
            fast_forwarded: m.fast_forwarded_cycles(),
            delivered: m.latency_breakdown().deliveries,
        }
    }

    /// The digest of a sharded machine (it has no fast-forward).
    pub fn of_sharded(m: &ShardedMachine) -> Self {
        Self {
            completions: m.completions(),
            net_cycles: m.net_cycle(),
            fast_forwarded: 0,
            delivered: m.latency_breakdown().deliveries,
        }
    }

    fn add(&mut self, other: Digest) {
        self.completions += other.completions;
        self.net_cycles += other.net_cycles;
        self.fast_forwarded += other.fast_forwarded;
        self.delivered += other.delivered;
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "completions={} net_cycles={} fast_forwarded={} delivered={}",
            self.completions, self.net_cycles, self.fast_forwarded, self.delivered
        )
    }
}

/// One simulated scenario: a configuration and a thread mapping.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Display name.
    pub name: String,
    /// Machine configuration.
    pub config: SimConfig,
    /// Thread-to-node mapping.
    pub mapping: Mapping,
}

/// `paper_8x8`'s twelve scenarios: `reduced_suite` × contexts 1, 2, 4.
pub fn paper_scenarios(seed: u64) -> Vec<Scenario> {
    let suite = reduced_suite(&Torus::new(2, 8), seed);
    let mut out = Vec::new();
    for contexts in [1, 2, 4] {
        for named in &suite {
            out.push(Scenario {
                name: format!("{}/c{contexts}", named.name),
                config: SimConfig {
                    contexts,
                    ..SimConfig::default()
                },
                mapping: named.mapping.clone(),
            });
        }
    }
    out
}

/// One of `faults_4x4`'s scenarios: the machine bench's retry-gap
/// configuration with fault plan `fault_seed`.
pub fn faults_scenario(fault_seed: u64) -> Scenario {
    Scenario {
        name: format!("retry_gaps_4x4/faults{fault_seed}"),
        config: SimConfig {
            dims: 2,
            radix: 4,
            mem: MemConfig {
                timeout_cycles: 8_000,
                max_retries: 30,
                ..MemConfig::default()
            },
            watchdog_cycles: FAULT_WATCHDOG,
            fault_plan: Some(FaultPlan::new(fault_seed).with_config(FaultConfig {
                drop_rate: 0.05,
                ..FaultConfig::default()
            })),
            ..SimConfig::default()
        },
        mapping: Mapping::identity(16),
    }
}

/// `faults_4x4`'s scenarios: [`FAULT_PLANS`] fault plans drawn from the
/// run's seed.
pub fn faults_scenarios(seed: u64) -> Vec<Scenario> {
    (0..FAULT_PLANS)
        .map(|j| faults_scenario(seed.wrapping_mul(FAULT_PLANS).wrapping_add(j)))
        .collect()
}

/// `shard_64x64`'s scenario. The identity mapping has no random input,
/// so every seed simulates the same machine.
pub fn shard_scenario() -> Scenario {
    Scenario {
        name: "identity_64x64".into(),
        config: SimConfig {
            radix: SHARD_RADIX,
            ..SimConfig::default()
        },
        mapping: Mapping::identity(SHARD_RADIX * SHARD_RADIX),
    }
}

/// The scenario `serve_session`'s requests simulate by default: the
/// paper's 8×8 machine, one context, identity mapping.
pub fn serve_scenario() -> Scenario {
    Scenario {
        name: "identity".into(),
        config: SimConfig::default(),
        mapping: Mapping::identity(64),
    }
}

/// Runs one machine workload.
pub fn run(workload: &str, seed: u64, seconds: u64, trace: bool) -> Report {
    let mut run = Run::new(trace);
    let mut ops = Samples::default();
    let outcome = match workload {
        "paper_8x8" => snapshots(&mut run, &mut ops, &PAPER, seed, seconds),
        "faults_4x4" => snapshots(&mut run, &mut ops, &FAULTS, seed, seconds),
        _ => shard(&mut run, &mut ops, seconds),
    };
    match outcome {
        Ok(digest) => run.report.digest = digest.to_string(),
        Err(e) => {
            run.report.attempted += 1;
            run.report.fail(e);
        }
    }
    let line = ops.describe("measured windows");
    run.report.notes.push(line);
    if trace {
        probe::machine(&mut run, workload, seed, &ops);
        return run.report;
    }
    run.common_metrics();
    run.report
        .metric("node_cycles_per_s", ops.rate(), "node-cycles/s");
    // No result cache on these paths: every measured window is a warm
    // start, so the serve-class latencies are the window latency.
    let p50 = ops.p50_ms();
    run.report.metric("warm_p50_ms", p50, "ms");
    run.report.metric("hot_p50_ms", p50, "ms");
    run.tail_metric(&ops, "windows");
    run.report
}

/// Times one measured operation against a fresh calibration reading.
fn op<R>(
    run: &mut Run,
    ops: &mut Samples,
    node_cycles: f64,
    traced: bool,
    f: impl FnOnce(&mut Recorder) -> R,
) -> R {
    let (out, raw, cal) = run.timed(f);
    ops.push(raw, cal, node_cycles, traced);
    run.report.attempted += 1;
    out
}

/// Checks that a repetition of some simulated work (a set-up, a window)
/// ended in the same state as its first run.
fn check_repeat(report: &mut Report, first: &mut Option<Digest>, digest: Digest, what: &str) {
    match first {
        None => *first = Some(digest),
        Some(expected) if *expected != digest => report.fail(format!(
            "{what}: digest {digest} differs from the first run's {expected}"
        )),
        Some(_) => {}
    }
}

/// Builds and warms one scenario's machine and snapshots it.
pub fn warm(
    rec: &mut Recorder,
    s: &Scenario,
    warmup: u64,
) -> Result<(Machine, MachineSnapshot), String> {
    let mut m = rec.span("Machine::new", || Machine::new(&s.config, &s.mapping));
    rec.span("warmup run_network_cycles", || m.run_network_cycles(warmup))
        .map_err(|e| format!("{} warmup: {e}", s.name))?;
    rec.span("reset_measurements", || m.reset_measurements());
    let snap = rec.span("snapshot", || m.snapshot());
    Ok((m, snap))
}

/// A machine workload measured from warmed snapshots: each set-up
/// generates the scenarios and warms and snapshots each one; the measured
/// phase advances every scenario's window one timed slice per turn,
/// round-robin (so the host's drift spreads evenly over the scenarios),
/// and restarts a scenario from its snapshot when its window completes.
struct Plan {
    /// Span name of scenario generation.
    generate_span: &'static str,
    generate: fn(u64) -> Vec<Scenario>,
    warmup: u64,
    window: u64,
    /// Cycles per timed slice; divides `window`.
    slice: u64,
    setups: usize,
    /// Fewest timed slices per run.
    min_slices: usize,
    /// Output check on a scenario's first complete window.
    check: fn(&mut Report, &Scenario, &Machine),
}

const PAPER: Plan = Plan {
    generate_span: "mapping_suite",
    generate: paper_scenarios,
    warmup: REDUCED_WARMUP,
    window: REDUCED_WINDOW,
    // ~20-35 ms per slice on a 2 GHz Xeon.
    slice: 1_000,
    setups: SETUPS,
    min_slices: 0,
    check: check_paper_window,
};

const FAULTS: Plan = Plan {
    generate_span: "FaultPlan::new",
    generate: faults_scenarios,
    // Long enough for set-up to be real work.
    warmup: 500_000,
    window: 1_000_000,
    // Two slices per window, so a run times over 100 of them.
    slice: 500_000,
    setups: 5,
    min_slices: MIN_OPS,
    check: check_faults_window,
};

fn snapshots(
    run: &mut Run,
    ops: &mut Samples,
    plan: &Plan,
    seed: u64,
    seconds: u64,
) -> Result<Digest, String> {
    let mut warmed: Vec<(Scenario, MachineSnapshot)> = Vec::new();
    let mut first_setup = None;
    for _ in 0..plan.setups {
        run.rec.open("setup");
        let (scenarios, mut raw, mut cal) =
            run.timed(|rec| rec.span(plan.generate_span, || (plan.generate)(seed)));
        warmed.clear();
        let mut digest = Digest::default();
        for s in scenarios {
            // One reading per scenario: a set-up can span seconds, over
            // which the host's speed moves.
            let (out, r, c) = run.timed(|rec| warm(rec, &s, plan.warmup));
            let (m, snap) = out?;
            raw += r;
            cal += c;
            digest.add(Digest::of(&m));
            warmed.push((s, snap));
        }
        run.rec.close();
        run.setup.push(raw, cal, 0.0, false);
        run.report.attempted += 1;
        check_repeat(&mut run.report, &mut first_setup, digest, "set-up");
    }

    let n = warmed.len();
    let mut live: Vec<Machine> = Vec::new();
    for (_, snap) in &warmed {
        live.push(run.rec.span("restore", || snap.restore()));
    }
    let mut progress = vec![0u64; n];
    let mut first_window: Vec<Option<Digest>> = vec![None; n];
    let mut windows_done = 0usize;
    let start = Instant::now();
    let mut k = 0usize;
    while start.elapsed().as_secs() < seconds || windows_done < n || k < plan.min_slices {
        let i = k % n;
        let traced = run.rec.phase(k / n);
        let (s, snap) = &warmed[i];
        let m = &mut live[i];
        let nodes = s.config.resolved_topology().compute_nodes();
        op(
            run,
            ops,
            (plan.slice * nodes as u64) as f64,
            traced,
            |rec| {
                rec.span("window run_network_cycles", || {
                    m.run_network_cycles(plan.slice)
                })
            },
        )
        .map_err(|e| format!("{} window: {e}", s.name))?;
        progress[i] += plan.slice;
        if progress[i] == plan.window {
            if first_window[i].is_none() {
                (plan.check)(&mut run.report, s, m);
            }
            check_repeat(
                &mut run.report,
                &mut first_window[i],
                Digest::of(m),
                &s.name,
            );
            windows_done += 1;
            live[i] = run.rec.span("restore", || snap.restore());
            progress[i] = 0;
        }
        k += 1;
    }
    run.rec.end_phases();
    let mut digest = Digest::default();
    for d in first_window.into_iter().flatten() {
        digest.add(d);
    }
    let window = plan.window;
    run.report.notes.push(format!(
        "{windows_done} complete windows of {window} cycles over {n} scenarios"
    ));
    Ok(digest)
}

/// `paper_8x8`'s check on a scenario's first window: the measured
/// communication distance tracks the mapping's analytic distance.
fn check_paper_window(report: &mut Report, s: &Scenario, m: &Machine) {
    let measured = m.measure();
    let expected = s.mapping.average_neighbor_distance(&Torus::new(2, 8));
    let off = (measured.distance - expected).abs() / expected;
    // NaN (no deliveries) fails too.
    if off.is_nan() || off >= 0.15 || measured.transaction_rate <= 0.0 {
        report.fail(format!(
            "{}: measured distance {:.3} vs mapping distance {expected:.3}, transaction rate {}",
            s.name, measured.distance, measured.transaction_rate
        ));
    }
}

/// `faults_4x4`'s check on a scenario's first window: faults fired and
/// transactions still completed.
fn check_faults_window(report: &mut Report, s: &Scenario, m: &Machine) {
    let dropped = m.fault_log().map_or(0, |log| log.dropped_messages());
    let rate = m.measure().transaction_rate;
    if dropped == 0 || rate <= 0.0 {
        report.fail(format!(
            "{}: the window dropped {dropped} messages, transaction rate {rate}",
            s.name
        ));
    }
}

fn shard(run: &mut Run, ops: &mut Samples, seconds: u64) -> Result<Digest, String> {
    let mut machine = None;
    let mut first_setup = None;
    for _ in 0..SETUPS {
        // Drop the previous machine first so peak RSS holds one machine.
        drop(machine.take());
        run.rec.open("setup");
        let (out, raw, cal) = run.timed(|rec| {
            let s = rec.span("scenario", shard_scenario);
            let mut m = rec.span("ShardedMachine::new", || {
                ShardedMachine::new(&s.config, &s.mapping, SHARDS)
            });
            m.set_jobs(1);
            rec.span("warmup ShardedMachine::run_network_cycles", || {
                m.run_network_cycles(SHARD_WARMUP)
            })
            .map(|()| m)
        });
        let mut m = out.map_err(|e| format!("shard_64x64 warmup: {e}"))?;
        run.rec
            .span("reset_measurements", || m.reset_measurements());
        run.rec.close();
        run.setup.push(raw, cal, 0.0, false);
        run.report.attempted += 1;
        check_repeat(
            &mut run.report,
            &mut first_setup,
            Digest::of_sharded(&m),
            "shard_64x64",
        );
        machine = Some(m);
    }
    let mut m = machine.expect("at least one set-up");
    let node_cycles = (SHARD_CHUNK * (SHARD_RADIX * SHARD_RADIX) as u64) as f64;
    let mut digest = None;
    let start = Instant::now();
    let mut k = 0usize;
    while start.elapsed().as_secs() < seconds || k < MIN_OPS.max(SHARD_DIGEST_CHUNKS) {
        let traced = run.rec.phase(k);
        op(run, ops, node_cycles, traced, |rec| {
            rec.span("window ShardedMachine::run_network_cycles", || {
                m.run_network_cycles(SHARD_CHUNK)
            })
        })
        .map_err(|e| format!("shard_64x64 window: {e}"))?;
        k += 1;
        if k == SHARD_DIGEST_CHUNKS {
            digest = Some(Digest::of_sharded(&m));
        }
    }
    run.rec.end_phases();
    let measured = run.rec.span("measure", || m.measure());
    if !(measured.distance > 0.95 && measured.distance < 1.05) || measured.transaction_rate <= 0.0 {
        run.report.fail(format!(
            "shard_64x64: identity mapping measured distance {:.3} (not ~1 hop), transaction rate {}",
            measured.distance, measured.transaction_rate
        ));
    }
    Ok(digest.expect("digest slice reached"))
}
