//! Shard-parallel scale-out throughput harness.
//!
//! Measures the sharded engine's throughput in **simulated network
//! cycles per wall-clock second** on a large torus (default 256x256 =
//! 65,536 nodes — three orders of magnitude past the paper's 8x8
//! machine) as the worker-thread count grows, and writes the measured
//! scaling curve to `target/bench/BENCH_scale.json`. The committed
//! `BENCH_scale.json` at the repository root is only read; copying the
//! measured record over it re-blesses the baseline.
//!
//! Every point runs the identical simulation — the sharded engine is
//! bit-deterministic for any worker count — so the harness also
//! cross-checks that completions and elapsed cycles match across
//! points, making this a cheap end-to-end determinism smoke on top of
//! the equivalence tests and fuzzer.
//!
//! The record carries `host_cores`: worker-count speedup is bounded by
//! the physical cores of the machine that produced it, so a curve that
//! is flat beyond `host_cores` workers is the host's limit, not the
//! engine's. Peak resident memory is sampled from `/proc/self/status`
//! (`VmHWM`) and reported as bytes per simulated node — the SoA-slab
//! footprint figure that gates whether N = 10^6 fits in RAM.
//!
//! Regression gate: if a committed `BENCH_scale.json` exists and the
//! environment sets `COMMLOC_PERF_ENFORCE=1`, the harness exits
//! non-zero when any worker point's cycles/sec drops more than 50%
//! below the committed figure (same tolerance as the machine bench —
//! full-machine wall-clock on shared hosts is noisy, and the failure
//! modes this guards against cost well over 2x).
//!
//! Run with: `cargo bench --bench scale`. Set `COMMLOC_SCALE_RADIX`
//! (e.g. 64) for a quick smoke run — smoke runs print the curve but
//! neither compare nor write a record, so CI can exercise the harness
//! without a small-torus baseline.

use commloc_bench::{committed_baseline, render_scale_json, write_measured, ScalePoint};
use commloc_sim::{set_job_budget, Machine, Mapping, SimConfig};

const DEFAULT_RADIX: usize = 256;
const DEFAULT_CYCLES: u64 = 400;
const SHARDS: usize = 16;
const WORKERS: [usize; 4] = [1, 2, 4, 8];

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// Builds a fresh sharded machine and runs `cycles` network cycles with
/// `workers` threads, returning wall seconds and the determinism
/// observables.
fn run_point(
    config: &SimConfig,
    mapping: &Mapping,
    cycles: u64,
    workers: usize,
) -> (f64, u64, u64) {
    let mut machine = Machine::with_shards(config, mapping, SHARDS);
    machine.set_jobs(workers);
    let start = std::time::Instant::now();
    machine
        .run_network_cycles(cycles)
        .expect("scale scenario must not stall");
    (
        start.elapsed().as_secs_f64(),
        machine.net_cycle(),
        machine.completions(),
    )
}

/// Peak resident set size of this process in bytes (`VmHWM`), or `None`
/// off Linux.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Pulls `"cycles_per_sec": <value>` for a worker point out of a
/// committed baseline without a JSON dependency: point objects are one
/// per line in the format this harness writes.
fn baseline_cycles_per_sec(baseline: &str, workers: usize) -> Option<f64> {
    let needle = format!("\"workers\": {workers},");
    let line = baseline.lines().find(|l| l.contains(&needle))?;
    let rest = line.split("\"cycles_per_sec\": ").nth(1)?;
    rest.split(|c: char| c != '.' && !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

fn main() {
    let radix = env_usize("COMMLOC_SCALE_RADIX", DEFAULT_RADIX);
    let cycles = env_usize("COMMLOC_SCALE_CYCLES", DEFAULT_CYCLES as usize) as u64;
    let smoke = radix != DEFAULT_RADIX;
    let nodes = radix * radix;
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);

    let config = SimConfig {
        dims: 2,
        radix,
        ..SimConfig::default()
    };
    let mapping = Mapping::identity(nodes);

    // Raise the process budget up front so every point gets exactly the
    // workers it asks for; `set_jobs` per machine then selects the count.
    set_job_budget(*WORKERS.iter().max().unwrap());

    println!(
        "=== Shard-parallel scale-out: {radix}x{radix} torus ({nodes} nodes, {SHARDS} shards, \
         {cycles} net cycles, host has {host_cores} core(s)) ===\n"
    );
    let mut points: Vec<ScalePoint> = Vec::new();
    for &workers in &WORKERS {
        let (secs, net_cycles, completions) = run_point(&config, &mapping, cycles, workers);
        assert_eq!(net_cycles, cycles, "engine must run the requested cycles");
        if let Some(first) = points.first() {
            assert_eq!(
                completions, first.completions,
                "sharded engine must be bit-deterministic across worker counts"
            );
        }
        let cycles_per_sec = net_cycles as f64 / secs;
        let speedup = points
            .first()
            .map_or(1.0, |first| cycles_per_sec / first.cycles_per_sec);
        println!(
            "{workers} worker(s): {cycles_per_sec:>10.1} cyc/s  ({secs:.2}s wall, \
             {completions} completions, speedup {speedup:.2}x)"
        );
        points.push(ScalePoint {
            workers,
            cycles: net_cycles,
            wall_secs: secs,
            cycles_per_sec,
            completions,
            speedup,
        });
    }

    let rss_per_node = peak_rss_bytes().map(|b| b as f64 / nodes as f64);
    match rss_per_node {
        Some(rss) => println!("\npeak RSS: {rss:.0} bytes per simulated node"),
        None => println!("\npeak RSS: VmHWM unavailable on this host"),
    }

    if smoke {
        println!("\nsmoke run (radix {radix} != {DEFAULT_RADIX}): no record written");
        return;
    }

    let baseline = committed_baseline("scale");
    let mut regressed = Vec::new();
    if let Some(baseline) = &baseline {
        println!();
        for p in &points {
            let Some(committed) = baseline_cycles_per_sec(baseline, p.workers) else {
                continue;
            };
            let ratio = p.cycles_per_sec / committed;
            println!(
                "vs committed baseline: {} worker(s) {:>6.2}x ({:.0} -> {:.0} cyc/s)",
                p.workers, ratio, committed, p.cycles_per_sec
            );
            if ratio < 0.5 {
                regressed.push(format!(
                    "{} worker(s): {:.0} cyc/s is {:.0}% below the committed {:.0} cyc/s",
                    p.workers,
                    p.cycles_per_sec,
                    (1.0 - ratio) * 100.0,
                    committed
                ));
            }
        }
    }

    let measured = write_measured(
        "scale",
        &render_scale_json(radix, SHARDS, host_cores, rss_per_node, &points),
    );
    println!("\nwrote {}", measured.display());

    if !regressed.is_empty() {
        eprintln!("\nperformance regression (>50% below committed baseline):");
        for r in &regressed {
            eprintln!("  {r}");
        }
        if std::env::var("COMMLOC_PERF_ENFORCE").as_deref() == Ok("1") {
            std::process::exit(1);
        }
        eprintln!("  (set COMMLOC_PERF_ENFORCE=1 to fail the run)");
    }
}
