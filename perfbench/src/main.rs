//! Host-time benchmark of the commloc simulator and its serve daemon.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_8x8 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One invocation runs one workload (`--workload all`: the four in turn)
//! in a single process, with at most two threads (the caller, and the
//! daemon thread of `serve_session`), and prints the run metadata, the
//! workload's simulated digest, every metric with its unit, and, as the
//! last line, a JSON record `{"correct", "attempted", "failed",
//! "metrics"}`. `--trace 0` reports
//! the end-to-end metrics with span recording off; `--trace 1` is a
//! separate run that records spans around every public call the
//! benchmark makes, runs the isolated-layer drivers of [`probe`], and
//! reports the per-layer metrics, span self times and tracing overhead.
//!
//! # Workloads
//!
//! Every workload is a closed loop with one client: the next operation
//! starts when the previous one has returned.
//!
//! * `paper_8x8` — the paper's 8×8 torus running the reduced conformance
//!   scenarios (`reduced_suite`: identity, scale3-x, random-1, worst ×
//!   contexts 1, 2, 4), each warmed and then measured serially through
//!   `Machine` itself. Loads net, mem and proc densely (every node
//!   active, d = 1 to 6 hops); bypasses fast-forward, shards and serve.
//!   Chosen because it is what `commloc conformance` and the figure
//!   benches spend their time on.
//! * `faults_4x4` — a 4×4 torus with 5% message drops and retry timeouts
//!   with doubling backoff (the machine bench's retry-gap scenario), with
//!   the watchdog widened so no run trips it. Loads the machine driver's
//!   bookkeeping (worklist, timer heap, fast-forward, watchdog), the mem
//!   retry path and net fault rolls; bypasses dense fabric work, shards
//!   and serve. Chosen so a change that speeds dense stepping but breaks
//!   fast-forward or the timer path shows.
//! * `shard_64x64` — a 4,096-node 64×64 torus, identity mapping, on
//!   `ShardedMachine` with 4 contiguous shards and one worker (the serial
//!   driver). Loads shard exchange and net/mem state larger than the
//!   host's caches (~34 MB); bypasses serve and fast-forward. The large-N
//!   point, and the only workload where per-node memory dominates.
//! * `serve_session` — one client on one Unix-socket connection to
//!   `commloc_sim::serve::serve` (daemon thread, `jobs: 1`, default cache
//!   bounds): cold priming sweeps of the 10-mapping suite, then `run`
//!   requests for new windows on cached warm snapshots (warm) interleaved
//!   with exact repeats of earlier ones (hot), then `stats`. Loads serve
//!   (parse, resolve, key, lookup, snapshot restore, JSON) and the mapping
//!   suite; the hot class bypasses simulation entirely. The only path
//!   that reaches serve.
//!
//! # End-to-end metrics
//!
//! Every workload reports every metric. Times are in calibrated seconds
//! (see [`calib`]); the log also prints the raw medians.
//!
//! * `setup_s` — median over the run's set-up repetitions of the work
//!   before the measured phase: scenario generation (including
//!   `mapping_suite`), construction and warmup; for `serve_session`,
//!   daemon start plus a cold priming sweep (the cache fill).
//! * `node_cycles_per_s` — median over measured windows of simulated
//!   network cycles × nodes per second, fast-forwarded cycles included;
//!   for `serve_session`, over warm requests (window × 64 nodes per
//!   client-observed request time).
//! * `warm_p50_ms`, `hot_p50_ms`, `hot_p90_ms` — client-observed request
//!   latency of the warm and hot classes; `hot_p90_ms` is the highest
//!   percentile up to the 90th with at least ten samples beyond it, and
//!   the log states which percentile and how many samples. The machine
//!   workloads have no result cache, so every measured window is a warm
//!   start and these are percentiles of the window latency.
//! * `peak_rss_mb` — the process's `VmHWM` less what the calibration
//!   kernel holds, in MiB; omitted when the host does not report it.
//!
//! The last line also counts operations attempted (set-ups, windows,
//! requests) and failed: a `SimError` (a watchdog trip included), a serve
//! `error` event, a hot reply that differs from the first reply for its
//! key, `stats` counters other than the script implies, or a simulated
//! digest that differs between repetitions of the same work in the run.
//! The printed digest is identical for every run with the same seed, so a
//! change meant only to speed the simulator up can be checked against
//! its parent.
//!
//! # Why it is built this way
//!
//! An earlier four-workload design was rejected as too noisy: with no
//! code change its medians moved by up to 25% (a sharded 256² set-up
//! time, its throughput by 12.5%, a serve throughput by 10%). Measured
//! causes, each removed here:
//!
//! * host speed drifts: on a shared 2-vCPU host the same dense 8×8
//!   window ran at 1.4–2.6 M node-cycles/s, with CPU time equal to wall
//!   time and no steal. A calibration kernel run beside each run did not track it,
//!   but one run right before every timed operation, doing the kinds of
//!   work the simulator does, does (see [`calib`]); runs also time many
//!   short operations and report medians of them;
//! * sharded throughput spread 26% with two workers and 5% with one, so
//!   no gated number comes from worker threads or a 535 MB working set;
//! * set-up time was a sub-millisecond allocation; here it is a phase
//!   that does real work, repeated several times per run, median kept;
//! * serve was scored by simulated throughput of a time-dependent mix;
//!   here it is scored by client-observed latency per request class, and
//!   warm requests ask for the same simulated work whatever the seed.

mod calib;
mod probe;
mod run;
mod session;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

/// Every workload, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["paper_8x8", "faults_4x4", "shard_64x64", "serve_session"];

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (set-ups, windows, requests).
    pub attempted: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// The simulated digest, identical for every run with the same seed.
    pub digest: String,
    /// Metrics for the record's last line.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the record.
    pub notes: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a failed operation.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }
}

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: `{value}` is not 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if parsed.workload != "all" && !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload `{}` is not one of {} or all",
            parsed.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(parsed)
}

/// The commit of the checkout in the working directory, read from
/// `.git` without running git (which could find an enclosing repository
/// instead); `None` outside a git checkout.
fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

fn metadata(workload: &str, args: &Args) -> String {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let commit = commit().map_or(String::new(), |c| format!(",\"commit\":\"{c}\""));
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"available_parallelism\":{cores}{commit},\"rustc\":\"{}\",\"profile\":\"{profile}\"}}",
        workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env!("PERFBENCH_RUSTC_VERSION"),
    )
}

/// Runs one workload and prints its block, ending with its record.
fn run_and_print(workload: &str, args: &Args) {
    println!("meta {}", metadata(workload, args));
    let mut report = if workload == "serve_session" {
        session::run(args.seed, args.seconds, args.trace)
    } else {
        workloads::run(workload, args.seed, args.seconds, args.trace)
    };
    for m in &report.metrics {
        if !m.value.is_finite() {
            report
                .failures
                .push(format!("metric {} is not a finite number", m.name));
        }
    }
    report.metrics.retain(|m| m.value.is_finite());
    println!("digest {}", report.digest);
    for note in &report.notes {
        println!("{note}");
    }
    for failure in &report.failures {
        println!("FAILED {failure}");
    }
    for m in &report.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    let failed = report.failures.len() as u64;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        report.attempted.max(1),
        metrics.join(",")
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: --workload <{}|all> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        for workload in WORKLOADS {
            run_and_print(workload, &args);
        }
    } else {
        run_and_print(&args.workload, &args);
    }
    ExitCode::SUCCESS
}
