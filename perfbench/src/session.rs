//! `serve_session`: one client, one Unix-socket connection, one daemon.
//!
//! The daemon is `commloc_sim::serve::serve` on a second thread of this
//! process (`jobs: 1`, default cache bounds), bound to a socket under
//! `.perfbench/` in the working directory. The script:
//!
//! 1. set-up, repeated [`PRIMES`] times: a cold `sweep` of the 10-mapping
//!    suite (each repetition with its own warmup length, so each fills
//!    the caches from cold);
//! 2. until the run's seconds are used (and at least [`MIN_WARM`] and
//!    [`MIN_HOT`] requests), one `run` request for a new window on the
//!    last sweep's warm snapshots (warm: restore a snapshot, simulate the
//!    window) followed by [`HOT_PER_WARM`] exact repeats of earlier warm
//!    requests (hot: served from the result cache without simulating);
//! 4. `stats`, whose counters must equal what the script implies, then
//!    `shutdown`.

use crate::run::{Run, Samples};
use crate::Report;
use commloc_net::Torus;
use commloc_sim::json::Json;
use commloc_sim::mapping_suite;
use commloc_sim::serve::{serve, ServeOptions};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Cold priming sweeps (set-up repetitions).
const PRIMES: usize = 5;
/// Warmup of the priming sweeps (the k-th uses `PRIME_WARMUP + k`).
const PRIME_WARMUP: u64 = 1_500;
/// Window of the priming sweeps.
const PRIME_WINDOW: u64 = 500;
/// The mapping warm requests simulate: one of the suite's mappings that
/// do not depend on the seed, so every seed asks for the same work (a mix
/// of mappings made the warm median swing with the mix's sampling).
const WARM_MAPPING: &str = "scale3-x";
/// Window of the first warm request; each later one is a cycle longer,
/// so every warm request is new.
const WARM_WINDOW: u64 = 2_000;
/// Hot requests per warm request.
const HOT_PER_WARM: usize = 4;
/// Fewest warm requests; the digest covers their replies.
const MIN_WARM: usize = 20;
/// Fewest hot requests, so the p90 has ten samples beyond it.
const MIN_HOT: usize = 100;
/// Nodes of the default 8×8 machine the requests simulate.
const NODES: f64 = 64.0;
/// The daemon's default result-cache bound (`ServeOptions::default`).
const RESULT_CAPACITY: usize = 256;
/// The daemon's default warm-snapshot bound.
const WARM_CAPACITY: usize = 16;
/// Mappings in the suite a sweep covers.
const SUITE: usize = 10;

/// The client side of the connection.
struct Client {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

/// What one request returned: its `result` lines and its final event.
struct Reply {
    results: Vec<String>,
    last: Json,
    bytes: usize,
}

impl Client {
    /// Sends one request line and reads events until its `done`, `stats`
    /// or `error` event.
    fn request(&mut self, line: &str) -> Result<Reply, String> {
        writeln!(self.writer, "{line}").map_err(|e| format!("write: {e}"))?;
        self.writer.flush().map_err(|e| format!("flush: {e}"))?;
        let mut results = Vec::new();
        let mut bytes = 0;
        loop {
            let mut event = String::new();
            let n = self
                .reader
                .read_line(&mut event)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err(format!("daemon closed the connection during `{line}`"));
            }
            bytes += n;
            let doc = Json::parse(event.trim())?;
            let kind = doc
                .field("event")?
                .ok_or("event without `event`")?
                .as_string()?;
            match kind.as_str() {
                "result" => results.push(event.trim().to_string()),
                "done" | "stats" => {
                    return Ok(Reply {
                        results,
                        last: doc,
                        bytes,
                    })
                }
                "error" => return Err(format!("error event for `{line}`: {}", event.trim())),
                _ => {}
            }
        }
    }
}

fn u64_field(doc: &Json, name: &str) -> Result<u64, String> {
    doc.field(name)?
        .ok_or_else(|| format!("missing `{name}`"))?
        .as_u64()
}

/// Pins this process's main thread, and so every thread it starts
/// afterwards, to the CPU it is running on, using `taskset`. Returns the
/// CPU.
///
/// The daemon thread otherwise runs on the other CPU of a 2-vCPU host,
/// while the calibration kernel runs on the client's; the two CPUs'
/// neighbours load them differently, and the kernel then tracks the
/// wrong one. Pinned, the client and the daemon take turns on one CPU
/// (the client waits while the daemon works), as do the kernel and the
/// requests it calibrates.
fn pin_to_current_cpu() -> Result<usize, String> {
    let stat =
        std::fs::read_to_string("/proc/thread-self/stat").map_err(|e| format!("stat: {e}"))?;
    // Field 39 (`processor`); fields after the command name start at 3.
    let cpu: usize = stat
        .rsplit(')')
        .next()
        .and_then(|rest| rest.split_whitespace().nth(36))
        .and_then(|field| field.parse().ok())
        .ok_or("no processor field in /proc/thread-self/stat")?;
    let status = Command::new("taskset")
        .args([
            "-p",
            "-c",
            &cpu.to_string(),
            &std::process::id().to_string(),
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("taskset: {e}"))?;
    if status.success() {
        Ok(cpu)
    } else {
        Err(format!("taskset exited with {status}"))
    }
}

/// Runs `serve_session`.
pub fn run(seed: u64, seconds: u64, trace: bool) -> Report {
    let mut run = Run::new(trace);
    let pinned = match pin_to_current_cpu() {
        Ok(cpu) => format!("client and daemon threads pinned to CPU {cpu}"),
        Err(e) => format!("threads not pinned ({e}): the calibration kernel may run on another CPU than the daemon"),
    };
    run.report.notes.push(pinned);
    let _ = std::fs::create_dir_all(".perfbench");
    let socket = format!(".perfbench/serve-{}.sock", std::process::id());
    let _ = std::fs::remove_file(&socket);
    let options = ServeOptions {
        socket: Some(socket.clone()),
        jobs: 1,
        ..ServeOptions::default()
    };
    let start = Instant::now();
    let daemon = std::thread::spawn(move || serve(&options));
    let stream = loop {
        match UnixStream::connect(&socket) {
            Ok(stream) => break Some(stream),
            Err(_) if start.elapsed() < Duration::from_secs(30) && !daemon.is_finished() => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => break None,
        }
    };
    let daemon_start = start.elapsed().as_secs_f64();
    let outcome = match stream {
        Some(stream) => session(&mut run, stream, seed, seconds, trace, daemon_start),
        None => Err("could not connect to the daemon".to_string()),
    };
    if let Err(e) = outcome {
        run.report.attempted += 1;
        run.report.fail(e);
        // A session that broke off left the daemon serving: stop it.
        if let Ok(mut s) = UnixStream::connect(&socket) {
            let _ = writeln!(s, "{{\"op\":\"shutdown\"}}");
        }
    }
    match daemon.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => run.report.fail(format!("daemon: {e}")),
        Err(_) => run.report.fail("daemon thread panicked"),
    }
    let _ = std::fs::remove_file(&socket);
    // Removes the directory only if no other run is using it.
    let _ = std::fs::remove_dir(".perfbench");
    run.report
}

/// Times one request against a fresh calibration reading.
fn timed_request(
    run: &mut Run,
    client: &mut Client,
    line: &str,
) -> Result<(Reply, f64, f64), String> {
    run.report.attempted += 1;
    let (reply, raw, cal) = run.timed(|rec| rec.span("serve request", || client.request(line)));
    Ok((reply?, raw, cal))
}

fn session(
    run: &mut Run,
    stream: UnixStream,
    seed: u64,
    seconds: u64,
    trace: bool,
    daemon_start: f64,
) -> Result<(), String> {
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| format!("socket timeout: {e}"))?;
    let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
    let mut client = Client {
        writer: stream,
        reader,
    };

    // Set-up: daemon start plus a cold priming sweep, repeated.
    for k in 0..PRIMES {
        let warmup = PRIME_WARMUP + k as u64;
        let line = format!(
            "{{\"op\":\"sweep\",\"seed\":{seed},\"warmup\":{warmup},\"window\":{PRIME_WINDOW}}}"
        );
        // The sweep spans a second or more: calibrate before and after.
        let (reply, raw, _) = timed_request(run, &mut client, &line)?;
        let before = run.clock.calibrated(raw);
        run.clock.calibrate();
        let cal = (before + run.clock.calibrated(raw)) / 2.0;
        if reply.results.len() != SUITE {
            run.report.fail(format!(
                "priming sweep {k}: {} results, expected {SUITE}",
                reply.results.len()
            ));
        }
        run.setup.push(
            daemon_start + raw,
            run.clock.calibrated(daemon_start) + cal,
            0.0,
            false,
        );
    }

    // The last sweep's warm snapshots are all still cached.
    let warmup = PRIME_WARMUP + PRIMES as u64 - 1;

    // Measured phase: one warm request (a new window on a cached warm
    // snapshot) then HOT_PER_WARM hot ones (exact repeats of earlier warm
    // requests), so both classes see the same host conditions.
    let mut requests = Vec::new();
    let mut expected: HashMap<String, String> = HashMap::new();
    let (mut warm, mut hot) = (Samples::default(), Samples::default());
    let torus = Torus::new(2, 8);
    let mut suite = Vec::new();
    let mut reply_bytes = Vec::new();
    let start = Instant::now();
    let mut step = 0usize;
    while start.elapsed().as_secs() < seconds
        || warm.cal.len() < MIN_WARM
        || hot.cal.len() < MIN_HOT
    {
        let traced = run.rec.phase(step);
        if step.is_multiple_of(HOT_PER_WARM + 1) {
            let w = requests.len();
            let window = WARM_WINDOW + w as u64;
            let line = format!(
                "{{\"op\":\"run\",\"mapping\":\"{WARM_MAPPING}\",\"seed\":{seed},\"warmup\":{warmup},\"window\":{window}}}"
            );
            let (reply, raw, cal) = timed_request(run, &mut client, &line)?;
            let [result] = reply.results.as_slice() else {
                return Err(format!("warm request {w}: {} results", reply.results.len()));
            };
            if !result.contains("\"cached\":false") {
                run.report
                    .fail(format!("warm request {w} was served from the result cache"));
            }
            warm.push(raw, cal, window as f64 * NODES, traced);
            expected.insert(
                line.clone(),
                result.replacen("\"cached\":false", "\"cached\":true", 1),
            );
            requests.push(line);
        } else {
            let h = hot.cal.len();
            let line = &requests[h % requests.len()];
            let (reply, raw, cal) = timed_request(run, &mut client, line)?;
            if reply.results.len() != 1 || reply.results[0] != expected[line] {
                run.report.fail(format!(
                    "hot request {h}: reply differs from the first reply for its key"
                ));
            }
            hot.push(raw, cal, 0.0, traced);
            reply_bytes.push(reply.bytes as f64);
            if trace {
                // The suite regeneration every request pays, timed in
                // process beside the hot requests it is part of.
                let (_, _, cal) =
                    run.timed(|rec| rec.span("mapping_suite", || mapping_suite(&torus, seed)));
                suite.push(cal);
            }
        }
        step += 1;
    }
    run.rec.end_phases();

    // Stats must match the script: every priming and warm request a
    // miss, every hot request a hit, no collision.
    run.report.attempted += 1;
    let stats_reply = client.request("{\"op\":\"stats\"}")?;
    let misses = (PRIMES * SUITE + warm.cal.len()) as u64;
    let want = [
        ("hits", hot.cal.len() as u64),
        ("misses", misses),
        ("collisions", 0),
        ("entries", misses.min(RESULT_CAPACITY as u64)),
        ("warm_entries", (PRIMES * SUITE).min(WARM_CAPACITY) as u64),
    ];
    let mut counters = Vec::new();
    for (name, value) in want {
        let got = u64_field(&stats_reply.last, name)?;
        if got != value {
            run.report.fail(format!(
                "stats `{name}` = {got}, the script implies {value}"
            ));
        }
        counters.push((name, got));
    }
    run.report.attempted += 1;
    client.request("{\"op\":\"shutdown\"}")?;

    let digest: Vec<&str> = requests[..MIN_WARM]
        .iter()
        .map(|l| expected[l].as_str())
        .collect();
    run.report.digest = format!(
        "first_{MIN_WARM}_warm_replies_fnv={:016x}",
        fnv1a(digest.join("\n").as_bytes())
    );
    run.report.notes.push(warm.describe("warm requests"));
    run.report.notes.push(hot.describe("hot requests"));
    if trace {
        crate::probe::serve(run, &hot, &suite, &counters, &reply_bytes, seed);
        return Ok(());
    }
    run.common_metrics();
    run.report
        .metric("node_cycles_per_s", warm.rate(), "node-cycles/s");
    run.report.metric("warm_p50_ms", warm.p50_ms(), "ms");
    run.report.metric("hot_p50_ms", hot.p50_ms(), "ms");
    run.tail_metric(&hot, "hot requests");
    Ok(())
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
