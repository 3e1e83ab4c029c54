//! The traced run's per-layer metrics.
//!
//! Each workload names one probe scenario (its own configuration and
//! mapping, on a window short enough to trace). The isolated-layer
//! drivers here time each layer's public entry points on that scenario
//! from outside: a bare `Fabric` replaying the machine's traced
//! injections (net), a `ProtocolRig` driven at the measured issue rate
//! (mem), one `Processor` stepping the workload's programs (proc), and
//! `Machine`, `ShardedMachine`, `mapping_suite` and the serve cache
//! (sim). The machine's time not explained by the isolated net, mem and
//! proc estimates is reported as its residual (worklist, timers,
//! fast-forward, watchdog). Every time is in calibrated units (see
//! [`crate::calib`]), like the end-to-end metrics, so differences between
//! them are meaningful.
//!
//! `serve_session`'s traced run times `mapping_suite` in process right
//! after each hot request, so its hot latency splits into suite
//! regeneration, cache hit and the rest under the same host conditions.
//!
//! Every traced run reports every per-layer metric. Where a workload
//! bypasses a layer the probe still measures that layer's entry point on
//! the workload's scenario (so, for example, `shard.*` on `paper_8x8`
//! prices sharding the 8×8 machine), except the serve counters, which
//! then come from the in-process cache the probe itself exercised.

use crate::run::{Run, Samples};
use crate::stats;
use crate::workloads::{self, Scenario, SHARDS};
use commloc_mem::{MemOp, ProtocolRig};
use commloc_net::{Fabric, FabricConfig, Message, NodeId, Topology, TraceEvent};
use commloc_proc::Processor;
use commloc_sim::{
    mapping_suite, run_cached_sweep, serve::cache_stats, set_job_budget, state_word,
    workload_home_map, Machine, NamedMapping, ScenarioKey, ShardedMachine,
};
use std::collections::VecDeque;
use std::io::Write;

/// Flit-trace ring large enough that no probe scenario evicts an event.
const TRACE_CAPACITY: usize = 1 << 20;
/// Repetitions of each timed call (median kept).
const REPS: usize = 3;
/// In-process serve-cache hits timed for `serve.hit_us`.
const HITS: usize = 200;

/// A probe scenario: what the isolated drivers run.
struct Probe {
    scenario: Scenario,
    warmup: u64,
    window: u64,
    /// Cycles run from cold for the sharded-versus-monolithic comparison.
    shard_prefix: u64,
    /// Processor cycles the protocol rig runs.
    rig_cycles: u64,
    /// Drop rate of the rig's lossy transport (0 = perfect).
    rig_drop: f64,
}

fn probe_for(workload: &str, seed: u64) -> Probe {
    match workload {
        "paper_8x8" => Probe {
            // The heaviest reduced scenario: random-1 with 4 contexts.
            scenario: workloads::paper_scenarios(seed)
                .into_iter()
                .find(|s| s.name == "random-1/c4")
                .expect("reduced suite has random-1"),
            warmup: 3_000,
            window: 6_000,
            shard_prefix: 3_000,
            rig_cycles: 3_000,
            rig_drop: 0.0,
        },
        "faults_4x4" => Probe {
            scenario: workloads::faults_scenario(seed.wrapping_mul(4)),
            warmup: 200_000,
            window: 400_000,
            shard_prefix: 50_000,
            rig_cycles: 200_000,
            rig_drop: 0.05,
        },
        "shard_64x64" => Probe {
            scenario: workloads::shard_scenario(),
            warmup: 200,
            window: 100,
            shard_prefix: 100,
            rig_cycles: 100,
            rig_drop: 0.0,
        },
        _ => Probe {
            scenario: workloads::serve_scenario(),
            warmup: 1_500,
            window: 2_000,
            shard_prefix: 2_000,
            rig_cycles: 2_000,
            rig_drop: 0.0,
        },
    }
}

/// Times `f` in calibrated seconds against a fresh reading.
fn timed<R>(run: &mut Run, f: impl FnOnce() -> R) -> (R, f64) {
    let (out, _, cal) = run.timed(|_| f());
    (out, cal)
}

/// Median calibrated seconds of `REPS` calls of `f`.
fn median_time<R>(run: &mut Run, mut f: impl FnMut() -> R) -> f64 {
    let times: Vec<f64> = (0..REPS).map(|_| timed(run, &mut f).1).collect();
    stats::median(&times).expect("REPS > 0")
}

/// Per-layer metrics of a machine workload's traced run.
pub fn machine(run: &mut Run, workload: &str, seed: u64, ops: &Samples) {
    let probe = probe_for(workload, seed);
    finish_trace(run, workload, ops);
    if let Err(e) = layers(run, &probe, seed, None) {
        run.report.attempted += 1;
        run.report.fail(e);
        return;
    }
    if let Err(e) = in_process_serve(run, &probe) {
        run.report.attempted += 1;
        run.report.fail(e);
    }
}

/// Per-layer metrics of `serve_session`'s traced run: the daemon's own
/// counters, plus the hot latency split into suite regeneration, cache
/// hit and the rest (parse, key, render, socket).
pub fn serve(
    run: &mut Run,
    hot: &Samples,
    suite: &[f64],
    counters: &[(&'static str, u64)],
    reply_bytes: &[f64],
    seed: u64,
) {
    let probe = probe_for("serve_session", seed);
    finish_trace(run, "serve_session", hot);
    let suite_ms = stats::median(suite).unwrap_or(f64::NAN) * 1e3;
    if let Err(e) = layers(run, &probe, seed, Some(suite_ms)) {
        run.report.attempted += 1;
        run.report.fail(e);
        return;
    }
    let cache = match cache_probe(run, &probe) {
        Ok(cache) => cache,
        Err(e) => {
            run.report.attempted += 1;
            run.report.fail(e);
            return;
        }
    };
    let other_ms = hot.p50_ms() - suite_ms - cache.hit_us / 1e3;
    run.report.metric("serve.other_ms", other_ms, "ms");
    run.report.notes.push(format!(
        "hot_p50_ms {:.3} = mapping.suite_ms {suite_ms:.3} + serve.hit_us {:.1} us + serve.other_ms \
         {other_ms:.3} (parse, key {:.1} us, render, socket)",
        hot.p50_ms(),
        cache.hit_us,
        cache.key_us
    ));
    for (name, value) in counters {
        let metric = match *name {
            "hits" => "serve.hits",
            "misses" => "serve.misses",
            "collisions" => "serve.collisions",
            "warm_entries" => "serve.warm_entries",
            _ => continue,
        };
        run.report.metric(metric, *value as f64, "count");
    }
    run.report.metric(
        "serve.reply_bytes",
        stats::median(reply_bytes).unwrap_or(0.0),
        "B",
    );
}

/// Tracing overhead and span self times; writes the spans out.
fn finish_trace(run: &mut Run, workload: &str, ops: &Samples) {
    run.report
        .metric("trace.overhead_pct", ops.overhead() * 100.0, "%");
    let kernel = stats::median(&run.clock.kernel).unwrap_or(f64::NAN);
    run.report.metric("host.calibration_ms", kernel * 1e3, "ms");
    let line = run.kernel_line();
    run.report.notes.push(line);
    for (name, (secs, calls)) in run.rec.self_time_by_name() {
        run.report.notes.push(format!(
            "span self time: {name}: {:.6} s over {calls} calls",
            secs
        ));
    }
    let path = format!(".perfbench/spans-{workload}.jsonl");
    let written = std::fs::create_dir_all(".perfbench")
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|mut f| {
            run.rec
                .write_jsonl(&mut f, workload, std::process::id().into())?;
            f.flush()
        });
    match written {
        Ok(()) => run.report.notes.push(format!("spans written to {path}")),
        Err(e) => run
            .report
            .notes
            .push(format!("spans not written ({path}: {e})")),
    }
}

/// The machine, net, mem, proc, shard and mapping metrics. `suite_ms`,
/// when given, is `mapping.suite_ms` as the caller measured it.
fn layers(run: &mut Run, probe: &Probe, seed: u64, suite_ms: Option<f64>) -> Result<(), String> {
    let s = &probe.scenario;
    let config = &s.config;
    let topology = config.resolved_topology();
    let nodes = topology.compute_nodes();
    let nodes_f = nodes as f64;
    let ratio = f64::from(config.clock_ratio);
    let err = |what: &str| {
        let name = s.name.clone();
        let what = what.to_string();
        move |e: commloc_sim::SimError| format!("probe {name} {what}: {e}")
    };

    // sim.mapping: the suite every serve request regenerates.
    let Topology::Cube(torus) = &topology else {
        return Err(format!("probe {}: not a torus", s.name));
    };
    let suite_ms = match suite_ms {
        Some(ms) => ms,
        None => median_time(run, || mapping_suite(torus, seed)) * 1e3,
    };
    run.report.metric("mapping.suite_ms", suite_ms, "ms");

    // sim.machine: construction, warmup, window, snapshot and restore.
    let new = median_time(run, || Machine::new(config, &s.mapping));
    run.report.metric("machine.new_ms", new * 1e3, "ms");
    let mut m = Machine::new(config, &s.mapping);
    let (out, warm) = timed(run, || m.run_network_cycles(probe.warmup));
    out.map_err(err("warmup"))?;
    run.report.metric("machine.warmup_s", warm, "s");
    m.reset_measurements();
    let snap_ms = median_time(run, || m.snapshot()) * 1e3;
    run.report.metric("machine.snapshot_ms", snap_ms, "ms");
    let snap = m.snapshot();
    let restore_ms = median_time(run, || snap.restore()) * 1e3;
    run.report.metric("machine.restore_ms", restore_ms, "ms");
    let before = m.completions();
    let (out, window_s) = timed(run, || m.run_network_cycles(probe.window));
    out.map_err(err("window"))?;
    let completions = (m.completions() - before).max(1) as f64;
    let measured = m.measure();
    let breakdown = m.latency_breakdown();
    let deliveries = breakdown.deliveries.max(1) as f64;
    let machine_ns = window_s * 1e9 / (probe.window as f64 * nodes_f);
    run.report
        .metric("machine.ns_per_node_cycle", machine_ns, "ns");
    run.report.metric(
        "machine.ns_per_completion",
        window_s * 1e9 / completions,
        "ns",
    );
    run.report.metric(
        "machine.fast_forward_frac",
        m.fast_forwarded_cycles() as f64 / m.net_cycle() as f64,
        "share",
    );
    run.report
        .metric("mem.hit_fraction", measured.hit_fraction, "share");
    run.report.metric(
        "mem.messages_per_txn",
        measured.messages_per_transaction,
        "count",
    );
    run.report.metric(
        "net.queue_cycles",
        breakdown.queue as f64 / deliveries,
        "cycles",
    );
    run.report.metric(
        "net.contended_hop_cycles",
        breakdown.contended_hop as f64 / deliveries,
        "cycles",
    );
    let dropped = m.fault_log().map_or(0, |log| log.dropped_messages());
    run.report
        .metric("net.dropped_messages", dropped as f64, "count");
    if let Some(peak) = run.own_peak_rss() {
        run.report.metric(
            "machine.rss_bytes_per_node",
            peak as f64 / nodes_f,
            "B/node",
        );
    }
    drop(m);

    // net: replay the window's injections on a bare fabric.
    let (net_ns, share) = net_replay(run, probe, window_s)?;
    // mem: the protocol engines alone, at the measured issue rate.
    let rig_ns_per_node_cycle = mem_rig(run, probe, &measured)?;
    // proc: one processor running the workload's contexts.
    let proc_ns = proc_step(run, probe, &measured);
    run.report.metric("net.host_share", share, "share");
    let residual = machine_ns - net_ns / nodes_f - rig_ns_per_node_cycle - proc_ns / ratio;
    run.report
        .metric("machine.residual_ns_per_node_cycle", residual, "ns");

    // sim.shard: construction, and the serial sharded driver against the
    // monolithic machine on the same cold prefix.
    let shard_new = median_time(run, || ShardedMachine::new(config, &s.mapping, SHARDS));
    run.report.metric("shard.new_ms", shard_new * 1e3, "ms");
    let mut mono = Machine::new(config, &s.mapping);
    let (out, mono_s) = timed(run, || mono.run_network_cycles(probe.shard_prefix));
    out.map_err(err("monolithic prefix"))?;
    let mut sharded = |jobs: usize| -> Result<f64, String> {
        let mut sm = ShardedMachine::new(config, &s.mapping, SHARDS);
        sm.set_jobs(jobs);
        let (out, secs) = timed(run, || sm.run_network_cycles(probe.shard_prefix));
        out.map_err(|e| format!("probe {} sharded prefix: {e}", s.name))?;
        if sm.completions() != mono.completions() {
            return Err(format!(
                "probe {}: sharded and monolithic machines disagree",
                s.name
            ));
        }
        Ok(secs)
    };
    let serial = sharded(1)?;
    set_job_budget(2);
    let two = sharded(2)?;
    run.report
        .metric("shard.overhead_ratio", serial / mono_s, "share");
    run.report.metric("shard.speedup_2w", serial / two, "share");
    run.report.notes.push(format!(
        "shard.speedup_2w with available_parallelism {} (not gated: two workers spread 26%)",
        std::thread::available_parallelism().map_or(0, usize::from)
    ));
    Ok(())
}

/// Replays the probe window's `TraceEvent::Inject` stream on a bare
/// fabric of the same topology and buffering. Returns the replay's ns per
/// network cycle and its share of the machine's window time.
fn net_replay(run: &mut Run, probe: &Probe, machine_window_s: f64) -> Result<(f64, f64), String> {
    let s = &probe.scenario;
    let mut traced = s.config.clone();
    traced.fabric.trace_capacity = TRACE_CAPACITY;
    let mut m = Machine::new(&traced, &s.mapping);
    m.run_network_cycles(probe.warmup)
        .map_err(|e| format!("probe traced warmup: {e}"))?;
    let start = m.net_cycle();
    m.run_network_cycles(probe.window)
        .map_err(|e| format!("probe traced window: {e}"))?;
    let trace = m.trace().expect("tracing is on");
    if trace.recorded() != trace.len() as u64 {
        return Err(format!(
            "probe trace evicted events: {} recorded, {} kept (raise TRACE_CAPACITY)",
            trace.recorded(),
            trace.len()
        ));
    }
    let mut injections: VecDeque<(u64, usize, usize, u32)> = trace
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::Inject {
                cycle,
                src,
                dst,
                length,
                ..
            } if cycle > start => Some((cycle - start, src.0, dst.0, length)),
            _ => None,
        })
        .collect();
    drop(m);
    let injected = injections.len();
    let config = FabricConfig {
        trace_capacity: 0,
        ..s.config.fabric
    };
    let mut fabric: Fabric<u64> = Fabric::new(s.config.resolved_topology(), config);
    let mut events = Vec::new();
    let (out, secs) = timed(run, || {
        for _ in 0..probe.window {
            while injections
                .front()
                .is_some_and(|&(c, ..)| c <= fabric.cycle() + 1)
            {
                let (_, src, dst, length) = injections.pop_front().expect("front exists");
                fabric.inject(Message::new(NodeId(src), NodeId(dst), length, 0));
            }
            fabric.step()?;
            fabric.take_delivery_events(&mut events);
            for &node in &events {
                while fabric.poll_delivery(NodeId(node as usize)).is_some() {}
            }
            events.clear();
        }
        Ok::<(), commloc_net::FabricError>(())
    });
    out.map_err(|e| format!("probe replay: {e}"))?;
    let ns = secs * 1e9 / probe.window as f64;
    run.report.metric("net.replay_ns_per_cycle", ns, "ns");
    run.report.metric(
        "net.flits_per_cycle",
        fabric.stats().link_flits as f64 / probe.window as f64,
        "count",
    );
    run.report.notes.push(format!(
        "net replay: {injected} injections over {} cycles",
        probe.window
    ));
    Ok((ns, secs / machine_window_s))
}

/// Drives a `ProtocolRig` with the workload's access pattern (each node
/// reads its successor's state word, then writes its own) at the issue
/// rate and message latency the machine measured. Returns the rig's ns
/// per node per network cycle.
fn mem_rig(
    run: &mut Run,
    probe: &Probe,
    measured: &commloc_sim::Measurements,
) -> Result<f64, String> {
    let s = &probe.scenario;
    let config = &s.config;
    let topology = config.resolved_topology();
    let n = topology.compute_nodes();
    let ratio = f64::from(config.clock_ratio);
    let latency = (measured.message_latency / ratio).round().max(1.0) as u64;
    let gap = (measured.run_length / ratio).round().max(1.0) as u64;
    let home = workload_home_map(&topology, &s.mapping, config.contexts);
    let mut rig = if probe.rig_drop > 0.0 {
        ProtocolRig::lossy(n, latency, config.mem, probe.rig_drop, 7)
    } else {
        ProtocolRig::with_home_map(n, latency, config.mem, home)
    };
    let mut next_issue = vec![0u64; n];
    let mut issued = vec![0u64; n];
    let (_, secs) = timed(run, || {
        for cycle in 0..probe.rig_cycles {
            for node in 0..n {
                let busy = rig.controller(NodeId(node)).outstanding_transactions();
                if cycle >= next_issue[node] && busy < config.contexts {
                    let k = issued[node];
                    let op = if k.is_multiple_of(2) {
                        MemOp::Read(state_word(0, (node + 1) % n, n))
                    } else {
                        MemOp::Write(state_word(0, node, n), k)
                    };
                    rig.issue(NodeId(node), op);
                    issued[node] += 1;
                    next_issue[node] = cycle + gap;
                }
            }
            rig.step();
        }
    });
    let (completions, retries) = (0..n).fold((0u64, 0u64), |(c, r), node| {
        let st = rig.controller(NodeId(node)).stats();
        (c + st.completions, r + st.retries)
    });
    if completions == 0 {
        return Err(format!(
            "probe {}: the protocol rig completed nothing",
            s.name
        ));
    }
    run.report
        .metric("mem.rig_ns_per_txn", secs * 1e9 / completions as f64, "ns");
    run.report.metric(
        "mem.retries_per_txn",
        retries as f64 / completions as f64,
        "count",
    );
    Ok(secs * 1e9 / (probe.rig_cycles as f64 * n as f64 * ratio))
}

/// Steps one processor running the workload's programs for node 0, each
/// memory access completing after the measured transaction latency.
/// Returns ns per processor step.
fn proc_step(run: &mut Run, probe: &Probe, measured: &commloc_sim::Measurements) -> f64 {
    let config = &probe.scenario.config;
    let topology = config.resolved_topology();
    let programs = (0..config.contexts)
        .map(|instance| config.workload.program(&topology, instance, 0, config.work))
        .collect();
    let mut cpu = Processor::new(programs, config.switch_cycles);
    let latency = (measured.transaction_latency / f64::from(config.clock_ratio))
        .round()
        .max(1.0) as u64;
    let steps = 200_000u64;
    let mut due: VecDeque<(u64, usize)> = VecDeque::new();
    let (_, secs) = timed(run, || {
        for cycle in 0..steps {
            while due.front().is_some_and(|&(at, _)| at <= cycle) {
                let (_, ctx) = due.pop_front().expect("front exists");
                cpu.complete(ctx, 0);
            }
            if let Some(req) = cpu.step() {
                due.push_back((cycle + latency, req.context));
            }
        }
    });
    let ns = secs * 1e9 / steps as f64;
    run.report.metric("proc.step_ns", ns, "ns");
    ns
}

/// The serve cache on the probe scenario, in process.
struct CacheProbe {
    /// `ScenarioKey::new`, microseconds.
    key_us: f64,
    /// A `run_cached_sweep` hit for one mapping, microseconds.
    hit_us: f64,
    /// Length of the hit's latency-breakdown JSON, the bulk of a reply.
    reply_bytes: usize,
}

fn cache_probe(run: &mut Run, probe: &Probe) -> Result<CacheProbe, String> {
    let s = &probe.scenario;
    let key = median_time(run, || {
        for _ in 0..100 {
            std::hint::black_box(ScenarioKey::new(&s.config, &s.mapping, 1, 1));
        }
    });
    let named = [NamedMapping {
        name: s.name.clone(),
        mapping: s.mapping.clone(),
        distance: 0.0,
    }];
    // A 1-cycle warmup and window: the entry's cost does not depend on them.
    run_cached_sweep(&s.config, &named, 1, 1, 1).map_err(|e| format!("probe cache fill: {e}"))?;
    let mut times = Vec::with_capacity(HITS);
    let mut reply_bytes = 0;
    for _ in 0..HITS {
        let (out, secs) = timed(run, || run_cached_sweep(&s.config, &named, 1, 1, 1));
        let hit = out.map_err(|e| format!("probe cache hit: {e}"))?;
        if !hit.iter().all(|r| r.cached) {
            return Err("probe: a repeated scenario missed the cache".into());
        }
        reply_bytes = hit[0].breakdown_json.len();
        times.push(secs * 1e6);
    }
    let cache = CacheProbe {
        key_us: key * 1e6 / 100.0,
        hit_us: stats::median(&times).expect("HITS > 0"),
        reply_bytes,
    };
    run.report.metric("serve.key_us", cache.key_us, "us");
    run.report.metric("serve.hit_us", cache.hit_us, "us");
    Ok(cache)
}

/// The serve metrics of a machine workload, which never reaches the
/// daemon: the in-process cache on the workload's scenario.
fn in_process_serve(run: &mut Run, probe: &Probe) -> Result<(), String> {
    let cache = cache_probe(run, probe)?;
    // In process there is no parse, render or socket: beyond the suite
    // and the lookup, a hot request costs only its key.
    run.report
        .metric("serve.other_ms", cache.key_us / 1e3, "ms");
    let stats = cache_stats();
    run.report.metric("serve.hits", stats.hits as f64, "count");
    run.report
        .metric("serve.misses", stats.misses as f64, "count");
    run.report
        .metric("serve.collisions", stats.collisions as f64, "count");
    run.report
        .metric("serve.warm_entries", stats.warm_entries as f64, "count");
    run.report
        .metric("serve.reply_bytes", cache.reply_bytes as f64, "B");
    run.report
        .notes
        .push("serve.* on a machine workload: the in-process cache on the probe scenario".into());
    Ok(())
}
