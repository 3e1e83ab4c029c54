//! `commloc` — command-line front end to the models and the simulator.
//!
//! ```text
//! commloc solve  --nodes 1000 --contexts 2 --distance 4.06
//! commloc gain   --contexts 1 --sizes 10,100,1000,1000000
//! commloc scale  --contexts 2
//! commloc sim    --mapping random --contexts 2 --warmup 20000 --window 60000
//! commloc report --mapping random --contexts 2 --trace events.jsonl
//! commloc suite  --contexts 1 --csv
//! ```
//!
//! Argument parsing is deliberately dependency-free: `--key value` pairs
//! only, validated against each subcommand's option set, with defaults
//! matching the paper's Section 3 machine.

use commloc_model::{
    expected_gain, limiting_per_hop_latency, log_spaced_sizes, per_hop_latency_curve,
    MachineConfig, MessageComponents,
};
use commloc_net::fuzz::{self, FuzzScenario};
use commloc_net::Topology;
use commloc_sim::conformance::figures::{
    default_golden_dir, load_golden, resilience_degradation_detail, resilience_wave_detail,
    self_check, store_golden, ConformanceRun, FIGURES,
};
use commloc_sim::conformance::{rel_err, suite_jobs, GoldenTable, Violation};
use commloc_sim::{
    default_jobs, model_profile, parallel_map, run_cached_sweep, run_experiment,
    run_sharded_experiment, set_job_budget, topology_mapping_suite, Machine, Mapping, Measurements,
    ServeOptions, SimConfig, Trace, Workload, BREAKDOWN_CSV_HEADER, MEASUREMENTS_CSV_HEADER,
};
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "\
commloc — communication locality models and simulator (Johnson, ISCA '92)

USAGE:
    commloc <COMMAND> [--key value ...]

COMMANDS:
    solve   solve the combined model at one operating point
            --nodes N --contexts P --distance D --grain T_r --ratio F
    gain    expected gain from ideal vs random thread placement
            --contexts P --sizes N1,N2,...
    scale   per-hop latency saturation across machine sizes (Fig. 6)
            --contexts P
    sim     run the cycle-level 64-node simulator with one mapping
            --mapping identity|random|worst|swaps-K --seed S
            --contexts P --warmup W --window C [--csv]
            [--topology T] [--traffic W | --trace-in FILE]
    report  run one simulation and print the latency-component breakdown
            (measured vs model, per component); with --topology it also
            prints the measured-vs-model locality-gain table for that
            interconnect
            --mapping M --seed S --contexts P --warmup W --window C
            [--trace FILE] [--csv] [--shards K --jobs J]
            [--topology T] [--traffic W | --trace-in FILE]
            (--shards splits the machine into K shards, bit-exact with
            one shard; --jobs sets its worker threads and requires
            --shards; tracing requires one shard)
    suite   run the full validation mapping suite
            --contexts P --seed S --jobs J [--shards K] [--csv]
            [--topology T] [--traffic W | --trace-in FILE]
            (--jobs defaults to the machine's available parallelism;
            with --shards every mapping runs on the shard-parallel
            engine, and sweep workers and shard workers share one job
            budget so --jobs is never oversubscribed)

    Topology T is cube | mesh | fattree[:ARITY,LEVELS] |
    dragonfly[:ROUTERS,GLOBALS]; cube and mesh take their shape from the
    paper's 2-D radix-8 machine. Traffic W is neighbor | hotspot[:K] |
    transpose; --trace-in replays a JSON-lines trace (one
    {\"thread\":T,\"op\":...} per line) instead.
    conformance
            run the paper-figure conformance gates (Figs. 3-9): reduced
            deterministic scenarios checked against the golden tables in
            conformance/golden/ plus the paper's own claims
            --figure figN --jobs J [--csv] [--update-golden]
            [--golden-dir DIR]
    resilience
            delay-injection resilience studies: the idle-wave analysis
            (propagation speed, decay distance, damping, per-component
            absorption) and the link-kill graceful-degradation sweep
            under work-stealing thread migration; both are gated
            against golden rows in conformance/golden/ exactly like the
            paper figures
            --study wave|degradation (omit for both) [--csv]
            [--update-golden] [--golden-dir DIR]
    serve   long-running scenario service: JSON-lines requests in,
            streamed accepted/progress/result/done events out, backed by
            the canonical result cache and warm-start snapshots (repeated
            scenarios are served bit-identically without re-simulating)
            [--socket PATH | --tcp ADDR] (default: stdin/stdout)
            [--cache-cap N] [--warm-cap N] [--jobs J]
            (requests select interconnect and traffic per scenario via
            their `topology` and `traffic` keys, same specs as above)
    fuzz    differential-fuzz the optimized Fabric against the retained
            ReferenceFabric over a seed range; on divergence, shrinks to
            a minimal scenario and prints a ready-to-paste repro test
            --seeds N --start S --jobs J [--machine]
            (--machine runs full-machine lockstep instead: the
            active-node engine vs exhaustive reference stepping, checking
            stats, breakdowns, fault logs, and watchdog trips bit-exactly)
    help    print this message
";

/// Option keys each subcommand accepts (used to reject typos).
fn allowed_keys(command: &str) -> Option<&'static [&'static str]> {
    match command {
        "solve" => Some(&["nodes", "contexts", "distance", "grain", "ratio"]),
        "gain" => Some(&["nodes", "contexts", "sizes", "grain", "ratio"]),
        "scale" => Some(&["nodes", "contexts", "grain", "ratio"]),
        "sim" => Some(&[
            "mapping", "seed", "contexts", "warmup", "window", "csv", "topology", "traffic",
            "trace-in",
        ]),
        "report" => Some(&[
            "mapping", "seed", "contexts", "warmup", "window", "trace", "csv", "shards", "jobs",
            "topology", "traffic", "trace-in",
        ]),
        "suite" => Some(&[
            "contexts", "seed", "warmup", "window", "jobs", "shards", "csv", "topology", "traffic",
            "trace-in",
        ]),
        "conformance" => Some(&["figure", "jobs", "csv", "update-golden", "golden-dir"]),
        "resilience" => Some(&["study", "csv", "update-golden", "golden-dir"]),
        "serve" => Some(&["socket", "tcp", "cache-cap", "warm-cap", "jobs"]),
        "fuzz" => Some(&["seeds", "start", "jobs", "machine"]),
        _ => None,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let command = command.as_str();
    if matches!(command, "help" | "--help" | "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let Some(allowed) = allowed_keys(command) else {
        eprintln!("error: unknown command `{command}`; try `commloc help`");
        return ExitCode::FAILURE;
    };
    let options = match parse_options(&args[1..], command, allowed) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command {
        "solve" => cmd_solve(&options),
        "gain" => cmd_gain(&options),
        "scale" => cmd_scale(&options),
        "sim" => cmd_sim(&options),
        "report" => cmd_report(&options),
        "suite" => cmd_suite(&options),
        "conformance" => cmd_conformance(&options),
        "resilience" => cmd_resilience(&options),
        "serve" => cmd_serve(&options),
        "fuzz" => cmd_fuzz(&options),
        _ => unreachable!("filtered by allowed_keys"),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Levenshtein distance, for near-miss suggestions on unknown options.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// Parses `--key value` pairs, rejecting keys the subcommand does not
/// accept (previously such keys were silently ignored, so a typo like
/// `--warmpu 9000` ran with the default warmup).
fn parse_options(
    args: &[String],
    command: &str,
    allowed: &[&str],
) -> Result<HashMap<String, String>, String> {
    let mut options = HashMap::new();
    let mut iter = args.iter();
    while let Some(key) = iter.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected `--key`, found `{key}`"));
        };
        if !allowed.contains(&name) {
            let suggestion = allowed
                .iter()
                .map(|k| (edit_distance(name, k), k))
                .min()
                .filter(|(d, _)| *d <= 3)
                .map(|(_, k)| format!(" (did you mean `--{k}`?)"))
                .unwrap_or_default();
            return Err(format!(
                "unknown option `--{name}` for `{command}`{suggestion}; valid options: {}",
                allowed
                    .iter()
                    .map(|k| format!("--{k}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        if matches!(name, "csv" | "update-golden" | "machine") {
            options.insert(name.to_owned(), "true".to_owned());
            continue;
        }
        let Some(value) = iter.next() else {
            return Err(format!("missing value for `--{name}`"));
        };
        options.insert(name.to_owned(), value.clone());
    }
    Ok(options)
}

fn get_f64(options: &HashMap<String, String>, key: &str, default: f64) -> Result<f64, String> {
    options.get(key).map_or(Ok(default), |v| {
        v.parse()
            .map_err(|_| format!("--{key}: `{v}` is not a number"))
    })
}

fn get_u64(options: &HashMap<String, String>, key: &str, default: u64) -> Result<u64, String> {
    options.get(key).map_or(Ok(default), |v| {
        v.parse()
            .map_err(|_| format!("--{key}: `{v}` is not an integer"))
    })
}

/// Worker-thread count: `--jobs` if given, else `COMMLOC_JOBS`, else the
/// machine's available parallelism. `--jobs 0` and non-numeric values
/// are rejected outright (previously zero was silently clamped to 1).
fn get_jobs(options: &HashMap<String, String>) -> Result<usize, String> {
    let jobs = match options.get("jobs") {
        None => suite_jobs()?,
        Some(v) => match v.parse::<usize>() {
            Ok(jobs) if jobs >= 1 => jobs,
            Ok(_) => {
                return Err(format!(
                    "--jobs: must be at least 1 (did you mean `--jobs {}`, the machine's \
                     available parallelism?)",
                    default_jobs()
                ))
            }
            Err(_) => {
                return Err(format!(
                    "--jobs: `{v}` is not an integer (omit --jobs to use the machine's \
                     available parallelism)"
                ))
            }
        },
    };
    // An explicit worker request is the process budget: sweep-level
    // fan-out and intra-simulation shard workers share it, so `--jobs N`
    // (or COMMLOC_JOBS=N) caps live worker threads at N combined.
    set_job_budget(jobs);
    Ok(jobs)
}

/// Shard count for the shard-parallel engine: `--shards` if given, else
/// 1 (the monolithic engine). Zero, non-numeric, and more-shards-than-
/// nodes values are rejected outright.
fn get_shards(options: &HashMap<String, String>, nodes: usize) -> Result<usize, String> {
    match options.get("shards") {
        None => Ok(1),
        Some(v) => match v.parse::<usize>() {
            Ok(shards) if (1..=nodes).contains(&shards) => Ok(shards),
            Ok(0) => Err(
                "--shards: must be at least 1 (did you mean `--shards 1`, the monolithic \
                 engine?)"
                    .into(),
            ),
            Ok(shards) => Err(format!(
                "--shards: {shards} exceeds the {nodes}-node fabric (did you mean \
                 `--shards {nodes}`, one node per shard?)"
            )),
            Err(_) => Err(format!(
                "--shards: `{v}` is not an integer (omit --shards for the monolithic engine)"
            )),
        },
    }
}

fn machine_from(options: &HashMap<String, String>) -> Result<MachineConfig, String> {
    // The model counts contexts in a `u32`; a processor needs at least one.
    let contexts = get_u64(options, "contexts", 1)?;
    let contexts = u32::try_from(contexts)
        .ok()
        .filter(|&p| p >= 1)
        .ok_or_else(|| format!("--contexts: {contexts} is not in 1..={}", u32::MAX))?;
    let mut machine = MachineConfig::alewife().with_contexts(contexts);
    if let Some(nodes) = options.get("nodes") {
        let nodes: f64 = nodes.parse().map_err(|_| "--nodes: not a number")?;
        machine = machine.with_nodes(nodes);
    }
    machine = machine.with_grain(get_f64(options, "grain", machine.grain())?);
    machine = machine.with_clock_ratio(get_f64(options, "ratio", machine.clock_ratio())?);
    Ok(machine)
}

fn cmd_solve(options: &HashMap<String, String>) -> Result<(), String> {
    let machine = machine_from(options)?;
    let distance = get_f64(
        options,
        "distance",
        machine.random_mapping_distance().map_err(err)?,
    )?;
    let model = machine.to_combined_model().map_err(err)?;
    let op = model.solve(distance).map_err(err)?;
    println!(
        "machine: N = {:.0}, p = {}, clock ratio = {}",
        machine.nodes(),
        machine.contexts(),
        machine.clock_ratio()
    );
    println!("operating point at d = {distance} hops (network cycles):");
    println!("  t_t  = {:>9.2}   (issue interval)", op.issue_interval);
    println!(
        "  T_t  = {:>9.2}   (transaction latency)",
        op.transaction_latency
    );
    println!("  t_m  = {:>9.2}   (message interval)", op.message_interval);
    println!("  T_m  = {:>9.2}   (message latency)", op.message_latency);
    println!("  T_h  = {:>9.2}   (per-hop latency)", op.per_hop_latency);
    println!(
        "  rho  = {:>9.3}   (channel utilization)",
        op.channel_utilization
    );
    println!("  mode = {:?}", op.mode);
    Ok(())
}

fn cmd_gain(options: &HashMap<String, String>) -> Result<(), String> {
    let machine = machine_from(options)?;
    let sizes: Vec<f64> = match options.get("sizes") {
        Some(list) => list
            .split(',')
            .map(|s| {
                s.parse()
                    .map_err(|_| format!("--sizes: `{s}` is not a number"))
            })
            .collect::<Result<_, _>>()?,
        None => vec![10.0, 100.0, 1000.0, 1e4, 1e5, 1e6],
    };
    println!("{:>12} {:>10} {:>10}", "N", "d_random", "gain");
    for n in sizes {
        let point = expected_gain(&machine.with_nodes(n)).map_err(err)?;
        println!(
            "{n:>12.0} {:>10.2} {:>10.2}",
            point.random_distance, point.gain
        );
    }
    Ok(())
}

fn cmd_scale(options: &HashMap<String, String>) -> Result<(), String> {
    let machine = machine_from(options)?;
    let sizes = log_spaced_sizes(10.0, 1e6, 2);
    println!(
        "Eq. 16 limit: {:.2} network cycles",
        limiting_per_hop_latency(&machine)
    );
    println!("{:>12} {:>10} {:>8} {:>8}", "N", "d_random", "T_h", "rho");
    for point in per_hop_latency_curve(&machine, &sizes).map_err(err)? {
        println!(
            "{:>12.0} {:>10.2} {:>8.2} {:>8.3}",
            point.nodes, point.distance, point.per_hop_latency, point.channel_utilization
        );
    }
    Ok(())
}

fn mapping_from(options: &HashMap<String, String>, topology: &Topology) -> Result<Mapping, String> {
    let seed = get_u64(options, "seed", 1992)?;
    let n = topology.compute_nodes();
    let name = options
        .get("mapping")
        .map(String::as_str)
        .unwrap_or("identity");
    match name {
        "identity" => Ok(Mapping::identity(n)),
        "random" => Ok(Mapping::random(n, seed)),
        "worst" => Ok(Mapping::maximize_app_distance(topology, seed, 4000)),
        other => {
            if let Some(k) = other.strip_prefix("swaps-") {
                let k: usize = k
                    .parse()
                    .map_err(|_| format!("--mapping: bad swap count in `{other}`"))?;
                Ok(Mapping::random_swaps(n, k, seed))
            } else {
                Err(format!(
                    "--mapping: unknown `{other}` (identity|random|worst|swaps-K)"
                ))
            }
        }
    }
}

/// Resolves `--traffic` / `--trace-in` into the workload the processors
/// run. The two are mutually exclusive: a trace *is* the traffic.
fn workload_from(options: &HashMap<String, String>) -> Result<Workload, String> {
    match (options.get("traffic"), options.get("trace-in")) {
        (Some(_), Some(_)) => {
            Err("--traffic and --trace-in are mutually exclusive (a trace is the traffic)".into())
        }
        (Some(spec), None) => Workload::parse(spec).map_err(|e| format!("--traffic: {e}")),
        (None, Some(path)) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("--trace-in {path}: {e}"))?;
            let trace = Trace::parse(&text).map_err(|e| format!("--trace-in {path}: {e}"))?;
            Ok(Workload::Trace(Arc::new(trace)))
        }
        (None, None) => Ok(Workload::Neighbor),
    }
}

fn sim_config(options: &HashMap<String, String>) -> Result<SimConfig, String> {
    let mut config = SimConfig {
        contexts: get_u64(options, "contexts", 1)? as usize,
        ..SimConfig::default()
    };
    if let Some(spec) = options.get("topology") {
        config.topology = Some(
            Topology::parse(spec, config.dims, config.radix)
                .map_err(|e| format!("--topology: {e}"))?,
        );
    }
    config.workload = workload_from(options)?;
    config.check().map_err(|e| format!("--{e}"))?;
    Ok(config)
}

fn cmd_sim(options: &HashMap<String, String>) -> Result<(), String> {
    let config = sim_config(options)?;
    let topology = config.resolved_topology();
    let mapping = mapping_from(options, &topology)?;
    let warmup = get_u64(options, "warmup", 20_000)?;
    let window = get_u64(options, "window", 60_000)?;
    let m = run_experiment(&config, &mapping, warmup, window).map_err(|e| e.to_string())?;
    if options.contains_key("csv") {
        println!("{MEASUREMENTS_CSV_HEADER}");
        println!("{}", m.to_csv_row());
    } else {
        println!(
            "measured over {} network cycles on {} nodes:",
            m.net_cycles, m.nodes
        );
        println!("  d    = {:>8.2} hops", m.distance);
        println!(
            "  t_t  = {:>8.2}   T_t = {:>8.2}",
            m.issue_interval, m.transaction_latency
        );
        println!(
            "  t_m  = {:>8.2}   T_m = {:>8.2}",
            m.message_interval, m.message_latency
        );
        println!(
            "  T_h  = {:>8.2}   rho = {:>8.3}",
            m.per_hop_latency, m.channel_utilization
        );
        println!(
            "  g    = {:>8.2}   B   = {:>8.2}",
            m.messages_per_transaction, m.avg_message_size
        );
    }
    Ok(())
}

/// Ring capacity used by `report --trace`: generous enough to retain the
/// tail of a measurement window without unbounded memory.
const TRACE_CAPACITY: usize = 65_536;

fn cmd_report(options: &HashMap<String, String>) -> Result<(), String> {
    let mut config = sim_config(options)?;
    let trace_path = options.get("trace").cloned();
    if trace_path.is_some() {
        config.fabric.trace_capacity = TRACE_CAPACITY;
    }
    let topology = config.resolved_topology();
    let shards = get_shards(options, topology.nodes())?;
    if options.contains_key("jobs") && !options.contains_key("shards") {
        return Err(
            "--jobs on `report` sets the shard-parallel engine's worker threads, but no \
             --shards was given (did you mean to add `--shards N`, or `--jobs` on `suite`?)"
                .into(),
        );
    }
    let jobs = if options.contains_key("jobs") {
        let jobs = get_jobs(options)?;
        if jobs > shards {
            return Err(format!(
                "--jobs: {jobs} workers cannot outnumber the {shards} shard(s) (did you \
                 mean `--jobs {shards}`?)"
            ));
        }
        jobs
    } else {
        shards
    };
    if shards > 1 && trace_path.is_some() {
        return Err(
            "--trace requires the monolithic engine (did you mean `--shards 1`, or to drop \
             --trace?)"
                .into(),
        );
    }
    let mapping = mapping_from(options, &topology)?;
    let warmup = get_u64(options, "warmup", 20_000)?;
    let window = get_u64(options, "window", 60_000)?;
    let c = MachineConfig::alewife().critical_path_messages();
    let mut machine = Machine::with_shards(&config, &mapping, shards);
    machine.set_jobs(jobs);
    machine
        .run_network_cycles(warmup)
        .map_err(|e| e.to_string())?;
    machine.reset_measurements();
    machine
        .run_network_cycles(window)
        .map_err(|e| e.to_string())?;
    let m = machine.measure();
    let b = machine.breakdown(c);
    let lb = machine.latency_breakdown();

    // The model's prediction at the measured distance and context count,
    // on the simulated interconnect's profile.
    let profile = model_profile(&topology).map_err(err)?;
    let machine_config = MachineConfig::alewife()
        .with_contexts(config.contexts as u32)
        .with_topology_profile(profile);
    let model = machine_config.to_combined_model().map_err(err)?;
    let op = model.solve(m.distance).map_err(err)?;
    let mc = MessageComponents::from_operating_point(&model, &op);

    if options.contains_key("csv") {
        println!("{BREAKDOWN_CSV_HEADER}");
        println!("{}", b.to_csv_row());
    } else {
        println!(
            "latency breakdown over {} network cycles ({} deliveries, d = {:.2} hops):",
            m.net_cycles, b.deliveries, m.distance
        );
        println!(
            "{:<16} {:>10} {:>10} {:>10}",
            "component", "measured", "model", "error"
        );
        for ((label, measured), (_, predicted)) in
            b.message_components().into_iter().zip(mc.components())
        {
            println!(
                "{label:<16} {measured:>10.2} {predicted:>10.2} {:>+10.2}",
                predicted - measured
            );
        }
        println!(
            "{:<16} {:>10.2} {:>10.2} {:>+10.2}",
            "T_m (total)",
            b.message_latency,
            mc.total(),
            mc.total() - b.message_latency
        );
        println!();
        println!("transaction decomposition (T_t = c*T_m + T_f, c = {c:.1}):");
        println!(
            "  T_t   = {:>9.2}  measured (model {:.2})",
            b.transaction_latency, op.transaction_latency
        );
        println!("  c*T_m = {:>9.2}  network path", b.message_path);
        println!("  T_f   = {:>9.2}  fixed overhead", b.fixed_overhead);
        // Percentiles are undefined on a window with no deliveries;
        // render that honestly rather than printing a fabricated 0.
        let pct = |q: Option<u64>| q.map_or_else(|| "n/a".to_owned(), |v| v.to_string());
        println!();
        println!(
            "message-latency percentiles (cycles): p50 {}  p90 {}  p99 {}",
            pct(lb.latency.p50()),
            pct(lb.latency.p90()),
            pct(lb.latency.p99()),
        );
    }

    // With an explicit interconnect, pair the measurement with the
    // model: identity vs random placement, measured transaction rates
    // against the analytical expected gain on this topology's profile.
    if options.contains_key("topology") && !options.contains_key("csv") {
        let seed = get_u64(options, "seed", 1992)?;
        let compute = topology.compute_nodes();
        let ident = run_experiment(&config, &Mapping::identity(compute), warmup, window)
            .map_err(|e| e.to_string())?;
        let random = run_experiment(&config, &Mapping::random(compute, seed), warmup, window)
            .map_err(|e| e.to_string())?;
        let predicted = expected_gain(&machine_config).map_err(err)?;
        println!();
        println!(
            "locality gain on {} ({} compute nodes, C = {:.2} channels/node):",
            topology.canonical(),
            compute,
            profile.channels_per_node
        );
        println!(
            "{:<12} {:>10} {:>12}",
            "placement", "d (hops)", "r_t (1/cyc)"
        );
        println!(
            "{:<12} {:>10.2} {:>12.5}",
            "identity", ident.distance, ident.transaction_rate
        );
        println!(
            "{:<12} {:>10.2} {:>12.5}",
            "random", random.distance, random.transaction_rate
        );
        let measured_gain = ident.transaction_rate / random.transaction_rate;
        println!(
            "measured gain {measured_gain:>6.2}   model gain {:>6.2}   (model d_random {:.2}, \
             n_eff {:.1})",
            predicted.gain,
            predicted.random_distance,
            profile.effective_dimension()
        );
    }

    if let Some(path) = trace_path {
        let file = std::fs::File::create(&path).map_err(|e| format!("--trace {path}: {e}"))?;
        let mut out = std::io::BufWriter::new(file);
        let mut lines = 0u64;
        if let Some(trace) = machine.trace() {
            for event in trace.iter() {
                writeln!(out, "{}", event.to_json()).map_err(|e| e.to_string())?;
                lines += 1;
            }
        }
        if let Some(spans) = machine.spans() {
            for event in spans.iter() {
                writeln!(out, "{}", event.to_json()).map_err(|e| e.to_string())?;
                lines += 1;
            }
        }
        out.flush().map_err(|e| e.to_string())?;
        eprintln!("wrote {lines} trace events to {path}");
    }
    Ok(())
}

fn cmd_suite(options: &HashMap<String, String>) -> Result<(), String> {
    let config = sim_config(options)?;
    let topology = config.resolved_topology();
    let seed = get_u64(options, "seed", 1992)?;
    let warmup = get_u64(options, "warmup", 15_000)?;
    let window = get_u64(options, "window", 45_000)?;
    let jobs = get_jobs(options)?;
    let shards = get_shards(options, topology.nodes())?;
    let csv = options.contains_key("csv");
    if csv {
        println!("mapping,{MEASUREMENTS_CSV_HEADER}");
    } else {
        println!(
            "{:<16} {:>6} {:>9} {:>9} {:>8} {:>7}",
            "mapping", "d", "r_t", "T_m", "T_h", "rho"
        );
    }
    let suite = topology_mapping_suite(&topology, seed);
    let points: Vec<(String, Measurements)> = if shards > 1 {
        // Sweep of sharded simulations: the sweep fan-out and each
        // machine's shard workers draw from the same job budget, so live
        // threads never exceed `jobs` combined.
        parallel_map(&suite, jobs, |named| {
            run_sharded_experiment(&config, &named.mapping, shards, jobs, warmup, window)
                .map(|measured| (named.name.clone(), measured))
        })
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?
    } else {
        // Monolithic sweeps route through the process-wide scenario
        // cache: repeated suite invocations in one process (and the
        // conformance gates) share results and warm-start snapshots.
        run_cached_sweep(&config, &suite, warmup, window, jobs)
            .map_err(|e| e.to_string())?
            .into_iter()
            .map(|r| (r.name, r.measured))
            .collect()
    };
    for (name, m) in points {
        if csv {
            println!("{name},{}", m.to_csv_row());
        } else {
            println!(
                "{:<16} {:>6.2} {:>9.5} {:>9.1} {:>8.2} {:>7.3}",
                name,
                m.distance,
                m.transaction_rate,
                m.message_latency,
                m.per_hop_latency,
                m.channel_utilization
            );
        }
    }
    Ok(())
}

fn cmd_serve(options: &HashMap<String, String>) -> Result<(), String> {
    let defaults = ServeOptions::default();
    let cache_capacity = get_u64(options, "cache-cap", defaults.cache_capacity as u64)? as usize;
    let warm_capacity = get_u64(options, "warm-cap", defaults.warm_capacity as u64)? as usize;
    if cache_capacity == 0 || warm_capacity == 0 {
        return Err("--cache-cap/--warm-cap: must be at least 1".into());
    }
    let serve_options = ServeOptions {
        socket: options.get("socket").cloned(),
        tcp: options.get("tcp").cloned(),
        cache_capacity,
        warm_capacity,
        jobs: get_jobs(options)?,
    };
    match (&serve_options.socket, &serve_options.tcp) {
        (Some(path), None) => eprintln!("serving on unix socket {path}"),
        (None, Some(addr)) => eprintln!("serving on tcp {addr}"),
        (None, None) => eprintln!("serving on stdin/stdout (one JSON request per line)"),
        (Some(_), Some(_)) => {}
    }
    commloc_sim::serve::serve(&serve_options)
}

fn cmd_conformance(options: &HashMap<String, String>) -> Result<(), String> {
    let jobs = get_jobs(options)?;
    let update = options.contains_key("update-golden");
    let csv = options.contains_key("csv");
    let dir = options
        .get("golden-dir")
        .map(PathBuf::from)
        .unwrap_or_else(default_golden_dir);
    let figures: Vec<String> = match options.get("figure") {
        Some(name) => {
            if !FIGURES.contains(&name.as_str()) {
                return Err(format!(
                    "--figure: unknown `{name}` (expected one of {})",
                    FIGURES.join(", ")
                ));
            }
            vec![name.clone()]
        }
        None => FIGURES.iter().map(|s| (*s).to_owned()).collect(),
    };

    let mut session = ConformanceRun::new(jobs);
    let mut tables = Vec::new();
    for name in &figures {
        tables.push(session.figure(name)?);
    }

    if csv {
        println!("figure,label,metric,value,golden,rel_err");
    }
    let violations = gate_tables(&tables, &dir, update, csv)?;
    // The raw reduced-sweep measurements behind Figures 3-5, in the
    // standard measurements CSV schema.
    if csv {
        println!();
        println!("contexts,mapping,{MEASUREMENTS_CSV_HEADER}");
        for (contexts, runs) in session.sweeps() {
            for run in runs {
                println!("{},{},{}", contexts, run.name, run.measured.to_csv_row());
            }
        }
    }
    finish_gate("conformance", &tables, &violations, update, csv, &dir)
}

/// Self-checks, prints, and golden-gates a batch of figure tables:
/// blesses them into `dir` under `--update-golden`, compares against the
/// checked-in goldens otherwise. Self-checks run in both modes, so a
/// broken model cannot be blessed into the goldens. Returns the
/// accumulated violations (I/O problems are hard errors).
fn gate_tables(
    tables: &[GoldenTable],
    dir: &Path,
    update: bool,
    csv: bool,
) -> Result<Vec<Violation>, String> {
    let mut violations: Vec<Violation> = tables.iter().flat_map(self_check).collect();
    if update {
        for table in tables {
            let path = store_golden(dir, table)?;
            eprintln!("wrote {}", path.display());
        }
    }
    for table in tables {
        let golden = if update {
            None
        } else {
            let golden = load_golden(dir, &table.figure)?;
            violations.extend(table.compare_against(&golden));
            Some(golden)
        };
        if csv {
            for row in &table.rows {
                for (metric, value) in &row.values {
                    let golden_value = golden.as_ref().and_then(|g| {
                        g.rows
                            .iter()
                            .find(|r| r.label == row.label)
                            .and_then(|r| r.value(metric))
                    });
                    match golden_value {
                        Some(gv) => println!(
                            "{},{},{},{},{},{:e}",
                            table.figure,
                            row.label,
                            metric,
                            value,
                            gv,
                            rel_err(*value, gv)
                        ),
                        None => println!("{},{},{},{},,", table.figure, row.label, metric, value),
                    }
                }
            }
        } else {
            let gate = if update { "blessed" } else { "checked" };
            println!(
                "{} [{}] — {} rows {gate} at {} = {:e}",
                table.figure,
                table.tolerance_name,
                table.rows.len(),
                table.tolerance_name,
                table.tolerance
            );
            for row in &table.rows {
                let values: Vec<String> = row
                    .values
                    .iter()
                    .map(|(metric, value)| format!("{metric}={value:.6}"))
                    .collect();
                println!("  {:<16} {}", row.label, values.join("  "));
            }
        }
    }
    Ok(violations)
}

/// Shared pass/fail epilogue of the golden-gated subcommands.
fn finish_gate(
    gate: &str,
    tables: &[GoldenTable],
    violations: &[Violation],
    update: bool,
    csv: bool,
    dir: &Path,
) -> Result<(), String> {
    if violations.is_empty() {
        if !csv {
            println!(
                "{gate}: {} figure(s) {} {}",
                tables.len(),
                if update {
                    "blessed into"
                } else {
                    "pass against"
                },
                dir.display()
            );
        }
        Ok(())
    } else {
        for violation in violations {
            eprintln!("violation: {violation}");
        }
        Err(format!("{} {gate} violation(s)", violations.len()))
    }
}

fn cmd_resilience(options: &HashMap<String, String>) -> Result<(), String> {
    let update = options.contains_key("update-golden");
    let csv = options.contains_key("csv");
    let dir = options
        .get("golden-dir")
        .map(PathBuf::from)
        .unwrap_or_else(default_golden_dir);
    let (run_wave, run_degradation) = match options.get("study").map(String::as_str) {
        None => (true, true),
        Some("wave") => (true, false),
        Some("degradation") => (false, true),
        Some(other) => {
            return Err(format!(
                "--study: unknown `{other}` (wave|degradation; omit for both)"
            ))
        }
    };

    if csv {
        println!("figure,label,metric,value,golden,rel_err");
    }
    let mut tables = Vec::new();
    if run_wave {
        let (waves, table) = resilience_wave_detail()?;
        if csv {
            // Analyzer detail beyond the golden rows: the spatial
            // profile and the per-component absorption attribution
            // (no golden columns — these back the table, they are not
            // gated individually).
            for (label, wave) in &waves {
                if let Some(speed) = wave.propagation_speed() {
                    println!("resilience-wave-detail,{label},cycles_per_hop,{speed},,");
                }
                for (d, peak) in wave.curve.ring_peaks().iter().enumerate() {
                    println!("resilience-wave-detail,{label},ring{d}_peak,{peak},,");
                }
                for (component, value) in &wave.absorption {
                    println!("resilience-wave-detail,{label},absorbed_{component},{value},,");
                }
            }
        } else {
            println!("idle-wave study: transient router stall, lockstep-differenced");
            for (label, wave) in &waves {
                let speed = wave
                    .propagation_speed()
                    .map_or("n/a".to_owned(), |s| format!("{s:.0} cycles/hop"));
                println!(
                    "  {label:<12} speed {speed}, decay distance {} hops, damping {:.2}, \
                     deficit {} completions ({} absorbed in the fabric)",
                    wave.decay_distance(0.5),
                    wave.damping(),
                    wave.total_deficit(),
                    wave.absorbed_total()
                );
                let peaks: Vec<String> = wave
                    .curve
                    .ring_peaks()
                    .iter()
                    .map(|p| format!("{p:.2}"))
                    .collect();
                println!("    ring peaks/node: {}", peaks.join(" "));
                let absorption: Vec<String> = wave
                    .absorption
                    .iter()
                    .map(|(component, value)| format!("{component}={value:+}"))
                    .collect();
                println!("    absorption: {}", absorption.join(" "));
            }
        }
        tables.push(table);
    }
    if run_degradation {
        let (points, table) = resilience_degradation_detail()?;
        if !csv {
            println!("degradation study: cumulative link kills under work-stealing migration");
            for p in &points {
                println!(
                    "  {} link(s) killed: {} completions, {} migrations, {}/64 nodes \
                     surviving, {:.1} completions/survivor",
                    p.killed_links, p.completions, p.migrations, p.survivors, p.per_survivor
                );
            }
        }
        tables.push(table);
    }

    let violations = gate_tables(&tables, &dir, update, csv)?;
    finish_gate("resilience", &tables, &violations, update, csv, &dir)
}

fn cmd_fuzz(options: &HashMap<String, String>) -> Result<(), String> {
    let seeds = get_u64(options, "seeds", 100)?;
    if seeds == 0 {
        return Err("--seeds: must be at least 1".into());
    }
    let start = get_u64(options, "start", 0)?;
    let jobs = get_jobs(options)?;
    if options.contains_key("machine") {
        return run_machine_fuzz(seeds, start, jobs);
    }
    let list: Vec<u64> = (start..start.saturating_add(seeds)).collect();
    let began = std::time::Instant::now();
    let results = parallel_map(&list, jobs, |&seed| (seed, fuzz::run_seed(seed)));
    let mut totals = fuzz::FuzzReport::default();
    for (seed, result) in results {
        match result {
            Ok(report) => {
                totals.injected += report.injected;
                totals.delivered += report.delivered;
                totals.dropped += report.dropped;
                totals.wedged += report.wedged;
                totals.cycles += report.cycles;
            }
            Err(divergence) => {
                eprintln!("seed {seed} diverged: {divergence}");
                if let Some(outcome) = fuzz::shrink(&FuzzScenario::from_seed(seed), None) {
                    eprintln!(
                        "minimal failing scenario after {} shrink attempts ({}):",
                        outcome.attempts, outcome.divergence
                    );
                    eprintln!("{}", outcome.repro_test());
                }
                return Err(format!("differential divergence at seed {seed}"));
            }
        }
    }
    println!(
        "fuzz: {} seeds [{start}..{}) clean in {:.1}s — {} messages injected, {} delivered, \
         {} dropped, {} wedged, {} engine cycles",
        seeds,
        start.saturating_add(seeds),
        began.elapsed().as_secs_f64(),
        totals.injected,
        totals.delivered,
        totals.dropped,
        totals.wedged,
        totals.cycles
    );
    Ok(())
}

/// `commloc fuzz --machine`: full-machine lockstep over a seed range —
/// the active-node engine against exhaustive reference stepping (and a
/// sharded machine on sharded draws), with bit-exact checks on
/// completions, measurements, latency breakdowns, fault logs,
/// migrations, and watchdog trips. Failing seeds shrink to a minimal
/// scenario and print a ready-to-paste repro test.
fn run_machine_fuzz(seeds: u64, start: u64, jobs: usize) -> Result<(), String> {
    use commloc_sim::fuzz as machine_fuzz;
    let list: Vec<u64> = (start..start.saturating_add(seeds)).collect();
    let began = std::time::Instant::now();
    let results = parallel_map(&list, jobs, |&seed| (seed, machine_fuzz::run_seed(seed)));
    let mut completions = 0u64;
    let mut net_cycles = 0u64;
    let mut stalls = 0u64;
    let mut migrations = 0;
    for (seed, result) in results {
        match result {
            Ok(report) => {
                completions += report.completions;
                net_cycles += report.net_cycles;
                stalls += u64::from(report.stalled);
                migrations += report.migrations;
            }
            Err(divergence) => {
                eprintln!("seed {seed} diverged: {divergence}");
                let scenario = machine_fuzz::MachineScenario::from_seed(seed);
                if let Some(outcome) = machine_fuzz::shrink(&scenario, None) {
                    eprintln!(
                        "minimal failing scenario after {} shrink attempts ({}):",
                        outcome.attempts, outcome.divergence
                    );
                    eprintln!("{}", outcome.repro_test());
                }
                return Err(format!("machine-lockstep divergence at seed {seed}"));
            }
        }
    }
    println!(
        "fuzz --machine: {} seeds [{start}..{}) lockstep-clean in {:.1}s — {} transactions \
         completed, {} watchdog stalls and {} migrations matched bit-exactly, {} net cycles per \
         engine",
        seeds,
        start.saturating_add(seeds),
        began.elapsed().as_secs_f64(),
        completions,
        stalls,
        migrations,
        net_cycles
    );
    Ok(())
}

fn err(e: commloc_model::ModelError) -> String {
    e.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use commloc_model::TopologyProfile;

    fn parse(pairs: &[&str], command: &str) -> Result<HashMap<String, String>, String> {
        parse_options(
            &pairs.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            command,
            allowed_keys(command).unwrap(),
        )
    }

    /// Builds an option map directly (no key validation — that is
    /// exercised separately via [`parse`]), for the getter/builder tests
    /// that mix keys from different subcommands.
    fn opts(pairs: &[&str]) -> HashMap<String, String> {
        let mut o = HashMap::new();
        let mut it = pairs.iter();
        while let Some(key) = it.next() {
            let key = key.trim_start_matches("--").to_string();
            let value = it
                .next()
                .map_or_else(|| "true".to_string(), |v| v.to_string());
            o.insert(key, value);
        }
        o
    }

    #[test]
    fn parse_key_value_pairs() {
        let o = parse(&["--nodes", "1000", "--contexts", "2"], "solve").unwrap();
        assert_eq!(o.get("nodes").unwrap(), "1000");
        assert_eq!(o.get("contexts").unwrap(), "2");
        let o = parse(&["--contexts", "2", "--csv"], "suite").unwrap();
        assert_eq!(o.get("csv").unwrap(), "true");
    }

    #[test]
    fn parse_rejects_bare_words() {
        assert!(parse(&["oops"], "solve").is_err());
    }

    #[test]
    fn parse_rejects_missing_value() {
        assert!(parse(&["--nodes"], "solve").is_err());
    }

    #[test]
    fn unknown_key_is_rejected_with_a_suggestion() {
        // Previously `--warmpu 9000` was silently accepted (and ignored);
        // now it must error and point at the intended option.
        let err = parse(&["--warmpu", "9000"], "sim").unwrap_err();
        assert!(err.contains("--warmpu"), "{err}");
        assert!(err.contains("did you mean `--warmup`"), "{err}");
        // A key valid for another subcommand is still invalid here.
        let err = parse(&["--jobs", "4"], "sim").unwrap_err();
        assert!(err.contains("unknown option `--jobs` for `sim`"), "{err}");
        assert!(err.contains("valid options:"), "{err}");
        // Far-off garbage gets the option list but no bogus suggestion.
        let err = parse(&["--zzzzzzzzzzz", "1"], "solve").unwrap_err();
        assert!(!err.contains("did you mean"), "{err}");
    }

    #[test]
    fn every_subcommand_accepts_its_documented_keys() {
        assert!(parse(&["--distance", "4.06"], "solve").is_ok());
        assert!(parse(&["--sizes", "10,100"], "gain").is_ok());
        assert!(parse(&["--ratio", "0.5"], "scale").is_ok());
        assert!(parse(&["--mapping", "random", "--csv"], "sim").is_ok());
        assert!(parse(&["--trace", "out.jsonl"], "report").is_ok());
        assert!(parse(&["--shards", "4", "--jobs", "2"], "report").is_ok());
        assert!(parse(&["--jobs", "2", "--csv"], "suite").is_ok());
        assert!(parse(&["--shards", "8", "--jobs", "2"], "suite").is_ok());
        assert!(parse(
            &["--figure", "fig6", "--update-golden", "--jobs", "2"],
            "conformance"
        )
        .is_ok());
        assert!(parse(
            &[
                "--study",
                "wave",
                "--csv",
                "--update-golden",
                "--golden-dir",
                "/tmp/g"
            ],
            "resilience"
        )
        .is_ok());
        assert!(parse(&["--topology", "mesh", "--traffic", "hotspot:2"], "sim").is_ok());
        assert!(parse(
            &["--topology", "dragonfly:4,2", "--trace-in", "t.jsonl"],
            "report"
        )
        .is_ok());
        assert!(parse(
            &["--topology", "fattree", "--traffic", "transpose"],
            "suite"
        )
        .is_ok());
        assert!(parse(&["--seeds", "500", "--start", "0", "--jobs", "4"], "fuzz").is_ok());
        assert!(parse(&["--machine", "--seeds", "200"], "fuzz").is_ok());
        assert!(allowed_keys("nonsense").is_none());
    }

    #[test]
    fn machine_is_a_value_less_flag() {
        let o = parse(&["--machine", "--seeds", "64"], "fuzz").unwrap();
        assert_eq!(o.get("machine").unwrap(), "true");
        assert_eq!(o.get("seeds").unwrap(), "64");
    }

    #[test]
    fn jobs_validation_rejects_zero_and_words() {
        // `--jobs 0` used to be silently clamped to 1; now it must error
        // with a pointer at the sane alternative.
        let err = get_jobs(&opts(&["--jobs", "0"])).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        assert!(err.contains("did you mean `--jobs"), "{err}");
        let err = get_jobs(&opts(&["--jobs", "many"])).unwrap_err();
        assert!(err.contains("`many` is not an integer"), "{err}");
        let err = get_jobs(&opts(&["--jobs", "-2"])).unwrap_err();
        assert!(err.contains("not an integer"), "{err}");
        assert!(get_jobs(&opts(&["--jobs", "4"])).unwrap() == 4);
    }

    #[test]
    fn shards_validation_rejects_zero_overflow_and_words() {
        let err = get_shards(&opts(&["--shards", "0"]), 64).unwrap_err();
        assert!(err.contains("did you mean `--shards 1`"), "{err}");
        let err = get_shards(&opts(&["--shards", "100"]), 64).unwrap_err();
        assert!(err.contains("did you mean `--shards 64`"), "{err}");
        let err = get_shards(&opts(&["--shards", "few"]), 64).unwrap_err();
        assert!(err.contains("not an integer"), "{err}");
        assert_eq!(get_shards(&opts(&[]), 64).unwrap(), 1);
        assert_eq!(get_shards(&opts(&["--shards", "8"]), 64).unwrap(), 8);
    }

    #[test]
    fn report_rejects_conflicting_jobs_and_shards() {
        // `--jobs` without `--shards` has nothing to control on report.
        let err = cmd_report(&opts(&["--jobs", "4"])).unwrap_err();
        assert!(err.contains("did you mean to add `--shards N`"), "{err}");
        // More workers than shards cannot run.
        let err = cmd_report(&opts(&["--shards", "2", "--jobs", "4"])).unwrap_err();
        assert!(err.contains("did you mean `--jobs 2`"), "{err}");
        // Flit tracing needs the monolithic engine.
        let err = cmd_report(&opts(&["--shards", "2", "--trace", "/tmp/t.jsonl"])).unwrap_err();
        assert!(err.contains("monolithic"), "{err}");
    }

    #[test]
    fn update_golden_is_a_value_less_flag() {
        let o = parse(&["--update-golden", "--figure", "fig3"], "conformance").unwrap();
        assert_eq!(o.get("update-golden").unwrap(), "true");
        assert_eq!(o.get("figure").unwrap(), "fig3");
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("warmup", "warmup"), 0);
        assert_eq!(edit_distance("warmpu", "warmup"), 2);
        assert_eq!(edit_distance("", "abc"), 3);
    }

    #[test]
    fn numeric_getters_apply_defaults_and_validate() {
        let o = opts(&["--distance", "4.5"]);
        assert_eq!(get_f64(&o, "distance", 1.0).unwrap(), 4.5);
        assert_eq!(get_f64(&o, "grain", 10.0).unwrap(), 10.0);
        let bad = opts(&["--warmup", "soon"]);
        assert!(get_u64(&bad, "warmup", 0).is_err());
    }

    #[test]
    fn machine_builder_honours_options() {
        let o = opts(&["--nodes", "256", "--contexts", "4", "--ratio", "0.5"]);
        let m = machine_from(&o).unwrap();
        assert!((m.nodes() - 256.0).abs() < 1e-6);
        assert_eq!(m.contexts(), 4);
        assert_eq!(m.clock_ratio(), 0.5);
    }

    #[test]
    fn mapping_selector_variants() {
        let topology = Topology::cube(2, 8);
        let o = opts(&["--mapping", "swaps-12", "--seed", "5"]);
        let m = mapping_from(&o, &topology).unwrap();
        assert_eq!(m.threads(), 64);
        let o = opts(&["--mapping", "nonsense"]);
        assert!(mapping_from(&o, &topology).is_err());
        let o = opts(&[]);
        assert_eq!(mapping_from(&o, &topology).unwrap(), Mapping::identity(64));
        // `worst` works on every family (app-distance hill climb off the
        // torus), and sizes itself to the compute-node count.
        let fattree = Topology::fat_tree(2, 2);
        let o = opts(&["--mapping", "worst", "--seed", "7"]);
        let m = mapping_from(&o, &fattree).unwrap();
        assert_eq!(m.threads(), fattree.compute_nodes());
    }

    #[test]
    fn zero_contexts_is_rejected_before_any_run() {
        let o = opts(&["--contexts", "0", "--warmup", "10", "--window", "10"]);
        for cmd in [cmd_sim, cmd_report, cmd_suite] {
            let e = cmd(&o).unwrap_err();
            assert!(e.starts_with("--contexts:"), "{e}");
        }
        // More threads than the node cap once aborted allocating the
        // home map.
        let o = opts(&[
            "--contexts",
            "4294967295",
            "--warmup",
            "10",
            "--window",
            "10",
        ]);
        for cmd in [cmd_sim, cmd_report, cmd_suite] {
            let e = cmd(&o).unwrap_err();
            assert!(e.starts_with("--contexts:") && e.contains("cap"), "{e}");
        }
        // The model commands once truncated 2^32 + 1 to one context.
        for contexts in ["0", "4294967297"] {
            let o = opts(&["--contexts", contexts, "--sizes", "100"]);
            for cmd in [cmd_solve, cmd_gain, cmd_scale] {
                let e = cmd(&o).unwrap_err();
                assert!(e.starts_with("--contexts:"), "{e}");
            }
        }
    }

    #[test]
    fn sim_config_resolves_topology_and_traffic() {
        // Default: cube from dims/radix, neighbour workload.
        let config = sim_config(&opts(&[])).unwrap();
        assert!(config.topology.is_none());
        assert_eq!(config.workload, Workload::Neighbor);
        // Explicit interconnect and traffic.
        let config = sim_config(&opts(&["--topology", "mesh", "--traffic", "hotspot:3"])).unwrap();
        assert_eq!(config.resolved_topology().canonical(), "mesh:8x8");
        assert_eq!(config.workload, Workload::Hotspot { targets: 3 });
        let config = sim_config(&opts(&["--topology", "fattree:2,2"])).unwrap();
        assert_eq!(config.resolved_topology().family(), "fattree");
        // Bad specs surface the offending flag.
        let e = sim_config(&opts(&["--topology", "hypercube"])).unwrap_err();
        assert!(e.starts_with("--topology:"), "{e}");
        let e = sim_config(&opts(&["--topology", "dragonfly:2000,2000"])).unwrap_err();
        assert!(e.starts_with("--topology:") && e.contains("cap"), "{e}");
        let e = sim_config(&opts(&["--traffic", "storm"])).unwrap_err();
        assert!(e.starts_with("--traffic:"), "{e}");
    }

    #[test]
    fn trace_in_replays_a_file_and_excludes_traffic() {
        let e = workload_from(&opts(&[
            "--traffic",
            "transpose",
            "--trace-in",
            "/tmp/t.jsonl",
        ]))
        .unwrap_err();
        assert!(e.contains("mutually exclusive"), "{e}");
        let e = workload_from(&opts(&["--trace-in", "/nonexistent/t.jsonl"])).unwrap_err();
        assert!(e.starts_with("--trace-in"), "{e}");
        let path = std::env::temp_dir().join("commloc-cli-trace-test.jsonl");
        std::fs::write(&path, "{\"thread\": 0, \"op\": \"read\", \"peer\": 1}\n").unwrap();
        let w = workload_from(&opts(&["--trace-in", path.to_str().unwrap()])).unwrap();
        assert!(matches!(w, Workload::Trace(_)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torus_model_profile_matches_the_analytic_path() {
        // The cube report path must stay bit-identical to the historic
        // dims/radix model: the profile it installs is Eq. 16/17's own.
        let profile = model_profile(&Topology::cube(2, 8)).unwrap();
        let analytic = TopologyProfile::torus(2, 8.0).unwrap();
        assert_eq!(profile, analytic);
        // Non-cube fabrics report their exact census.
        let mesh = model_profile(&Topology::mesh(4, 4)).unwrap();
        assert_eq!(mesh.compute_nodes, 16.0);
        assert!(mesh.channels_per_node < 4.0, "mesh edges lack wraparound");
    }
}
