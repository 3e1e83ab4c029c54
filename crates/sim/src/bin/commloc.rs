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
use commloc_sim::conformance::figures::{
    default_golden_dir, load_golden, resilience_degradation_detail, resilience_wave_detail,
    self_check, store_golden, ConformanceRun, FIGURES,
};
use commloc_sim::conformance::{rel_err, suite_jobs, GoldenTable, Violation};
use commloc_sim::{
    model_profile, parallel_map, set_job_budget, Defaults, Field, Scenario, ServeOptions, Trace,
    Workload, BREAKDOWN_CSV_HEADER, MEASUREMENTS_CSV_HEADER, SCENARIO_KEYS,
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
    sim     run the cycle-level simulator on one mapping
            [scenario keys] [--csv] [--trace-in FILE]
    report  run one simulation and print the latency-component breakdown,
            measured vs model; with --topology also the locality-gain
            table for that interconnect
            [scenario keys] [--csv] [--trace FILE] [--trace-in FILE]
    suite   run the mappings --mapping/--mappings name, or the whole suite
            [scenario keys] [--csv] [--trace-in FILE]

    Scenario keys (serve requests take the same keys as JSON fields):
            --topology T --dims N --radix K --contexts P --clock_ratio R
            --switch_cycles S --work G --watchdog C --timeout_cycles T
            --max_retries R --traffic W --drop_rate X --corrupt_rate X
            --stall_rate X --stall_window C --fault_seed S --mapping M
            --mappings M1,M2 --seed S --warmup W --window C --shards K
            --jobs J
    T is cube | mesh (shaped by --dims/--radix; default the paper's 2-D
    radix-8 cube) | fattree[:ARITY,LEVELS] | dragonfly[:ROUTERS,GLOBALS].
    W is neighbor | hotspot[:K] | transpose; --trace-in replays a
    JSON-lines trace instead. M is a name of the topology's mapping
    suite, random (= random-1) or swaps-K. sim and report run one mapping
    (identity) over 20000 + 60000 cycles, and their --jobs steps the
    shards, so it needs --shards and may not pass it; suite runs over
    15000 + 45000 cycles, and its --jobs (default: the available
    parallelism) fans the mappings out and steps their shards from one
    budget. Shards and jobs never change a result.
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
            (a `run` request follows sim's shard and job rules, a
            `sweep` suite's; both draw workers from the daemon's --jobs)
    fuzz    differential-fuzz the optimized Fabric, at a drawn shard
            count, against the retained ReferenceFabric over a seed
            range; on divergence, shrinks to a minimal scenario and
            prints a ready-to-paste repro test
            --seeds N --start S --jobs J [--machine]
            (--machine runs full-machine lockstep instead: the
            active-node engine vs exhaustive reference stepping, checking
            stats, breakdowns, fault logs, and watchdog trips bit-exactly)
    help    print this message
";

/// Option keys each subcommand accepts (used to reject typos): its own,
/// plus every scenario key for the simulating subcommands.
fn allowed_keys(command: &str) -> Option<Vec<&'static str>> {
    let own: &[&str] = match command {
        "solve" => &["nodes", "contexts", "distance", "grain", "ratio"],
        "gain" => &["nodes", "contexts", "sizes", "grain", "ratio"],
        "scale" => &["nodes", "contexts", "grain", "ratio"],
        "sim" | "suite" => &["csv", "trace-in"],
        "report" => &["csv", "trace", "trace-in"],
        "conformance" => &["figure", "jobs", "csv", "update-golden", "golden-dir"],
        "resilience" => &["study", "csv", "update-golden", "golden-dir"],
        "serve" => &["socket", "tcp", "cache-cap", "warm-cap", "jobs"],
        "fuzz" => &["seeds", "start", "jobs", "machine"],
        _ => return None,
    };
    let scenario: &[&str] = match command {
        "sim" | "report" | "suite" => &SCENARIO_KEYS,
        _ => &[],
    };
    Some(scenario.iter().chain(own).copied().collect())
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
    let options = match parse_options(&args[1..], command, &allowed) {
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
        Some(v) => Field::Text(v).jobs().map_err(|e| format!("--{e}"))?,
    };
    // An explicit worker request is the process budget: sweep-level
    // fan-out and intra-simulation shard workers share it, so `--jobs N`
    // (or COMMLOC_JOBS=N) caps live worker threads at N combined.
    set_job_budget(jobs);
    Ok(jobs)
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

/// `sim` and `report`: one run, of `identity` unless a mapping is named.
const RUN: Defaults = Defaults {
    warmup: 20_000,
    window: 60_000,
    sweep_jobs: None,
};

/// The scenario of `sim`, `report` (`defaults` [`RUN`]) or `suite`: its
/// scenario keys through the one parser, then `--trace-in`. An explicit
/// `--jobs`, and a sweep's jobs, set the process job budget.
fn scenario_from(
    options: &HashMap<String, String>,
    defaults: Defaults,
) -> Result<Scenario, String> {
    let mut fields: Vec<(&str, Field)> = options
        .iter()
        .map(|(key, value)| (key.as_str(), Field::Text(value)))
        .collect();
    if defaults.sweep_jobs.is_none() && !options.keys().any(|k| k.starts_with("mapping")) {
        fields.push(("mapping", Field::Text("identity")));
    }
    let mut scenario = Scenario::parse(&fields, defaults).map_err(|e| format!("--{e}"))?;
    if let Some(workload) = workload_from(options)? {
        scenario.config.workload = workload;
    }
    if options.contains_key("jobs") || defaults.sweep_jobs.is_some() {
        set_job_budget(scenario.jobs);
    }
    Ok(scenario)
}

/// `--trace-in FILE`: the replayed trace, which takes the place of
/// `--traffic` (a trace *is* the traffic, so the two exclude each other).
fn workload_from(options: &HashMap<String, String>) -> Result<Option<Workload>, String> {
    let Some(path) = options.get("trace-in") else {
        return Ok(None);
    };
    if options.contains_key("traffic") {
        return Err(
            "--traffic and --trace-in are mutually exclusive (a trace is the traffic)".into(),
        );
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("--trace-in {path}: {e}"))?;
    let trace = Trace::parse(&text).map_err(|e| format!("--trace-in {path}: {e}"))?;
    Ok(Some(Workload::Trace(Arc::new(trace))))
}

/// Runs `scenario` on the mapping `name`.
fn run_named(scenario: &Scenario, name: &str) -> Result<commloc_sim::Machine, String> {
    let named = scenario.mapping(name).map_err(|e| format!("--{e}"))?;
    scenario.run(&named.mapping).map_err(|e| e.to_string())
}

fn cmd_sim(options: &HashMap<String, String>) -> Result<(), String> {
    let scenario = scenario_from(options, RUN)?;
    let m = run_named(&scenario, &scenario.mappings[0])?.measure();
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
    let mut scenario = scenario_from(options, RUN)?;
    let trace_path = options.get("trace").cloned();
    if trace_path.is_some() {
        scenario.config.fabric.trace_capacity = TRACE_CAPACITY;
    }
    let config = &scenario.config;
    let topology = config.resolved_topology();
    let c = MachineConfig::alewife().critical_path_messages();
    let machine = run_named(&scenario, &scenario.mappings[0])?;
    let m = machine.measure();
    let b = machine.breakdown(c);
    let lb = machine.latency_breakdown();

    // The model's prediction at the measured distance and context count,
    // on the simulated interconnect's profile.
    let profile = model_profile(&topology).map_err(err)?;
    let machine_config = MachineConfig::alewife()
        .with_contexts(config.contexts as u32)
        .with_clock_ratio(f64::from(config.clock_ratio))
        .with_grain(f64::from(config.work))
        .with_context_switch(f64::from(config.switch_cycles))
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
        let compute = topology.compute_nodes();
        let ident = run_named(&scenario, "identity")?.measure();
        let random = run_named(&scenario, "random")?.measure();
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
        for (label, m) in [("identity", &ident), ("random", &random)] {
            let (d, rate) = (m.distance, m.transaction_rate);
            println!("{label:<12} {d:>10.2} {rate:>12.5}");
        }
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
        let (trace, spans) = (machine.trace(), machine.spans());
        let flits = trace.iter().flat_map(|t| t.iter().map(|e| e.to_json()));
        let spans = spans.iter().flat_map(|s| s.iter().map(|e| e.to_json()));
        let mut lines = 0u64;
        for event in flits.chain(spans) {
            writeln!(out, "{event}").map_err(|e| e.to_string())?;
            lines += 1;
        }
        out.flush().map_err(|e| e.to_string())?;
        eprintln!("wrote {lines} trace events to {path}");
    }
    Ok(())
}

fn cmd_suite(options: &HashMap<String, String>) -> Result<(), String> {
    // The sweep's default jobs, read only when `--jobs` is absent.
    let jobs = match options.get("jobs") {
        Some(_) => 1,
        None => suite_jobs()?,
    };
    let defaults = Defaults {
        warmup: 15_000,
        window: 45_000,
        sweep_jobs: Some(jobs),
    };
    let scenario = scenario_from(options, defaults)?;
    let mappings = scenario.named_mappings().map_err(|e| format!("--{e}"))?;
    let csv = options.contains_key("csv");
    if csv {
        println!("mapping,{MEASUREMENTS_CSV_HEADER}");
    } else {
        println!(
            "{:<16} {:>6} {:>9} {:>9} {:>8} {:>7}",
            "mapping", "d", "r_t", "T_m", "T_h", "rho"
        );
    }
    // One sweep per process: nothing would read a cached result or a
    // warm snapshot again.
    let points = scenario.sweep_once(&mappings).map_err(|e| e.to_string())?;
    for point in points {
        let (name, m) = (point.name, point.measured);
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
    use commloc_sim::fuzz as machine_fuzz;
    let seeds = get_u64(options, "seeds", 100)?;
    if seeds == 0 {
        return Err("--seeds: must be at least 1".into());
    }
    let start = get_u64(options, "start", 0)?;
    let jobs = get_jobs(options)?;
    let range = format!("{seeds} seeds [{start}..{})", start.saturating_add(seeds));
    if options.contains_key("machine") {
        // Full-machine lockstep: the active-node engine against
        // exhaustive reference stepping (and a sharded machine on sharded
        // draws), bit-exact on completions, measurements, breakdowns,
        // fault logs, migrations and watchdog trips.
        let (mut completions, mut cycles, mut stalls, mut migrations, mut jumps) = (0, 0, 0, 0, 0);
        let shrunk = |seed| {
            let outcome =
                machine_fuzz::shrink(&machine_fuzz::MachineScenario::from_seed(seed), None)?;
            Some((
                outcome.attempts,
                outcome.divergence.to_string(),
                outcome.repro_test(),
            ))
        };
        let secs = fuzz_range(seeds, start, jobs, machine_fuzz::run_seed, shrunk, |r| {
            completions += r.completions;
            cycles += r.net_cycles;
            stalls += u64::from(r.stalled);
            migrations += r.migrations;
            // Sharded draws that fast-forwarded: the sharded jump and
            // idle-tick paths ran.
            jumps += u64::from(r.shards > 1 && r.fast_forwarded > 0);
        })
        .map_err(|seed| format!("machine-lockstep divergence at seed {seed}"))?;
        println!(
            "fuzz --machine: {range} lockstep-clean in {secs:.1}s — {completions} transactions \
             completed, {stalls} watchdog stalls and {migrations} migrations matched \
             bit-exactly, {jumps} sharded draws fast-forwarded, {cycles} net cycles per engine"
        );
        return Ok(());
    }
    let mut t = fuzz::FuzzReport::default();
    let mut sharded = 0;
    let shrunk = |seed| {
        let outcome = fuzz::shrink(&FuzzScenario::from_seed(seed), None)?;
        Some((
            outcome.attempts,
            outcome.divergence.to_string(),
            outcome.repro_test(),
        ))
    };
    let secs = fuzz_range(seeds, start, jobs, fuzz::run_seed, shrunk, |r| {
        t.injected += r.injected;
        t.delivered += r.delivered;
        t.dropped += r.dropped;
        t.wedged += r.wedged;
        t.cycles += r.cycles;
        sharded += u64::from(r.shards > 1);
    })
    .map_err(|seed| format!("differential divergence at seed {seed}"))?;
    println!(
        "fuzz: {range} clean in {secs:.1}s — {} messages injected, {} delivered, {} dropped, {} \
         wedged, {} engine cycles, {sharded} sharded draws",
        t.injected, t.delivered, t.dropped, t.wedged, t.cycles
    );
    Ok(())
}

/// Runs `run` over the seed range on `jobs` workers, folding each report
/// into `add`, and returns the seconds it took. The first diverging seed
/// (in seed order) is returned after printing its divergence and its
/// `shrunk` minimal scenario `(attempts, divergence, repro test)`.
fn fuzz_range<R: Send, D: std::fmt::Display + Send>(
    seeds: u64,
    start: u64,
    jobs: usize,
    run: impl Fn(u64) -> Result<R, D> + Sync,
    shrunk: impl Fn(u64) -> Option<(u32, String, String)>,
    mut add: impl FnMut(R),
) -> Result<f64, u64> {
    let list: Vec<u64> = (start..start.saturating_add(seeds)).collect();
    let began = std::time::Instant::now();
    for (&seed, result) in list
        .iter()
        .zip(parallel_map(&list, jobs, |&seed| run(seed)))
    {
        match result {
            Ok(report) => add(report),
            Err(divergence) => {
                eprintln!("seed {seed} diverged: {divergence}");
                if let Some((attempts, divergence, repro)) = shrunk(seed) {
                    eprintln!(
                        "minimal failing scenario after {attempts} shrink attempts ({divergence}):"
                    );
                    eprintln!("{repro}");
                }
                return Err(seed);
            }
        }
    }
    Ok(began.elapsed().as_secs_f64())
}

fn err(e: commloc_model::ModelError) -> String {
    e.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use commloc_model::TopologyProfile;
    use commloc_net::Topology;
    use commloc_sim::{Mapping, NamedMapping};

    fn parse(pairs: &[&str], command: &str) -> Result<HashMap<String, String>, String> {
        parse_options(
            &pairs.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            command,
            &allowed_keys(command).unwrap(),
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
        let err = parse(&["--trace", "out.jsonl"], "sim").unwrap_err();
        assert!(err.contains("unknown option `--trace` for `sim`"), "{err}");
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
        let shards = |args: &[&str]| scenario_from(&opts(args), RUN).map(|s| s.shards);
        let err = shards(&["--shards", "0"]).unwrap_err();
        assert!(err.contains("did you mean `--shards 1`"), "{err}");
        let err = shards(&["--shards", "100"]).unwrap_err();
        assert!(err.contains("did you mean `--shards 64`"), "{err}");
        let err = shards(&["--shards", "few"]).unwrap_err();
        assert!(err.contains("not an integer"), "{err}");
        assert_eq!(shards(&[]).unwrap(), 1);
        assert_eq!(shards(&["--shards", "8"]).unwrap(), 8);
    }

    #[test]
    fn report_rejects_conflicting_jobs_and_shards() {
        // `--jobs` without `--shards` has nothing to control on report.
        let err = cmd_report(&opts(&["--jobs", "4"])).unwrap_err();
        assert!(err.contains("did you mean to add `--shards N`"), "{err}");
        // More workers than shards cannot run.
        let err = cmd_report(&opts(&["--shards", "2", "--jobs", "4"])).unwrap_err();
        assert!(err.contains("did you mean `--jobs 2`"), "{err}");
        // Tracing runs at every shard count.
        let name = format!("commloc-cli-sharded-trace-{}.jsonl", std::process::id());
        let path = std::env::temp_dir().join(name);
        let file = path.to_str().unwrap();
        let args = [
            "--shards", "2", "--trace", file, "--warmup", "200", "--window", "600",
        ];
        cmd_report(&opts(&args)).unwrap();
        let written = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(written.lines().count() > 0);
        assert!(written.lines().all(|l| l.starts_with("{\"event\":")));
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
        let mapping = |args: &[&str]| {
            let scenario = scenario_from(&opts(args), RUN)?;
            scenario
                .mapping(&scenario.mappings[0])
                .map(|named| named.mapping)
        };
        let m = mapping(&["--mapping", "swaps-12", "--seed", "5"]).unwrap();
        assert_eq!(m.threads(), 64);
        assert!(mapping(&["--mapping", "nonsense"]).is_err());
        assert_eq!(mapping(&[]).unwrap(), Mapping::identity(64));
        // `worst` works on every family (app-distance hill climb off the
        // torus), and sizes itself to the compute-node count.
        let fattree = Topology::fat_tree(2, 2);
        let m = mapping(&[
            "--mapping",
            "worst",
            "--seed",
            "7",
            "--topology",
            "fattree:2,2",
        ]);
        assert_eq!(m.unwrap().threads(), fattree.compute_nodes());
    }

    #[test]
    fn suite_definitions_win_where_the_grammars_meet() {
        // `swaps-8` on a cube is also a `swaps-K` name, and `worst` once
        // climbed 4,000 swaps on every fabric: both are the suite's now.
        for (topology, name) in [("cube", "swaps-8"), ("cube", "swaps-48"), ("mesh", "worst")] {
            let o = opts(&["--mapping", name, "--topology", topology]);
            let scenario = scenario_from(&o, RUN).unwrap();
            let resolved = scenario.mapping(name).unwrap();
            let t = Topology::parse(topology, 2, 8).unwrap();
            let suite = NamedMapping::by_name(&t, 1992, name).unwrap();
            assert_eq!(resolved.mapping, suite.mapping, "{topology} {name}");
        }
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
    fn empty_and_wrapping_windows_are_rejected_before_any_run() {
        // A zero window once measured intervals of 1.0 over no cycles, and
        // `warmup + window` past `u64::MAX` wrapped to a run of nothing.
        for args in [
            ["--warmup", "10", "--window", "0"],
            ["--warmup", "1", "--window", "18446744073709551615"],
        ] {
            for cmd in [cmd_sim, cmd_report, cmd_suite] {
                let e = cmd(&opts(&args)).unwrap_err();
                assert!(e.starts_with("--window:"), "{e}");
            }
        }
        let scenario = scenario_from(
            &opts(&["--warmup", "0", "--window", "18446744073709551615"]),
            RUN,
        )
        .unwrap();
        assert_eq!((scenario.warmup, scenario.window), (0, u64::MAX));
    }

    #[test]
    fn sim_config_resolves_topology_and_traffic() {
        let sim_config = |o| scenario_from(&o, RUN).map(|s| s.config);
        // Default: cube from dims/radix, neighbour workload.
        let config = sim_config(opts(&[])).unwrap();
        assert!(config.topology.is_none());
        assert_eq!(config.workload, Workload::Neighbor);
        // Explicit interconnect and traffic.
        let config = sim_config(opts(&["--topology", "mesh", "--traffic", "hotspot:3"])).unwrap();
        assert_eq!(config.resolved_topology().canonical(), "mesh:8x8");
        assert_eq!(config.workload, Workload::Hotspot { targets: 3 });
        let config = sim_config(opts(&["--topology", "fattree:2,2"])).unwrap();
        assert_eq!(config.resolved_topology().family(), "fattree");
        // Bad specs surface the offending flag.
        let e = sim_config(opts(&["--topology", "hypercube"])).unwrap_err();
        assert!(e.starts_with("--topology:"), "{e}");
        let e = sim_config(opts(&["--topology", "dragonfly:2000,2000"])).unwrap_err();
        assert!(e.starts_with("--topology:") && e.contains("cap"), "{e}");
        let e = sim_config(opts(&["--traffic", "storm"])).unwrap_err();
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
        assert!(matches!(w, Some(Workload::Trace(_))));
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
