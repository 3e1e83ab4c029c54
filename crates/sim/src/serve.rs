//! `commloc serve`: a long-running scenario service with a canonical
//! result cache (DESIGN.md §4.12).
//!
//! Sweep campaigns (Figure 3/5 grids, conformance gates, interactive
//! exploration) re-run the same scenarios constantly: the same warmed
//! machine under many windows, the same (config, mapping) pair requested
//! by different drivers. This module gives every driver one shared,
//! deterministic backend:
//!
//! * **Canonical keys** ([`ScenarioKey`]): a scenario — resolved
//!   [`SimConfig`] + [`Mapping`] + fault plan + windows — renders to a
//!   canonical string (fixed field order, exact `f64` bit patterns) and
//!   hashes with FNV-1a. Requests that spell the same scenario
//!   differently (reordered JSON keys, explicitly-written default fields)
//!   produce byte-identical canonicals; scenarios that differ anywhere
//!   that matters produce different canonicals. The full canonical string
//!   is stored with each entry and compared on lookup, so even a 64-bit
//!   hash collision can never serve the wrong result — it is counted and
//!   treated as a miss.
//! * **Result cache**: a bounded LRU of measured results. A repeated
//!   scenario returns the stored [`Measurements`] and latency-breakdown
//!   JSON bit-identically, without simulating.
//! * **Warm-start cache**: a bounded LRU of post-warmup
//!   [`MachineSnapshot`]s keyed by the scenario-minus-window prefix.
//!   Re-measuring a warmed machine under a new window restores the
//!   snapshot and runs only the window; determinism makes the result
//!   bit-identical to the cold path.
//! * **A JSON-lines protocol** ([`serve`]): requests in, streamed
//!   `accepted`/`progress`/`result`/`done` events out, over
//!   stdin/stdout, a Unix socket, or TCP. Misses are batched through
//!   [`parallel_map`] under the shared process [`crate::set_job_budget`]
//!   job budget.
//!
//! The suite and conformance drivers ([`crate::conformance`], `commloc
//! suite`) route through [`run_cached_sweep`], so a daemon, a CLI sweep,
//! and a conformance gate all hit the same cache.

use crate::conformance::{REDUCED_WARMUP, REDUCED_WINDOW, SUITE_SEED};
use crate::error::SimError;
use crate::json::{json_string, Json};
use crate::machine::{Machine, MachineSnapshot, Measurements, SimConfig};
use crate::mapping::{suite_names, topology_mapping_suite, Mapping, NamedMapping};
use crate::parallel::{default_jobs, parallel_map};
use crate::workload::{fnv1a, Workload};
use commloc_net::{FaultPlan, Topology};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Default bound on stored results.
const DEFAULT_CACHE_CAPACITY: usize = 256;
/// Default bound on stored warm-start snapshots (each holds a whole
/// machine, so this is kept far smaller than the result bound).
const DEFAULT_WARM_CAPACITY: usize = 16;

/// Configuration of a [`serve`] daemon.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind a Unix socket at this path instead of serving stdin/stdout.
    pub socket: Option<String>,
    /// Bind a TCP listener at this address (e.g. `127.0.0.1:7992`)
    /// instead of serving stdin/stdout.
    pub tcp: Option<String>,
    /// Maximum cached results.
    pub cache_capacity: usize,
    /// Maximum cached warm-start snapshots.
    pub warm_capacity: usize,
    /// Worker threads for batched cache misses.
    pub jobs: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            socket: None,
            tcp: None,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            warm_capacity: DEFAULT_WARM_CAPACITY,
            jobs: default_jobs(),
        }
    }
}

/// The canonical identity of one scenario: everything that determines its
/// measured result, rendered order-insensitively and default-invariantly.
///
/// Construction reads the *resolved* [`SimConfig`] and [`Mapping`], so
/// two requests that reorder fields or write defaults explicitly
/// canonicalize identically. `f64` fields render as exact bit patterns —
/// no formatting rounding can alias two different configurations. The
/// window is appended last so the prefix before it
/// ([`ScenarioKey::warm_hash`]) identifies the warmed machine shared by
/// every window length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioKey {
    hash: u64,
    warm_hash: u64,
    canonical: String,
    warm_len: usize,
}

impl ScenarioKey {
    /// Canonicalizes `(config, mapping, warmup, window)`.
    ///
    /// The topology renders through [`SimConfig::resolved_topology`] (not
    /// the raw `dims`/`radix` fields), so a cube spelled via `dims`/`radix`
    /// and the same cube spelled via an explicit [`Topology`] alias — and
    /// a mesh request can never be served a cube-cached result. The
    /// workload canonical includes the trace content hash, so two traces
    /// with the same filename but different contents never alias either.
    pub fn new(config: &SimConfig, mapping: &Mapping, warmup: u64, window: u64) -> Self {
        let mut c = format!(
            "topo={};workload={};contexts={};clock_ratio={};switch_cycles={};work={}",
            config.resolved_topology().canonical(),
            config.workload.canonical(),
            config.contexts,
            config.clock_ratio,
            config.switch_cycles,
            config.work,
        );
        let m = &config.mem;
        c.push_str(&format!(
            ";mem={},{},{},{},{},{},{}",
            m.header_flits,
            m.data_flits,
            m.processing_cycles,
            m.memory_cycles,
            m.cache_lines,
            m.timeout_cycles,
            m.max_retries,
        ));
        let f = &config.fabric;
        c.push_str(&format!(
            ";fabric={},{},{},{}",
            f.link_vcs, f.vc_buffer_capacity, f.injection_buffer_capacity, f.trace_capacity,
        ));
        c.push_str(&format!(";watchdog={}", config.watchdog_cycles));
        match &config.fault_plan {
            None => c.push_str(";fault=none"),
            Some(plan) => c.push_str(&format!(";fault={}", plan.canonical_description())),
        }
        c.push_str(";map=");
        for t in 0..mapping.threads() {
            if t > 0 {
                c.push(',');
            }
            c.push_str(&mapping.processor(t).0.to_string());
        }
        c.push_str(&format!(";warmup={warmup}"));
        let warm_len = c.len();
        let warm_hash = fnv1a(c.as_bytes());
        c.push_str(&format!(";window={window}"));
        let hash = fnv1a(c.as_bytes());
        Self {
            hash,
            warm_hash,
            canonical: c,
            warm_len,
        }
    }

    /// The scenario's 64-bit FNV-1a hash (cache index; verified against
    /// [`ScenarioKey::canonical`] on every lookup).
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The full canonical rendering.
    pub fn canonical(&self) -> &str {
        &self.canonical
    }

    /// Hash of the scenario-minus-window prefix: the identity of the
    /// warmed machine this scenario measures.
    pub fn warm_hash(&self) -> u64 {
        self.warm_hash
    }

    /// The scenario-minus-window canonical prefix.
    pub fn warm_canonical(&self) -> &str {
        &self.canonical[..self.warm_len]
    }

    /// Test-only: a key with a forged hash, for exercising the
    /// collision-verification path (real FNV collisions are impractical
    /// to construct in a unit test).
    #[cfg(test)]
    fn forged(hash: u64, canonical: &str) -> Self {
        Self {
            hash,
            warm_hash: hash,
            canonical: canonical.to_string(),
            warm_len: canonical.len(),
        }
    }
}

/// One measured scenario, as returned by [`run_cached_sweep`] and
/// streamed by the daemon.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// The mapping's suite name.
    pub name: String,
    /// Average neighbour distance of the mapping (hops).
    pub distance: f64,
    /// The measured experiment (bit-identical on a cache hit).
    pub measured: Measurements,
    /// Six-component latency breakdown as a JSON object
    /// ([`commloc_net::LatencyBreakdown::to_json`]).
    pub breakdown_json: String,
    /// Whether this result came from the cache without simulating.
    pub cached: bool,
}

/// Cache occupancy and traffic counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that required simulation.
    pub misses: u64,
    /// Lookups whose 64-bit hash matched a stored entry but whose
    /// canonical string did not (served as misses, never as wrong data).
    pub collisions: u64,
    /// Stored results.
    pub entries: usize,
    /// Stored warm-start snapshots.
    pub warm_entries: usize,
}

/// A stored result.
#[derive(Debug, Clone)]
struct CacheEntry {
    canonical: String,
    measured: Measurements,
    breakdown_json: String,
}

/// A stored warm-start snapshot.
#[derive(Debug, Clone)]
struct WarmEntry {
    canonical: String,
    snapshot: MachineSnapshot,
}

/// The bounded LRU result + warm-start store behind every cached driver.
#[derive(Debug)]
pub(crate) struct ScenarioCache {
    capacity: usize,
    warm_capacity: usize,
    entries: HashMap<u64, CacheEntry>,
    recency: VecDeque<u64>,
    warm: HashMap<u64, WarmEntry>,
    warm_recency: VecDeque<u64>,
    hits: u64,
    misses: u64,
    collisions: u64,
}

impl ScenarioCache {
    pub(crate) fn new(capacity: usize, warm_capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            warm_capacity: warm_capacity.max(1),
            entries: HashMap::new(),
            recency: VecDeque::new(),
            warm: HashMap::new(),
            warm_recency: VecDeque::new(),
            hits: 0,
            misses: 0,
            collisions: 0,
        }
    }

    /// Applies new bounds, evicting least-recently-used entries if the
    /// store is now over-size. Counters are preserved.
    fn configure(&mut self, capacity: usize, warm_capacity: usize) {
        self.capacity = capacity.max(1);
        self.warm_capacity = warm_capacity.max(1);
        while self.entries.len() > self.capacity {
            if let Some(old) = self.recency.pop_front() {
                self.entries.remove(&old);
            }
        }
        while self.warm.len() > self.warm_capacity {
            if let Some(old) = self.warm_recency.pop_front() {
                self.warm.remove(&old);
            }
        }
    }

    fn touch(recency: &mut VecDeque<u64>, hash: u64) {
        recency.retain(|&h| h != hash);
        recency.push_back(hash);
    }

    fn lookup(&mut self, key: &ScenarioKey) -> Option<CacheEntry> {
        match self.entries.get(&key.hash) {
            Some(entry) if entry.canonical == key.canonical => {
                self.hits += 1;
                Self::touch(&mut self.recency, key.hash);
                Some(entry.clone())
            }
            Some(_) => {
                // Same 64-bit hash, different scenario: the stored full
                // key caught it. Never serve the wrong result.
                self.collisions += 1;
                self.misses += 1;
                None
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, key: &ScenarioKey, measured: Measurements, breakdown_json: &str) {
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key.hash) {
            if let Some(old) = self.recency.pop_front() {
                self.entries.remove(&old);
            }
        }
        self.entries.insert(
            key.hash,
            CacheEntry {
                canonical: key.canonical.clone(),
                measured,
                breakdown_json: breakdown_json.to_string(),
            },
        );
        Self::touch(&mut self.recency, key.hash);
    }

    fn warm_lookup(&mut self, key: &ScenarioKey) -> Option<MachineSnapshot> {
        match self.warm.get(&key.warm_hash) {
            Some(entry) if entry.canonical == key.warm_canonical() => {
                Self::touch(&mut self.warm_recency, key.warm_hash);
                Some(entry.snapshot.clone())
            }
            _ => None,
        }
    }

    fn warm_insert(&mut self, key: &ScenarioKey, snapshot: MachineSnapshot) {
        if self.warm.len() >= self.warm_capacity && !self.warm.contains_key(&key.warm_hash) {
            if let Some(old) = self.warm_recency.pop_front() {
                self.warm.remove(&old);
            }
        }
        self.warm.insert(
            key.warm_hash,
            WarmEntry {
                canonical: key.warm_canonical().to_string(),
                snapshot,
            },
        );
        Self::touch(&mut self.warm_recency, key.warm_hash);
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            collisions: self.collisions,
            entries: self.entries.len(),
            warm_entries: self.warm.len(),
        }
    }
}

/// The process-wide cache shared by the daemon, `commloc suite`, and the
/// conformance drivers.
fn global_cache() -> &'static Mutex<ScenarioCache> {
    static CACHE: OnceLock<Mutex<ScenarioCache>> = OnceLock::new();
    CACHE.get_or_init(|| {
        Mutex::new(ScenarioCache::new(
            DEFAULT_CACHE_CAPACITY,
            DEFAULT_WARM_CAPACITY,
        ))
    })
}

/// Lock helper: the cache is plain data, so a panicked holder leaves a
/// consistent (if slightly stale) store — recover rather than wedge the
/// daemon.
fn lock(cache: &Mutex<ScenarioCache>) -> std::sync::MutexGuard<'_, ScenarioCache> {
    cache.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Traffic and occupancy counters of the process-wide cache.
pub fn cache_stats() -> CacheStats {
    lock(global_cache()).stats()
}

/// Runs one scenario against `cache`: result-cache check is the caller's
/// job; this is the miss path (warm-start if a snapshot exists, else cold
/// warmup + snapshot insert), ending with a result-cache insert.
fn compute_scenario(
    config: &SimConfig,
    mapping: &Mapping,
    key: &ScenarioKey,
    warmup: u64,
    window: u64,
    cache: &Mutex<ScenarioCache>,
) -> Result<(Measurements, String), SimError> {
    let warm = lock(cache).warm_lookup(key);
    let mut machine = match warm {
        Some(snapshot) => snapshot.restore(),
        None => {
            let mut machine = Machine::new(config, mapping);
            machine.run_network_cycles(warmup)?;
            machine.reset_measurements();
            lock(cache).warm_insert(key, machine.snapshot());
            machine
        }
    };
    machine.run_network_cycles(window)?;
    let measured = machine.measure();
    let breakdown_json = machine.latency_breakdown().to_json();
    lock(cache).insert(key, measured, &breakdown_json);
    Ok((measured, breakdown_json))
}

/// Per-scenario completion callback `(input index, name, was cache hit)`;
/// sweep workers invoke it concurrently, so it must be `Sync`.
type ProgressFn<'a> = &'a (dyn Fn(usize, &str, bool) + Sync);

/// [`run_cached_sweep`] against an explicit cache, with an optional
/// completion callback — the daemon streams progress from it.
fn run_cached_sweep_with(
    config: &SimConfig,
    mappings: &[NamedMapping],
    warmup: u64,
    window: u64,
    jobs: usize,
    cache: &Mutex<ScenarioCache>,
    progress: Option<ProgressFn<'_>>,
) -> Result<Vec<ScenarioResult>, SimError> {
    let keys: Vec<ScenarioKey> = mappings
        .iter()
        .map(|named| ScenarioKey::new(config, &named.mapping, warmup, window))
        .collect();
    let mut results: Vec<Option<ScenarioResult>> = mappings.iter().map(|_| None).collect();
    let mut miss_indices: Vec<usize> = Vec::new();
    {
        let mut store = lock(cache);
        for (i, (named, key)) in mappings.iter().zip(&keys).enumerate() {
            match store.lookup(key) {
                Some(entry) => {
                    results[i] = Some(ScenarioResult {
                        name: named.name.clone(),
                        distance: named.distance,
                        measured: entry.measured,
                        breakdown_json: entry.breakdown_json,
                        cached: true,
                    });
                }
                None => miss_indices.push(i),
            }
        }
    }
    if let Some(callback) = progress {
        for (i, slot) in results.iter().enumerate() {
            if slot.is_some() {
                callback(i, &mappings[i].name, true);
            }
        }
    }
    let computed = parallel_map(&miss_indices, jobs, |&i| {
        let named = &mappings[i];
        let out = compute_scenario(config, &named.mapping, &keys[i], warmup, window, cache);
        if out.is_ok() {
            if let Some(callback) = progress {
                callback(i, &named.name, false);
            }
        }
        out.map(|(measured, breakdown_json)| ScenarioResult {
            name: named.name.clone(),
            distance: named.distance,
            measured,
            breakdown_json,
            cached: false,
        })
    });
    for (&i, result) in miss_indices.iter().zip(computed) {
        results[i] = Some(result?);
    }
    Ok(results
        .into_iter()
        .map(|slot| slot.expect("every sweep slot filled"))
        .collect())
}

/// Runs one experiment per mapping through the process-wide result and
/// warm-start caches, fanning misses across `jobs` threads (under the
/// shared job budget). Results are in input order and bit-identical to
/// one [`crate::run_experiment`] per mapping — repeated scenarios are
/// served from the cache without simulating.
///
/// # Errors
///
/// Returns the first failing experiment's error (by input order).
pub fn run_cached_sweep(
    config: &SimConfig,
    mappings: &[NamedMapping],
    warmup: u64,
    window: u64,
    jobs: usize,
) -> Result<Vec<ScenarioResult>, SimError> {
    run_cached_sweep_with(config, mappings, warmup, window, jobs, global_cache(), None)
}

/// Serializes `m` as a JSON object. Non-finite ratios map to the same
/// 0.0 degenerate-window sentinel as [`Measurements::to_csv_row`]; every
/// present field parses as a finite number (the CI smoke gate checks).
fn measurements_json(m: &Measurements) -> String {
    fn finite(x: f64) -> f64 {
        if x.is_finite() {
            x
        } else {
            0.0
        }
    }
    let mut out = format!("{{\"net_cycles\":{},\"nodes\":{}", m.net_cycles, m.nodes);
    for (name, value) in [
        ("distance", m.distance),
        ("message_rate", m.message_rate),
        ("message_interval", m.message_interval),
        ("message_latency", m.message_latency),
        ("per_hop_latency", m.per_hop_latency),
        ("channel_utilization", m.channel_utilization),
        ("injection_utilization", m.injection_utilization),
        ("transaction_rate", m.transaction_rate),
        ("issue_interval", m.issue_interval),
        ("transaction_latency", m.transaction_latency),
        ("messages_per_transaction", m.messages_per_transaction),
        ("avg_message_size", m.avg_message_size),
        ("residual_message_size", m.residual_message_size),
        ("run_length", m.run_length),
        ("hit_fraction", m.hit_fraction),
    ] {
        out.push_str(&format!(",\"{name}\":{:?}", finite(value)));
    }
    out.push('}');
    out
}

/// A parsed daemon request.
#[derive(Debug)]
struct Request {
    op: String,
    id: Option<String>,
    config: SimConfig,
    seed: u64,
    warmup: u64,
    window: u64,
    /// Mapping suite names (`run`: exactly one; `sweep`: one or more, or
    /// empty meaning the whole suite).
    mappings: Vec<String>,
}

/// Every key a request may carry (flat object; scenario fields default to
/// the paper's architecture and the reduced conformance windows).
const REQUEST_KEYS: &[&str] = &[
    "op",
    "id",
    "mapping",
    "mappings",
    "dims",
    "radix",
    "topology",
    "traffic",
    "contexts",
    "clock_ratio",
    "switch_cycles",
    "work",
    "watchdog",
    "seed",
    "warmup",
    "window",
    "fault_seed",
    "drop_rate",
    "corrupt_rate",
    "stall_rate",
    "stall_window",
];

fn parse_request(line: &str) -> Result<Request, String> {
    let doc = Json::parse(line)?;
    for (key, _) in doc.as_object()? {
        if !REQUEST_KEYS.contains(&key.as_str()) {
            return Err(format!(
                "unknown key `{key}` (known keys: {})",
                REQUEST_KEYS.join(", ")
            ));
        }
    }
    let get = |name: &str| doc.field(name).expect("checked object");
    let op = match get("op") {
        Some(v) => v.as_string()?,
        None => return Err("missing `op` (run, sweep, stats, shutdown)".into()),
    };
    let id = get("id").map(Json::as_string).transpose()?;
    let u64_field = |name: &str, default: u64| -> Result<u64, String> {
        get(name).map_or(Ok(default), |v| {
            v.as_u64().map_err(|e| format!("{name}: {e}"))
        })
    };
    let u32_field = |name: &str, default: u32| -> Result<u32, String> {
        let value = u64_field(name, u64::from(default))?;
        u32::try_from(value).map_err(|_| format!("{name}: {value} does not fit in 32 bits"))
    };
    let rate_field = |name: &str| -> Result<f64, String> {
        let rate = get(name).map_or(Ok(0.0), |v| {
            v.as_number().map_err(|e| format!("{name}: {e}"))
        })?;
        if (0.0..=1.0).contains(&rate) {
            Ok(rate)
        } else {
            Err(format!("{name}: {rate} is not a probability in [0, 1]"))
        }
    };
    let defaults = SimConfig::default();
    let mut config = SimConfig {
        dims: u32_field("dims", defaults.dims)?,
        radix: u64_field("radix", defaults.radix as u64)? as usize,
        contexts: u64_field("contexts", defaults.contexts as u64)? as usize,
        clock_ratio: u32_field("clock_ratio", defaults.clock_ratio)?,
        switch_cycles: u32_field("switch_cycles", defaults.switch_cycles)?,
        work: u32_field("work", defaults.work)?,
        watchdog_cycles: u64_field("watchdog", defaults.watchdog_cycles)?,
        ..defaults
    };
    if let Some(v) = get("topology") {
        let spec = v.as_string().map_err(|e| format!("topology: {e}"))?;
        config.topology = Some(
            Topology::parse(&spec, config.dims, config.radix)
                .map_err(|e| format!("topology: {e}"))?,
        );
    }
    if let Some(v) = get("traffic") {
        let spec = v.as_string().map_err(|e| format!("traffic: {e}"))?;
        config.workload = Workload::parse(&spec).map_err(|e| format!("traffic: {e}"))?;
    }
    let drop_rate = rate_field("drop_rate")?;
    let corrupt_rate = rate_field("corrupt_rate")?;
    let stall_rate = rate_field("stall_rate")?;
    let has_fault = [
        "fault_seed",
        "drop_rate",
        "corrupt_rate",
        "stall_rate",
        "stall_window",
    ]
    .iter()
    .any(|k| get(k).is_some());
    if has_fault {
        let mut plan = FaultPlan::new(u64_field("fault_seed", 0)?)
            .with_drop_rate(drop_rate)
            .with_corrupt_rate(corrupt_rate);
        let stall_window = u64_field("stall_window", 64)?;
        plan = plan.with_stall_rate(stall_rate, stall_window);
        config.fault_plan = Some(plan);
    }
    config.check()?;
    let mut mappings = Vec::new();
    if let Some(v) = get("mapping") {
        mappings.push(v.as_string().map_err(|e| format!("mapping: {e}"))?);
    }
    if let Some(v) = get("mappings") {
        for item in v.as_array().map_err(|e| format!("mappings: {e}"))? {
            mappings.push(item.as_string().map_err(|e| format!("mappings: {e}"))?);
        }
    }
    Ok(Request {
        op,
        id,
        config,
        seed: u64_field("seed", SUITE_SEED)?,
        warmup: u64_field("warmup", REDUCED_WARMUP)?,
        window: u64_field("window", REDUCED_WINDOW)?,
        mappings,
    })
}

/// Resolves request mapping names for this config's topology, building
/// only the mappings named ([`NamedMapping::by_name`]); empty `specs`
/// means the whole suite ([`topology_mapping_suite`]). Every name is
/// checked against [`suite_names`] before anything is built, and an
/// unknown one is reported with the family's names in their fixed order.
fn resolve_mappings(
    config: &SimConfig,
    seed: u64,
    specs: &[String],
) -> Result<Vec<NamedMapping>, String> {
    let topology = config.resolved_topology();
    if specs.is_empty() {
        return Ok(topology_mapping_suite(&topology, seed));
    }
    let names = suite_names(&topology);
    if let Some(spec) = specs.iter().find(|spec| !names.contains(&spec.as_str())) {
        return Err(format!(
            "unknown mapping `{spec}` on {} (suite: {})",
            topology.canonical(),
            names.join(", ")
        ));
    }
    Ok(specs
        .iter()
        .filter_map(|spec| NamedMapping::by_name(&topology, seed, spec))
        .collect())
}

/// The identity segment shared by every event of one request.
fn id_prefix(id: &Option<String>) -> String {
    match id {
        Some(id) => format!("\"id\":{},", json_string(id)),
        None => String::new(),
    }
}

fn stats_json(stats: &CacheStats) -> String {
    format!(
        "\"hits\":{},\"misses\":{},\"collisions\":{},\"entries\":{},\"warm_entries\":{}",
        stats.hits, stats.misses, stats.collisions, stats.entries, stats.warm_entries,
    )
}

/// Writes one event line (locking the shared writer; the daemon streams
/// from worker threads).
fn emit<W: Write>(writer: &Mutex<W>, line: &str) -> Result<(), String> {
    let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
    writeln!(w, "{line}")
        .and_then(|()| w.flush())
        .map_err(|e| format!("write: {e}"))
}

/// Handles one request line. `Ok(false)` means a clean shutdown request.
fn handle_request<W: Write + Send>(
    line: &str,
    writer: &Mutex<W>,
    jobs: usize,
    cache: &Mutex<ScenarioCache>,
) -> Result<bool, String> {
    let request = match parse_request(line) {
        Ok(request) => request,
        Err(message) => {
            emit(
                writer,
                &format!(
                    "{{\"event\":\"error\",\"message\":{}}}",
                    json_string(&message)
                ),
            )?;
            return Ok(true);
        }
    };
    let id = id_prefix(&request.id);
    match request.op.as_str() {
        "stats" => {
            let stats = lock(cache).stats();
            emit(
                writer,
                &format!("{{\"event\":\"stats\",{id}{}}}", stats_json(&stats)),
            )?;
            Ok(true)
        }
        "shutdown" => {
            emit(
                writer,
                &format!("{{\"event\":\"done\",{id}\"op\":\"shutdown\"}}"),
            )?;
            Ok(false)
        }
        op @ ("run" | "sweep") => {
            if op == "run" && request.mappings.len() != 1 {
                emit(
                    writer,
                    &format!(
                        "{{\"event\":\"error\",{id}\"message\":\"op `run` needs exactly one `mapping`\"}}"
                    ),
                )?;
                return Ok(true);
            }
            let mappings = match resolve_mappings(&request.config, request.seed, &request.mappings)
            {
                Ok(mappings) => mappings,
                Err(message) => {
                    emit(
                        writer,
                        &format!(
                            "{{\"event\":\"error\",{id}\"message\":{}}}",
                            json_string(&message)
                        ),
                    )?;
                    return Ok(true);
                }
            };
            emit(
                writer,
                &format!(
                    "{{\"event\":\"accepted\",{id}\"op\":\"{op}\",\"scenarios\":{}}}",
                    mappings.len()
                ),
            )?;
            let total = mappings.len();
            let done = std::sync::atomic::AtomicUsize::new(0);
            let progress = |_: usize, name: &str, cached: bool| {
                let completed = 1 + done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let _ = emit(
                    writer,
                    &format!(
                        "{{\"event\":\"progress\",{id}\"completed\":{completed},\"total\":{total},\
                         \"name\":{},\"cached\":{cached}}}",
                        json_string(name)
                    ),
                );
            };
            let outcome = run_cached_sweep_with(
                &request.config,
                &mappings,
                request.warmup,
                request.window,
                jobs,
                cache,
                Some(&progress),
            );
            match outcome {
                Err(error) => emit(
                    writer,
                    &format!(
                        "{{\"event\":\"error\",{id}\"message\":{}}}",
                        json_string(&error.to_string())
                    ),
                )?,
                Ok(results) => {
                    for r in &results {
                        emit(
                            writer,
                            &format!(
                                "{{\"event\":\"result\",{id}\"name\":{},\"distance\":{:?},\
                                 \"cached\":{},\"measurements\":{},\"breakdown\":{}}}",
                                json_string(&r.name),
                                r.distance,
                                r.cached,
                                measurements_json(&r.measured),
                                r.breakdown_json,
                            ),
                        )?;
                    }
                    let stats = lock(cache).stats();
                    emit(
                        writer,
                        &format!(
                            "{{\"event\":\"done\",{id}\"op\":\"{op}\",\"scenarios\":{},{}}}",
                            results.len(),
                            stats_json(&stats)
                        ),
                    )?;
                }
            }
            Ok(true)
        }
        other => {
            emit(
                writer,
                &format!(
                    "{{\"event\":\"error\",{id}\"message\":{}}}",
                    json_string(&format!(
                        "unknown op `{other}` (run, sweep, stats, shutdown)"
                    ))
                ),
            )?;
            Ok(true)
        }
    }
}

/// Serves JSON-lines requests from `reader`, streaming events to
/// `writer`, until EOF or a `shutdown` request. `Ok(false)` = shutdown
/// was requested (listeners stop accepting), `Ok(true)` = plain EOF.
fn handle_stream<R: BufRead, W: Write + Send>(
    reader: R,
    writer: W,
    jobs: usize,
    cache: &Mutex<ScenarioCache>,
) -> Result<bool, String> {
    let writer = Mutex::new(writer);
    for line in reader.lines() {
        let line = line.map_err(|e| format!("read: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        if !handle_request(line.trim(), &writer, jobs, cache)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Runs the scenario daemon until a `shutdown` request (or, in
/// stdin/stdout mode, EOF).
///
/// Transports: stdin/stdout by default; a Unix socket
/// ([`ServeOptions::socket`]) or TCP listener ([`ServeOptions::tcp`])
/// otherwise, serving connections one at a time (requests are batched
/// sweeps — fairness across concurrent clients is not a goal).
///
/// # Errors
///
/// Returns a description of the first transport error (bind/accept/IO);
/// malformed requests are reported to the client as `error` events and do
/// not stop the daemon.
pub fn serve(options: &ServeOptions) -> Result<(), String> {
    lock(global_cache()).configure(options.cache_capacity, options.warm_capacity);
    let cache = global_cache();
    match (&options.socket, &options.tcp) {
        (Some(_), Some(_)) => Err("--socket and --tcp are mutually exclusive".into()),
        (Some(path), None) => {
            let listener = std::os::unix::net::UnixListener::bind(path)
                .map_err(|e| format!("bind {path}: {e}"))?;
            for stream in listener.incoming() {
                let stream = stream.map_err(|e| format!("accept: {e}"))?;
                let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
                if !handle_stream(reader, stream, options.jobs, cache)? {
                    break;
                }
            }
            let _ = std::fs::remove_file(path);
            Ok(())
        }
        (None, Some(addr)) => {
            let listener =
                std::net::TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
            for stream in listener.incoming() {
                let stream = stream.map_err(|e| format!("accept: {e}"))?;
                let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
                if !handle_stream(reader, stream, options.jobs, cache)? {
                    break;
                }
            }
            Ok(())
        }
        (None, None) => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            handle_stream(stdin.lock(), stdout, options.jobs, cache).map(|_| ())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::run_experiment;
    use crate::mapping::mapping_suite;
    use commloc_net::{DetRng, Torus};

    fn small_key(window: u64) -> ScenarioKey {
        ScenarioKey::new(&SimConfig::default(), &Mapping::identity(64), 1_000, window)
    }

    #[test]
    fn key_is_order_insensitive_and_default_invariant() {
        // One request spells nothing out; the other writes every default
        // explicitly, in scrambled key order. Same scenario, same key.
        let terse = parse_request(r#"{"op":"run","mapping":"identity"}"#).unwrap();
        let explicit = parse_request(
            r#"{"window":18000,"dims":2,"mapping":"identity","radix":8,"op":"run",
               "warmup":6000,"clock_ratio":2,"contexts":1,"switch_cycles":11,
               "work":10,"watchdog":20000,"seed":1992}"#,
        )
        .unwrap();
        let mapping = Mapping::identity(64);
        let a = ScenarioKey::new(&terse.config, &mapping, terse.warmup, terse.window);
        let b = ScenarioKey::new(&explicit.config, &mapping, explicit.warmup, explicit.window);
        assert_eq!(a, b, "reordered/explicit-default requests must alias");
        assert_eq!(a.hash(), b.hash());
    }

    #[test]
    fn differing_mapping_config_or_fault_changes_the_key() {
        let config = SimConfig::default();
        let identity = ScenarioKey::new(&config, &Mapping::identity(64), 1_000, 4_000);
        let random = ScenarioKey::new(&config, &Mapping::random(64, 7), 1_000, 4_000);
        assert_ne!(identity.canonical(), random.canonical());

        let faulted = SimConfig {
            fault_plan: Some(FaultPlan::new(9).with_drop_rate(0.01)),
            ..SimConfig::default()
        };
        let with_fault = ScenarioKey::new(&faulted, &Mapping::identity(64), 1_000, 4_000);
        assert_ne!(identity.canonical(), with_fault.canonical());

        // Fault plans differing only in seed, or only in one scheduled
        // event, never alias.
        let reseeded = SimConfig {
            fault_plan: Some(FaultPlan::new(10).with_drop_rate(0.01)),
            ..SimConfig::default()
        };
        let with_reseed = ScenarioKey::new(&reseeded, &Mapping::identity(64), 1_000, 4_000);
        assert_ne!(with_fault.canonical(), with_reseed.canonical());
        let scheduled = SimConfig {
            fault_plan: Some(
                FaultPlan::new(9)
                    .with_drop_rate(0.01)
                    .stall_router_at(500, 12, 300),
            ),
            ..SimConfig::default()
        };
        let with_schedule = ScenarioKey::new(&scheduled, &Mapping::identity(64), 1_000, 4_000);
        assert_ne!(with_fault.canonical(), with_schedule.canonical());
    }

    #[test]
    fn topology_and_traffic_split_the_key() {
        // A 4x4 cube and a 4x4 mesh have the same node count and the same
        // default dims/radix fields — only the topology distinguishes
        // them. A cached cube result must never be served for the mesh.
        let mapping = Mapping::identity(16);
        let cube = SimConfig {
            dims: 2,
            radix: 4,
            ..SimConfig::default()
        };
        let mesh = SimConfig {
            topology: Some(Topology::mesh(4, 4)),
            ..cube.clone()
        };
        let cube_key = ScenarioKey::new(&cube, &mapping, 1_000, 4_000);
        let mesh_key = ScenarioKey::new(&mesh, &mapping, 1_000, 4_000);
        assert_ne!(cube_key.canonical(), mesh_key.canonical());
        assert_ne!(cube_key.warm_canonical(), mesh_key.warm_canonical());

        // An explicitly-spelled cube aliases the dims/radix spelling.
        let explicit = SimConfig {
            topology: Some(Topology::cube(2, 4)),
            ..cube.clone()
        };
        assert_eq!(
            cube_key.canonical(),
            ScenarioKey::new(&explicit, &mapping, 1_000, 4_000).canonical()
        );

        // The traffic pattern splits the key too.
        let transpose = SimConfig {
            workload: Workload::Transpose,
            ..cube.clone()
        };
        assert_ne!(
            cube_key.canonical(),
            ScenarioKey::new(&transpose, &mapping, 1_000, 4_000).canonical()
        );
    }

    #[test]
    fn window_splits_the_key_but_not_the_warm_prefix() {
        let short = small_key(4_000);
        let long = small_key(9_000);
        assert_ne!(short.hash(), long.hash());
        assert_eq!(short.warm_hash(), long.warm_hash());
        assert_eq!(short.warm_canonical(), long.warm_canonical());
    }

    #[test]
    fn unknown_request_keys_are_rejected() {
        let err = parse_request(r#"{"op":"run","mapping":"identity","radiks":8}"#).unwrap_err();
        assert!(err.contains("radiks"), "error must name the bad key: {err}");
        assert!(
            parse_request(r#"{"op":"run","mapping":"identity","drop_rate":1.5}"#).is_err(),
            "out-of-range probability must be rejected"
        );
    }

    #[test]
    fn hash_collisions_are_verified_not_served() {
        let mut cache = ScenarioCache::new(8, 2);
        let real = small_key(4_000);
        let m = run_experiment(&SimConfig::default(), &Mapping::identity(64), 500, 1_500).unwrap();
        cache.insert(&real, m, "{}");
        // A forged key with the same hash but a different canonical
        // string: the full-key check refuses it.
        let impostor = ScenarioKey::forged(real.hash(), "something else entirely");
        assert!(cache.lookup(&impostor).is_none());
        let stats = cache.stats();
        assert_eq!(stats.collisions, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 0);
        // The genuine key still hits.
        assert!(cache.lookup(&real).is_some());
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn result_cache_is_a_bounded_lru() {
        let mut cache = ScenarioCache::new(2, 2);
        let m = run_experiment(&SimConfig::default(), &Mapping::identity(64), 500, 1_500).unwrap();
        let keys: Vec<ScenarioKey> = (1..=3).map(|w| small_key(w * 1_000)).collect();
        cache.insert(&keys[0], m, "{}");
        cache.insert(&keys[1], m, "{}");
        // Touch the older entry so the *other* one is the LRU victim.
        assert!(cache.lookup(&keys[0]).is_some());
        cache.insert(&keys[2], m, "{}");
        assert_eq!(cache.stats().entries, 2);
        assert!(
            cache.lookup(&keys[1]).is_none(),
            "LRU entry must be evicted"
        );
        assert!(cache.lookup(&keys[0]).is_some());
        assert!(cache.lookup(&keys[2]).is_some());
    }

    #[test]
    fn warm_restore_is_bit_identical_to_cold_run() {
        let config = SimConfig::default();
        let mapping = Mapping::identity(64);
        let cold = run_experiment(&config, &mapping, 1_500, 4_000).unwrap();
        let mut machine = Machine::new(&config, &mapping);
        machine.run_network_cycles(1_500).unwrap();
        machine.reset_measurements();
        let snapshot = machine.snapshot();
        // Two independent restores, both bit-identical to the cold path.
        for _ in 0..2 {
            let mut warm = snapshot.restore();
            warm.run_network_cycles(4_000).unwrap();
            assert_eq!(warm.measure(), cold);
        }
    }

    #[test]
    fn cached_sweep_hits_are_bit_identical_and_warm_starts_match() {
        let cache = Mutex::new(ScenarioCache::new(8, 4));
        let config = SimConfig::default();
        let torus = Torus::new(config.dims, config.radix);
        let mappings: Vec<NamedMapping> = mapping_suite(&torus, SUITE_SEED)
            .into_iter()
            .take(2)
            .collect();

        let first =
            run_cached_sweep_with(&config, &mappings, 1_500, 4_000, 2, &cache, None).unwrap();
        assert!(first.iter().all(|r| !r.cached));
        // Uncached reference, in input order: byte- and bit-level
        // agreement.
        assert_eq!(first.len(), mappings.len());
        for (r, named) in first.iter().zip(&mappings) {
            assert_eq!(r.name, named.name, "results must follow input order");
            assert_eq!(r.distance, named.distance);
            let reference = run_experiment(&config, &named.mapping, 1_500, 4_000).unwrap();
            assert_eq!(r.measured, reference);
        }

        // Exact repeat: served from cache, bit-identical payloads.
        let second =
            run_cached_sweep_with(&config, &mappings, 1_500, 4_000, 2, &cache, None).unwrap();
        assert!(second.iter().all(|r| r.cached));
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.measured, b.measured);
            assert_eq!(a.breakdown_json, b.breakdown_json);
        }

        // New window over the same warmup: a warm start (no fresh warmup
        // simulation), still bit-identical to the cold path.
        let warm =
            run_cached_sweep_with(&config, &mappings, 1_500, 2_500, 2, &cache, None).unwrap();
        assert_eq!(warm.len(), mappings.len());
        for (r, named) in warm.iter().zip(&mappings) {
            assert!(!r.cached);
            assert_eq!(r.name, named.name, "results must follow input order");
            let reference = run_experiment(&config, &named.mapping, 1_500, 2_500).unwrap();
            assert_eq!(r.measured, reference, "warm start must be bit-exact");
        }
        assert_eq!(cache.lock().unwrap().stats().warm_entries, 2);
    }

    #[test]
    fn protocol_streams_results_and_serves_repeats_from_cache() {
        let cache = Mutex::new(ScenarioCache::new(8, 4));
        let request = r#"{"op":"run","id":"r1","mapping":"identity","warmup":1500,"window":4000}"#;
        let input = format!("{request}\n{request}\n{{\"op\":\"shutdown\"}}\n");
        let mut output = Vec::new();
        let eof = handle_stream(input.as_bytes(), &mut output, 1, &cache).unwrap();
        assert!(!eof, "shutdown must stop the stream");

        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let results: Vec<&str> = lines
            .iter()
            .filter(|l| l.contains("\"event\":\"result\""))
            .copied()
            .collect();
        assert_eq!(results.len(), 2);
        assert!(results[0].contains("\"cached\":false"));
        assert!(results[1].contains("\"cached\":true"));
        // The measured payload (everything from `measurements` on) is
        // byte-identical between the cold run and the cache hit.
        let payload =
            |line: &str| line[line.find("\"measurements\"").expect("payload")..].to_string();
        assert_eq!(payload(results[0]), payload(results[1]));
        // Every line is parseable JSON with finite numbers throughout.
        for line in &lines {
            let doc = Json::parse(line).expect("well-formed event");
            fn all_finite(v: &Json) {
                match v {
                    Json::Number(n) => assert!(n.is_finite(), "non-finite streamed field"),
                    Json::Object(fields) => fields.iter().for_each(|(_, v)| all_finite(v)),
                    Json::Array(items) => items.iter().for_each(all_finite),
                    _ => {}
                }
            }
            all_finite(&doc);
        }
        // The final done event reports the cache traffic.
        let done = lines
            .iter()
            .rfind(|l| l.contains("\"event\":\"done\"") && l.contains("\"hits\""))
            .expect("done event with stats");
        assert!(done.contains("\"hits\":1"), "one repeat must hit: {done}");
    }

    #[test]
    fn protocol_reports_bad_requests_without_dying() {
        let cache = Mutex::new(ScenarioCache::new(4, 2));
        let input = concat!(
            "{\"op\":\"run\",\"mapping\":\"no-such-mapping\",\"warmup\":100,\"window\":100}\n",
            "not json at all\n",
            "{\"op\":\"frobnicate\"}\n",
            // Out-of-range scenario fields, each of which once panicked.
            "{\"op\":\"run\",\"mapping\":\"identity\",\"radix\":0}\n",
            "{\"op\":\"run\",\"mapping\":\"identity\",\"dims\":0}\n",
            "{\"op\":\"run\",\"mapping\":\"identity\",\"contexts\":0}\n",
            "{\"op\":\"run\",\"mapping\":\"identity\",\"clock_ratio\":0}\n",
            "{\"op\":\"run\",\"mapping\":\"identity\",\"work\":0}\n",
            "{\"op\":\"run\",\"mapping\":\"identity\",\"dims\":64,\"radix\":2}\n",
            "{\"op\":\"run\",\"mapping\":\"identity\",\"topology\":\"mesh\",\"radix\":1}\n",
            // Fields past `u32`, which once wrapped to a valid scenario.
            "{\"op\":\"run\",\"mapping\":\"identity\",\"dims\":4294967298,\"warmup\":100,\"window\":100}\n",
            "{\"op\":\"run\",\"mapping\":\"identity\",\"switch_cycles\":4294967307,\"warmup\":100,\"window\":100}\n",
            "{\"op\":\"run\",\"mapping\":\"identity\",\"work\":4294967306,\"warmup\":100,\"window\":100}\n",
            "{\"op\":\"run\",\"mapping\":\"identity\",\"clock_ratio\":4294967298}\n",
            // Machines too large to allocate, which once aborted the daemon.
            "{\"op\":\"run\",\"id\":\"x\",\"mapping\":\"identity\",\"dims\":31,\"radix\":2,\"warmup\":10,\"window\":10}\n",
            "{\"op\":\"run\",\"mapping\":\"identity\",\"topology\":\"dragonfly:2000,2000\"}\n",
            "{\"op\":\"run\",\"mapping\":\"identity\",\"contexts\":4294967295}\n",
            "{\"op\":\"stats\"}\n",
        );
        let mut output = Vec::new();
        let eof = handle_stream(input.as_bytes(), &mut output, 1, &cache).unwrap();
        assert!(eof, "EOF (not shutdown) ends the stream");
        let text = String::from_utf8(output).unwrap();
        let events: Vec<&str> = text.lines().collect();
        assert_eq!(events.len(), 18, "one event per request: {text}");
        for (line, field) in events[..17].iter().zip([
            "",
            "",
            "",
            "radix",
            "dims",
            "contexts",
            "clock_ratio",
            "work",
            "dims",
            "radix",
            "dims",
            "switch_cycles",
            "work",
            "clock_ratio",
            "dims",
            "topology",
            "contexts",
        ]) {
            assert!(line.contains("\"event\":\"error\""), "{line}");
            assert!(line.contains(field), "error must name `{field}`: {line}");
        }
        assert!(
            events[17].contains("\"event\":\"stats\""),
            "daemon must survive: {text}"
        );
    }

    /// Splits a daemon's output into one reply per request line: the
    /// events up to and including its one terminal event (`done`,
    /// `error` or `stats`). Every event must be well-formed JSON, and no
    /// event may follow the last terminal one.
    fn replies(output: &[u8]) -> Vec<Vec<String>> {
        let text = String::from_utf8(output.to_vec()).unwrap();
        let mut out = Vec::new();
        let mut current = Vec::new();
        for line in text.lines() {
            let doc = Json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            let event = doc.field("event").unwrap().expect("event");
            current.push(line.to_string());
            if matches!(
                event.as_string().unwrap().as_str(),
                "done" | "error" | "stats"
            ) {
                out.push(std::mem::take(&mut current));
            }
        }
        assert!(current.is_empty(), "unterminated reply: {current:?}");
        out
    }

    #[test]
    fn protocol_answers_every_cube_radix() {
        // Bit reversal needs a power-of-two radix and scaling by 3 a
        // radix 3 does not divide; these shapes once killed the daemon.
        let cache = Mutex::new(ScenarioCache::new(64, 4));
        let cases = [
            (
                r#"{"op":"run","mapping":"identity","radix":3,"warmup":10,"window":10}"#,
                "",
            ),
            (
                r#"{"op":"run","mapping":"scale3-x","radix":3,"warmup":10,"window":10}"#,
                "scale3-x",
            ),
            (r#"{"op":"sweep","radix":3,"warmup":10,"window":10}"#, ""),
            (
                r#"{"op":"run","mapping":"scale3-x","radix":5,"warmup":10,"window":10}"#,
                "",
            ),
            (
                r#"{"op":"run","mapping":"bitrev","radix":5,"warmup":10,"window":10}"#,
                "bitrev",
            ),
            (r#"{"op":"sweep","radix":5,"warmup":10,"window":10}"#, ""),
            (
                r#"{"op":"run","mapping":"identity","radix":6,"warmup":10,"window":10}"#,
                "",
            ),
            (
                r#"{"op":"run","mapping":"worst","radix":6,"warmup":10,"window":10}"#,
                "",
            ),
            (
                r#"{"op":"run","mapping":"scale3-xy","radix":6,"warmup":10,"window":10}"#,
                "scale3-xy",
            ),
            (
                r#"{"op":"sweep","mappings":["identity","bitrev"],"radix":6,"warmup":10,"window":10}"#,
                "bitrev",
            ),
            (r#"{"op":"sweep","radix":6,"warmup":10,"window":10}"#, ""),
        ];
        let mut input: String = cases.iter().map(|(line, _)| format!("{line}\n")).collect();
        input.push_str("{\"op\":\"stats\"}\n");
        let mut output = Vec::new();
        assert!(handle_stream(input.as_bytes(), &mut output, 1, &cache).unwrap());
        let replies = replies(&output);
        assert_eq!(replies.len(), cases.len() + 1);
        for ((request, missing), reply) in cases.iter().zip(&replies) {
            let last = reply.last().unwrap();
            if missing.is_empty() {
                assert!(last.contains("\"event\":\"done\""), "{request}: {last}");
                let results = reply.iter().filter(|l| l.contains("\"event\":\"result\""));
                assert!(results.count() >= 1, "{request}: {reply:?}");
            } else {
                assert_eq!(reply.len(), 1, "{request}: nothing is built or run");
                assert!(last.contains("\"event\":\"error\""), "{request}: {last}");
                assert!(
                    last.contains(missing),
                    "error must name `{missing}`: {last}"
                );
            }
        }
        // The whole-suite sweeps return the mappings each radix holds.
        for (reply, results) in [(&replies[2], 7), (&replies[5], 9), (&replies[10], 7)] {
            let count = reply
                .iter()
                .filter(|l| l.contains("\"event\":\"result\""))
                .count();
            assert_eq!(count, results, "{reply:?}");
        }
        assert!(replies[cases.len()][0].contains("\"event\":\"stats\""));
    }

    #[test]
    fn seeded_request_fuzz_never_kills_the_daemon() {
        // Seeded request lines over every family and small shapes, with
        // mapping names from the family's list plus a bogus one: each line
        // must end in exactly one `done` or `error`, and the stream must
        // still answer `stats` after them.
        let mut rng = DetRng::new(0x5E4E);
        let cube_names = suite_names(&Topology::cube(2, 8));
        let fabric_names = suite_names(&Topology::mesh(4, 4));
        let mut lines = Vec::new();
        for _ in 0..50 {
            let (shape, names) = match rng.index(4) {
                0 | 1 => (
                    format!(
                        r#""dims":{},"radix":{}"#,
                        1 + rng.index(3),
                        2 + rng.index(8)
                    ),
                    &cube_names,
                ),
                2 => (
                    format!(r#""topology":"mesh","radix":{}"#, 2 + rng.index(6)),
                    &fabric_names,
                ),
                _ if rng.chance(0.5) => (
                    format!(
                        r#""topology":"fattree:{},{}""#,
                        2 + rng.index(3),
                        1 + rng.index(3)
                    ),
                    &fabric_names,
                ),
                _ => (
                    format!(
                        r#""topology":"dragonfly:{},{}""#,
                        2 + rng.index(3),
                        1 + rng.index(3)
                    ),
                    &fabric_names,
                ),
            };
            let pick = |rng: &mut DetRng| {
                let i = rng.index(names.len() + 1);
                names.get(i).copied().unwrap_or("no-such-mapping")
            };
            let mapping = if rng.chance(0.5) {
                format!(r#""op":"run","mapping":"{}""#, pick(&mut rng))
            } else if rng.chance(0.5) {
                r#""op":"sweep""#.to_string()
            } else {
                let picked: Vec<String> = (0..1 + rng.index(3))
                    .map(|_| format!("\"{}\"", pick(&mut rng)))
                    .collect();
                format!(r#""op":"sweep","mappings":[{}]"#, picked.join(","))
            };
            lines.push(format!(
                r#"{{{mapping},{shape},"seed":{},"warmup":{},"window":{}}}"#,
                rng.index(1000),
                rng.index(51),
                1 + rng.index(50)
            ));
        }
        let cache = Mutex::new(ScenarioCache::new(16, 4));
        let mut input: String = lines.iter().map(|line| format!("{line}\n")).collect();
        input.push_str("{\"op\":\"stats\"}\n");
        let mut output = Vec::new();
        assert!(handle_stream(input.as_bytes(), &mut output, 1, &cache).unwrap());
        let replies = replies(&output);
        assert_eq!(replies.len(), lines.len() + 1, "one reply per line");
        for (line, reply) in lines.iter().zip(&replies) {
            let last = reply.last().unwrap();
            assert!(
                last.contains("\"event\":\"done\"") || last.contains("\"event\":\"error\""),
                "{line}: {last}"
            );
        }
        let answered = replies
            .iter()
            .filter(|r| r.last().unwrap().contains("\"event\":\"done\""));
        assert!(
            answered.count() > lines.len() / 2,
            "most lines must run: {replies:?}"
        );
        assert!(replies[lines.len()][0].contains("\"event\":\"stats\""));
    }
}
