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
//! * **Result cache**: a bounded LRU of measured results, each stored
//!   with its `result` event's `"measurements":…,"breakdown":…` JSON,
//!   rendered once when it was measured. A repeated scenario returns the
//!   stored [`Measurements`] and latency-breakdown JSON bit-identically,
//!   without simulating or formatting a number.
//! * **Warm-start cache**: a bounded LRU of post-warmup
//!   [`MachineSnapshot`]s keyed by the scenario-minus-window prefix.
//!   Re-measuring a warmed machine under a new window restores the
//!   snapshot and runs only the window; determinism makes the result
//!   bit-identical to the cold path.
//! * **Mapping cache**: the daemon resolves every mapping name, a
//!   sweep's whole suite included, through a third LRU keyed by topology,
//!   seed and name and bounded like the warm store, so each mapping (the
//!   `worst` hill climb too) is built once per daemon.
//! * **A JSON-lines protocol** ([`serve`]): requests in, streamed
//!   `accepted`/`progress`/`result`/`done` events out, over
//!   stdin/stdout, a Unix socket, or TCP. A request's fields are the
//!   scenario keys ([`Scenario::parse`]) plus `op` and `id`. Misses are
//!   batched through [`parallel_map`] under the shared process
//!   [`crate::set_job_budget`] job budget. A connection's events are
//!   buffered and sent when the request ends, before the daemon
//!   simulates, and after each simulated scenario's progress event: a
//!   cache hit's whole reply is one write.
//!
//! The suite and conformance drivers ([`crate::conformance`], `commloc
//! suite`) route through [`Scenario::sweep`], so a daemon, a CLI sweep,
//! and a conformance gate all hit the same cache.

use crate::conformance::{REDUCED_WARMUP, REDUCED_WINDOW};
use crate::error::SimError;
use crate::json::{json_string, Json};
use crate::machine::{Machine, MachineSnapshot, Measurements, SimConfig};
use crate::mapping::{Mapping, NamedMapping};
use crate::parallel::{default_jobs, parallel_map};
use crate::scenario::{Defaults, Field, Scenario, SCENARIO_KEYS};
use crate::workload::fnv1a;
use commloc_net::Topology;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Default bound on stored results.
const DEFAULT_CACHE_CAPACITY: usize = 256;
/// Default bound on stored warm-start snapshots (each holds a whole
/// machine, so this is kept far smaller than the result bound), and on
/// stored mappings.
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
    /// Maximum cached warm-start snapshots, and resolved mappings.
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
    /// and the same cube spelled via an explicit `Topology` alias — and
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
    /// Stored resolved mappings.
    pub mapping_entries: usize,
}

/// A bounded LRU map from a 64-bit hash to a value stored with its full
/// canonical key, which every lookup compares. A bound of 0 stores
/// nothing.
#[derive(Debug)]
struct Lru<T> {
    capacity: usize,
    entries: HashMap<u64, (String, T)>,
    recency: VecDeque<u64>,
}

impl<T: Clone> Lru<T> {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            entries: HashMap::new(),
            recency: VecDeque::new(),
        }
    }

    /// Applies a new bound, evicting least-recently-used entries.
    fn resize(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.entries.len() > self.capacity {
            let Some(old) = self.recency.pop_front() else {
                break;
            };
            self.entries.remove(&old);
        }
    }

    fn touch(&mut self, hash: u64) {
        self.recency.retain(|&h| h != hash);
        self.recency.push_back(hash);
    }

    /// The value stored for `canonical`; `Err(())` when its hash holds
    /// another key (a collision, never served).
    fn get(&mut self, hash: u64, canonical: &str) -> Result<Option<T>, ()> {
        let value = match self.entries.get(&hash) {
            Some((stored, value)) if stored == canonical => value.clone(),
            Some(_) => return Err(()),
            None => return Ok(None),
        };
        self.touch(hash);
        Ok(Some(value))
    }

    fn insert(&mut self, hash: u64, canonical: &str, value: T) {
        if self.capacity == 0 {
            return;
        }
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&hash) {
            if let Some(old) = self.recency.pop_front() {
                self.entries.remove(&old);
            }
        }
        self.entries.insert(hash, (canonical.to_owned(), value));
        self.touch(hash);
    }
}

/// A measured result as the cache stores it: the measurements, and the
/// `"measurements":…,"breakdown":…` tail of its `result` event, rendered
/// once when the result is made.
#[derive(Debug)]
pub(crate) struct StoredResult {
    measured: Measurements,
    payload: String,
    /// Where the breakdown JSON starts in `payload`.
    breakdown_at: usize,
}

impl StoredResult {
    fn new(measured: Measurements, breakdown_json: &str) -> Self {
        let mut payload = format!(
            "\"measurements\":{},\"breakdown\":",
            measurements_json(&measured)
        );
        let breakdown_at = payload.len();
        payload.push_str(breakdown_json);
        Self {
            measured,
            payload,
            breakdown_at,
        }
    }

    fn breakdown_json(&self) -> &str {
        &self.payload[self.breakdown_at..]
    }
}

/// A mapping resolved by name for one topology and seed, with the
/// `"name":…` and `"distance":…` fields of its events rendered once.
#[derive(Debug)]
pub(crate) struct ResolvedMapping {
    named: NamedMapping,
    /// `"name":…` as JSON.
    name_field: String,
    /// `"name":…,"distance":…` as JSON.
    fields: String,
}

impl ResolvedMapping {
    fn new(named: NamedMapping) -> Self {
        let name_field = format!("\"name\":{}", json_string(&named.name));
        let fields = format!("{name_field},\"distance\":{:?}", named.distance);
        Self {
            named,
            name_field,
            fields,
        }
    }
}

/// The bounded LRU store behind every cached driver: results with their
/// rendered payloads; post-warmup snapshots keyed by the
/// scenario-minus-window prefix; and the mappings the daemon resolved by
/// name, keyed by topology, seed and name and bounded like the snapshots
/// (a snapshot holds a whole machine, a mapping one word per node).
#[derive(Debug)]
pub(crate) struct ScenarioCache {
    results: Lru<Arc<StoredResult>>,
    warm: Lru<Arc<MachineSnapshot>>,
    mappings: Lru<Arc<ResolvedMapping>>,
    hits: u64,
    misses: u64,
    collisions: u64,
}

impl ScenarioCache {
    pub(crate) fn new(capacity: usize, warm_capacity: usize) -> Self {
        Self {
            results: Lru::new(capacity),
            warm: Lru::new(warm_capacity),
            mappings: Lru::new(warm_capacity),
            hits: 0,
            misses: 0,
            collisions: 0,
        }
    }

    /// Applies new bounds, evicting least-recently-used entries if the
    /// store is now over-size. Counters are preserved.
    fn configure(&mut self, capacity: usize, warm_capacity: usize) {
        self.results.resize(capacity);
        self.warm.resize(warm_capacity);
        self.mappings.resize(warm_capacity);
    }

    /// The stored result of `key`, counted as a hit or a miss. Same 64-bit
    /// hash, different scenario is a collision: the stored full key
    /// caught it, and it counts as a miss, never serving the wrong result.
    fn lookup(&mut self, key: &ScenarioKey) -> Option<Arc<StoredResult>> {
        let found = self.results.get(key.hash, &key.canonical);
        self.collisions += u64::from(found.is_err());
        let found = found.unwrap_or(None);
        match found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
    }

    /// Stores `measured` under `key` with its rendered payload, which is
    /// returned whether or not the bound let it be kept.
    fn insert(
        &mut self,
        key: &ScenarioKey,
        measured: Measurements,
        breakdown_json: &str,
    ) -> Arc<StoredResult> {
        let stored = Arc::new(StoredResult::new(measured, breakdown_json));
        self.results
            .insert(key.hash, &key.canonical, Arc::clone(&stored));
        stored
    }

    fn warm_lookup(&mut self, key: &ScenarioKey) -> Option<Arc<MachineSnapshot>> {
        self.warm
            .get(key.warm_hash, key.warm_canonical())
            .unwrap_or(None)
    }

    /// Stores a snapshot of the freshly warmed `machine` under `key`;
    /// with a warm bound of 0 not even the snapshot is taken.
    fn warm_insert(&mut self, key: &ScenarioKey, machine: &Machine) {
        if self.warm.capacity > 0 {
            let snapshot = Arc::new(machine.snapshot());
            self.warm
                .insert(key.warm_hash, key.warm_canonical(), snapshot);
        }
    }

    /// The mapping `name` of `scenario` on `topology` (its resolved
    /// topology), built through [`Scenario::mapping`] only when no entry
    /// holds it. A hash collision builds it too, and is not counted: it
    /// costs a build, never a wrong mapping.
    fn mapping(
        &mut self,
        scenario: &Scenario,
        topology: &Topology,
        name: &str,
    ) -> Result<Arc<ResolvedMapping>, String> {
        let canonical = format!(
            "topo={};seed={};mapping={name}",
            topology.canonical(),
            scenario.seed
        );
        let hash = fnv1a(canonical.as_bytes());
        if let Ok(Some(resolved)) = self.mappings.get(hash, &canonical) {
            return Ok(resolved);
        }
        let resolved = Arc::new(ResolvedMapping::new(scenario.mapping(name)?));
        self.mappings
            .insert(hash, &canonical, Arc::clone(&resolved));
        Ok(resolved)
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            collisions: self.collisions,
            entries: self.results.entries.len(),
            warm_entries: self.warm.entries.len(),
            mapping_entries: self.mappings.entries.len(),
        }
    }
}

/// The process-wide cache shared by the daemon, `commloc suite`, and the
/// conformance drivers.
pub(crate) fn global_cache() -> &'static Mutex<ScenarioCache> {
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

/// A sweep's progress as it goes: [`Progress::Simulating`] once before
/// its first miss runs (after every hit's `Done`), and `Done` as each
/// scenario's result is ready.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Progress {
    /// The sweep is about to simulate its misses.
    Simulating,
    /// Input `index`'s result is ready; `cached` when it was a hit.
    Done { index: usize, cached: bool },
}

/// A sweep's progress callback; sweep workers invoke it concurrently, so
/// it must be `Sync`.
type ProgressFn<'a> = &'a (dyn Fn(Progress) + Sync);

/// [`Scenario::sweep`] against an explicit cache, with an optional
/// progress callback — the daemon streams events from it — returning
/// each input's stored result and whether it was a hit. A miss restores
/// the warm snapshot of its key's warmed machine if one is stored, and
/// stores one otherwise.
fn sweep_stored(
    scenario: &Scenario,
    mappings: &[&NamedMapping],
    cache: &Mutex<ScenarioCache>,
    progress: Option<ProgressFn<'_>>,
) -> Result<Vec<(Arc<StoredResult>, bool)>, SimError> {
    let keys: Vec<ScenarioKey> = mappings.iter().map(|m| scenario.key(&m.mapping)).collect();
    let hits: Vec<Option<Arc<StoredResult>>> = {
        let mut store = lock(cache);
        keys.iter().map(|key| store.lookup(key)).collect()
    };
    let misses: Vec<usize> = (0..keys.len()).filter(|&i| hits[i].is_none()).collect();
    if let Some(callback) = progress {
        for i in (0..keys.len()).filter(|&i| hits[i].is_some()) {
            callback(Progress::Done {
                index: i,
                cached: true,
            });
        }
        if !misses.is_empty() {
            callback(Progress::Simulating);
        }
    }
    let computed = parallel_map(&misses, scenario.jobs, |&i| {
        let key = &keys[i];
        let warm = lock(cache).warm_lookup(key);
        let machine = scenario.run_from(&mappings[i].mapping, warm.as_deref(), |machine| {
            lock(cache).warm_insert(key, machine);
        })?;
        let (measured, breakdown_json) = (machine.measure(), machine.latency_breakdown().to_json());
        // Freed before the payload is rendered, so the allocator sorts the
        // machine's thousands of freed blocks during this miss rather than
        // on the next request's first allocations (a hit right after a
        // warm request took ~150 µs longer in its request parse).
        drop(machine);
        let stored = lock(cache).insert(key, measured, &breakdown_json);
        if let Some(callback) = progress {
            callback(Progress::Done {
                index: i,
                cached: false,
            });
        }
        Ok::<_, SimError>(stored)
    });
    let mut computed = computed.into_iter();
    let result = |hit: Option<Arc<StoredResult>>| match hit {
        Some(stored) => Ok((stored, true)),
        None => Ok((computed.next().expect("one run per miss")?, false)),
    };
    hits.into_iter().map(result).collect()
}

/// [`sweep_stored`] over named mappings, as [`ScenarioResult`]s.
pub(crate) fn run_cached_sweep_with(
    scenario: &Scenario,
    mappings: &[NamedMapping],
    cache: &Mutex<ScenarioCache>,
) -> Result<Vec<ScenarioResult>, SimError> {
    let named: Vec<&NamedMapping> = mappings.iter().collect();
    let stored = sweep_stored(scenario, &named, cache, None)?;
    let results = mappings.iter().zip(stored);
    let result =
        |(named, (stored, cached)): (&NamedMapping, (Arc<StoredResult>, bool))| ScenarioResult {
            name: named.name.clone(),
            distance: named.distance,
            measured: stored.measured,
            breakdown_json: stored.breakdown_json().to_owned(),
            cached,
        };
    Ok(results.map(result).collect())
}

/// [`Scenario::sweep`] of a one-shard scenario of `config` over `warmup`
/// then `window` cycles, fanning misses across `jobs` threads (under the
/// shared job budget) — repeated scenarios are served from the cache
/// without simulating.
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
    Scenario {
        jobs,
        ..Scenario::new(config.clone(), warmup, window)
    }
    .sweep(mappings)
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

/// A parsed daemon request; `id` is the `"id":...,` segment every event
/// of the request carries (empty without an `id`).
#[derive(Debug)]
struct Request {
    op: String,
    id: String,
    scenario: Scenario,
}

/// The keys a request carries besides the scenario keys.
const PROTOCOL_KEYS: [&str; 2] = ["op", "id"];

/// Parses one request line. A `run` follows a single run's shard and job
/// rules, every other op a sweep's, whose jobs default to the daemon's
/// `jobs`; scenario fields default to the paper's architecture and the
/// reduced conformance windows.
fn parse_request(line: &str, jobs: usize) -> Result<Request, String> {
    let doc = Json::parse(line)?;
    let mut fields = Vec::new();
    for (key, value) in doc.as_object()? {
        if SCENARIO_KEYS.contains(&key.as_str()) {
            fields.push((key.as_str(), Field::Json(value)));
        } else if !PROTOCOL_KEYS.contains(&key.as_str()) {
            return Err(format!(
                "unknown key `{key}` (known keys: {}, {})",
                PROTOCOL_KEYS.join(", "),
                SCENARIO_KEYS.join(", ")
            ));
        }
    }
    let get = |name: &str| doc.field(name).expect("checked object");
    let op = match get("op") {
        Some(v) => v.as_string()?,
        None => return Err("missing `op` (run, sweep, stats, shutdown)".into()),
    };
    let id = get("id").map(Json::as_string).transpose()?;
    let id = id.map_or(String::new(), |id| format!("\"id\":{},", json_string(&id)));
    let defaults = Defaults {
        warmup: REDUCED_WARMUP,
        window: REDUCED_WINDOW,
        sweep_jobs: (op != "run").then_some(jobs),
    };
    let scenario = Scenario::parse(&fields, defaults)?;
    Ok(Request { op, id, scenario })
}

/// The result-cache counters a `done` event carries; a `stats` event
/// adds the mapping entries after them.
fn stats_json(stats: &CacheStats) -> String {
    format!(
        "\"hits\":{},\"misses\":{},\"collisions\":{},\"entries\":{},\"warm_entries\":{}",
        stats.hits, stats.misses, stats.collisions, stats.entries, stats.warm_entries,
    )
}

/// Room for a whole-suite sweep's reply, so that even a sweep of hits
/// leaves in one write.
const REPLY_BUFFER: usize = 64 * 1024;

/// One connection's event stream. Events are buffered, and leave when
/// the request ends, before the daemon simulates, and as each simulated
/// scenario's progress is reported; so a reply served from the cache is
/// one write.
type Events<W> = Mutex<BufWriter<W>>;

/// Buffers one event line (locking the shared writer; the daemon streams
/// from worker threads).
fn emit<W: Write>(events: &Events<W>, line: std::fmt::Arguments<'_>) -> Result<(), String> {
    let mut w = events.lock().unwrap_or_else(PoisonError::into_inner);
    writeln!(w, "{line}").map_err(|e| format!("write: {e}"))
}

/// Sends the buffered events to the client.
fn flush<W: Write>(events: &Events<W>) -> Result<(), String> {
    let mut w = events.lock().unwrap_or_else(PoisonError::into_inner);
    w.flush().map_err(|e| format!("write: {e}"))
}

/// Handles one request line. `Ok(false)` means a clean shutdown request;
/// a bad request is answered with an `error` event.
fn handle_request<W: Write + Send>(
    line: &str,
    events: &Events<W>,
    jobs: usize,
    cache: &Mutex<ScenarioCache>,
) -> Result<bool, String> {
    let mut id = String::new();
    respond(line, events, jobs, cache, &mut id).or_else(|message| {
        let message = json_string(&message);
        emit(
            events,
            format_args!("{{\"event\":\"error\",{id}\"message\":{message}}}"),
        )
        .map(|()| true)
    })
}

/// Resolves every mapping `scenario` names, in order, or its topology's
/// whole suite, through the cache's mapping entries.
fn resolve_mappings(
    scenario: &Scenario,
    cache: &Mutex<ScenarioCache>,
) -> Result<Vec<Arc<ResolvedMapping>>, String> {
    let topology = scenario.config.resolved_topology();
    scenario.resolve_mappings(
        |name| lock(cache).mapping(scenario, &topology, name),
        |resolved| resolved.named.distance,
    )
}

/// Answers one request, buffering its events and leaving its `id`
/// segment in `id`; `Err` carries the message of its `error` event.
fn respond<W: Write + Send>(
    line: &str,
    events: &Events<W>,
    jobs: usize,
    cache: &Mutex<ScenarioCache>,
    id: &mut String,
) -> Result<bool, String> {
    let request = parse_request(line, jobs)?;
    *id = request.id;
    let id = id.as_str();
    let op = request.op.as_str();
    match op {
        "stats" => {
            let stats = lock(cache).stats();
            let (counters, mappings) = (stats_json(&stats), stats.mapping_entries);
            emit(
                events,
                format_args!(
                    "{{\"event\":\"stats\",{id}{counters},\"mapping_entries\":{mappings}}}"
                ),
            )
            .map(|()| true)
        }
        "shutdown" => emit(
            events,
            format_args!("{{\"event\":\"done\",{id}\"op\":\"shutdown\"}}"),
        )
        .map(|()| false),
        "run" | "sweep" => {
            let mappings = resolve_mappings(&request.scenario, cache)?;
            let total = mappings.len();
            emit(
                events,
                format_args!(
                    "{{\"event\":\"accepted\",{id}\"op\":\"{op}\",\"scenarios\":{total}}}"
                ),
            )?;
            let done = std::sync::atomic::AtomicUsize::new(0);
            // Send errors here resurface at the request's final flush.
            let progress = |event: Progress| match event {
                Progress::Simulating => {
                    let _ = flush(events);
                }
                Progress::Done { index, cached } => {
                    let completed = 1 + done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let name = &mappings[index].name_field;
                    let _ = emit(
                        events,
                        format_args!(
                            "{{\"event\":\"progress\",{id}\"completed\":{completed},\
                             \"total\":{total},{name},\"cached\":{cached}}}"
                        ),
                    );
                    if !cached {
                        let _ = flush(events);
                    }
                }
            };
            let named: Vec<&NamedMapping> = mappings.iter().map(|m| &m.named).collect();
            let stored = sweep_stored(&request.scenario, &named, cache, Some(&progress))
                .map_err(|e| e.to_string())?;
            for (mapping, (stored, cached)) in mappings.iter().zip(&stored) {
                emit(
                    events,
                    format_args!(
                        "{{\"event\":\"result\",{id}{},\"cached\":{cached},{}}}",
                        mapping.fields, stored.payload,
                    ),
                )?;
            }
            let stats = stats_json(&lock(cache).stats());
            emit(
                events,
                format_args!(
                    "{{\"event\":\"done\",{id}\"op\":\"{op}\",\"scenarios\":{total},{stats}}}"
                ),
            )
            .map(|()| true)
        }
        other => Err(format!(
            "unknown op `{other}` (run, sweep, stats, shutdown)"
        )),
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
    let events = Mutex::new(BufWriter::with_capacity(REPLY_BUFFER, writer));
    // Bytes, not `lines()`: a line that is not UTF-8 gets an `error` event
    // from the JSON parser instead of ending the connection.
    for line in reader.split(b'\n') {
        let line = line.map_err(|e| format!("read: {e}"))?;
        let line = String::from_utf8_lossy(&line);
        if line.trim().is_empty() {
            continue;
        }
        let more = handle_request(line.trim(), &events, jobs, cache)?;
        flush(&events)?;
        if !more {
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
            let served = serve_connections(listener.incoming(), |s| s.try_clone(), options, cache);
            let _ = std::fs::remove_file(path);
            served
        }
        (None, Some(addr)) => {
            let listener =
                std::net::TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
            serve_connections(listener.incoming(), |s| s.try_clone(), options, cache)
        }
        (None, None) => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            handle_stream(stdin.lock(), stdout, options.jobs, cache).map(|_| ())
        }
    }
}

/// Serves accepted connections one at a time until one asks to shut down.
fn serve_connections<S: std::io::Read + Write + Send>(
    incoming: impl Iterator<Item = std::io::Result<S>>,
    try_clone: impl Fn(&S) -> std::io::Result<S>,
    options: &ServeOptions,
    cache: &Mutex<ScenarioCache>,
) -> Result<(), String> {
    for stream in incoming {
        let stream = stream.map_err(|e| format!("accept: {e}"))?;
        let reader = BufReader::new(try_clone(&stream).map_err(|e| format!("clone: {e}"))?);
        if !handle_stream(reader, stream, options.jobs, cache)? {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::SUITE_SEED;
    use crate::machine::Machine;
    use crate::mapping::{mapping_suite, suite_names};
    use crate::workload::Workload;
    use commloc_net::{DetRng, FaultPlan, Topology, Torus};

    /// One cold run of `mapping`, outside any cache.
    fn measure(config: &SimConfig, mapping: &Mapping, warmup: u64, window: u64) -> Measurements {
        let scenario = Scenario::new(config.clone(), warmup, window);
        scenario.run(mapping).expect("fault-free run").measure()
    }

    /// A key with a forged hash, for exercising the collision-verification
    /// path (real FNV collisions are impractical to construct in a unit
    /// test).
    fn forged(hash: u64, canonical: &str) -> ScenarioKey {
        ScenarioKey {
            hash,
            warm_hash: hash,
            canonical: canonical.to_string(),
            warm_len: canonical.len(),
        }
    }

    /// A sweep scenario of `config` on `jobs` workers.
    fn sweep(config: &SimConfig, warmup: u64, window: u64, jobs: usize) -> Scenario {
        Scenario {
            jobs,
            ..Scenario::new(config.clone(), warmup, window)
        }
    }

    fn small_key(window: u64) -> ScenarioKey {
        ScenarioKey::new(&SimConfig::default(), &Mapping::identity(64), 1_000, window)
    }

    #[test]
    fn key_is_order_insensitive_and_default_invariant() {
        // One request spells nothing out; the other writes every default
        // explicitly, in scrambled key order. Same scenario, same key.
        let terse = parse_request(r#"{"op":"run","mapping":"identity"}"#, 1).unwrap();
        let explicit = parse_request(
            r#"{"window":18000,"dims":2,"mapping":"identity","radix":8,"op":"run",
               "warmup":6000,"clock_ratio":2,"contexts":1,"switch_cycles":11,
               "work":10,"watchdog":20000,"seed":1992}"#,
            1,
        )
        .unwrap();
        let mapping = Mapping::identity(64);
        let a = terse.scenario.key(&mapping);
        let b = explicit.scenario.key(&mapping);
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
        let err = parse_request(r#"{"op":"run","mapping":"identity","radiks":8}"#, 1).unwrap_err();
        assert!(err.contains("radiks"), "error must name the bad key: {err}");
        assert!(
            parse_request(r#"{"op":"run","mapping":"identity","drop_rate":1.5}"#, 1).is_err(),
            "out-of-range probability must be rejected"
        );
    }

    #[test]
    fn hash_collisions_are_verified_not_served() {
        let mut cache = ScenarioCache::new(8, 2);
        let real = small_key(4_000);
        let m = measure(&SimConfig::default(), &Mapping::identity(64), 500, 1_500);
        cache.insert(&real, m, "{}");
        // A forged key with the same hash but a different canonical
        // string: the full-key check refuses it.
        let impostor = forged(real.hash(), "something else entirely");
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
        let m = measure(&SimConfig::default(), &Mapping::identity(64), 500, 1_500);
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
        let cold = measure(&config, &mapping, 1_500, 4_000);
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
    fn a_sweep_once_keeps_nothing_and_measures_the_same() {
        // `commloc suite` sweeps once per process, through a cache bounded
        // at 0: no result and no warm snapshot (a whole machine per
        // mapping) is kept, and every result matches a cached sweep's.
        let config = SimConfig {
            radix: 4,
            ..SimConfig::default()
        };
        let mappings: Vec<NamedMapping> = mapping_suite(&Torus::new(2, 4), SUITE_SEED)
            .into_iter()
            .take(3)
            .collect();
        let scenario = sweep(&config, 500, 500, 2);
        let empty = Mutex::new(ScenarioCache::new(0, 0));
        let kept = Mutex::new(ScenarioCache::new(8, 4));
        let once = run_cached_sweep_with(&scenario, &mappings, &empty).unwrap();
        let cached = run_cached_sweep_with(&scenario, &mappings, &kept).unwrap();
        for (a, b) in once.iter().zip(&cached) {
            assert_eq!((&a.name, a.measured), (&b.name, b.measured));
            assert_eq!(a.breakdown_json, b.breakdown_json);
        }
        let (empty, kept) = (lock(&empty).stats(), lock(&kept).stats());
        assert_eq!((empty.entries, empty.warm_entries), (0, 0));
        assert_eq!((kept.entries, kept.warm_entries), (3, 3));
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

        let scenario = sweep(&config, 1_500, 4_000, 2);
        let first = run_cached_sweep_with(&scenario, &mappings, &cache).unwrap();
        assert!(first.iter().all(|r| !r.cached));
        // Uncached reference, in input order: byte- and bit-level
        // agreement.
        assert_eq!(first.len(), mappings.len());
        for (r, named) in first.iter().zip(&mappings) {
            assert_eq!(r.name, named.name, "results must follow input order");
            assert_eq!(r.distance, named.distance);
            let reference = measure(&config, &named.mapping, 1_500, 4_000);
            assert_eq!(r.measured, reference);
        }

        // Exact repeat: served from cache, bit-identical payloads.
        let second = run_cached_sweep_with(&scenario, &mappings, &cache).unwrap();
        assert!(second.iter().all(|r| r.cached));
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.measured, b.measured);
            assert_eq!(a.breakdown_json, b.breakdown_json);
        }

        // New window over the same warmup: a warm start (no fresh warmup
        // simulation), still bit-identical to the cold path.
        let shorter = sweep(&config, 1_500, 2_500, 2);
        let warm = run_cached_sweep_with(&shorter, &mappings, &cache).unwrap();
        assert_eq!(warm.len(), mappings.len());
        for (r, named) in warm.iter().zip(&mappings) {
            assert!(!r.cached);
            assert_eq!(r.name, named.name, "results must follow input order");
            let reference = measure(&config, &named.mapping, 1_500, 2_500);
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

    /// A client that records each `write` the daemon makes, with the
    /// number of warm snapshots the cache held when it came: a snapshot
    /// is stored as soon as a miss finishes its warmup.
    struct Recorder<'a> {
        cache: &'a Mutex<ScenarioCache>,
        writes: Vec<(String, usize)>,
    }

    impl<'a> Recorder<'a> {
        fn new(cache: &'a Mutex<ScenarioCache>) -> Self {
            Self {
                cache,
                writes: Vec::new(),
            }
        }

        /// Runs `input` through a connection that writes to this client.
        fn serve(&mut self, input: &str) {
            let cache = self.cache;
            handle_stream(input.as_bytes(), &mut *self, 1, cache).unwrap();
        }

        /// The events of write `i`, one per line.
        fn events(&self, i: usize) -> Vec<&str> {
            let text = &self.writes[i].0;
            assert!(text.ends_with('\n'), "a write ends on a line: {text:?}");
            text.lines().collect()
        }
    }

    impl Write for Recorder<'_> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let warm = lock(self.cache).stats().warm_entries;
            self.writes
                .push((String::from_utf8_lossy(buf).into_owned(), warm));
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_hot_request_reaches_the_client_in_one_write() {
        // Its accepted, progress, result and done events leave together;
        // sent line by line, with each newline apart, they took eight.
        let cache = Mutex::new(ScenarioCache::new(8, 4));
        let line = r#"{"op":"run","mapping":"scale3-x","warmup":200,"window":400}"#;
        let mut cold = Recorder::new(&cache);
        cold.serve(&format!("{line}\n"));
        let mut hot = Recorder::new(&cache);
        hot.serve(&format!("{line}\n"));
        assert_eq!(hot.writes.len(), 1, "{:?}", hot.writes);
        let events = hot.events(0);
        for (event, kind) in events
            .iter()
            .zip(["accepted", "progress", "result", "done"])
        {
            assert!(event.contains(&format!("\"event\":\"{kind}\"")), "{event}");
        }
        assert_eq!(events.len(), 4);
        assert!(events[2].contains("\"cached\":true"));
        // The hit carries the miss's bytes.
        let cold_text: String = cold.writes.iter().map(|(text, _)| text.as_str()).collect();
        let cold_result = cold_text
            .lines()
            .find(|l| l.contains("\"event\":\"result\""));
        let tail = |line: &str| line[line.find("\"measurements\"").unwrap()..].to_string();
        assert_eq!(tail(cold_result.unwrap()), tail(events[2]));
    }

    #[test]
    fn a_sweep_streams_its_progress_around_each_simulation() {
        // A sweep of misses sends `accepted` before it warms its first
        // machine, and each miss's progress before the next warms; a
        // sweep that mixes hits and misses sends its hits' progress with
        // `accepted`. The results and `done` leave together at the end.
        let cache = Mutex::new(ScenarioCache::new(8, 4));
        let sweep = |names: &str| {
            format!(r#"{{"op":"sweep","mappings":[{names}],"radix":4,"warmup":300,"window":300}}"#)
                + "\n"
        };
        let mut misses = Recorder::new(&cache);
        misses.serve(&sweep(r#""identity","random-1""#));
        let warm: Vec<usize> = misses.writes.iter().map(|&(_, warm)| warm).collect();
        assert_eq!(warm, [0, 1, 2, 2], "{:?}", misses.writes);
        assert!(misses.events(0)[0].contains("\"event\":\"accepted\""));
        for (i, name) in [(1, "identity"), (2, "random-1")] {
            let events = misses.events(i);
            assert_eq!(events.len(), 1);
            assert!(events[0].contains("\"event\":\"progress\""), "{events:?}");
            assert!(events[0].contains(&format!("\"name\":\"{name}\",\"cached\":false")));
        }
        assert_eq!(misses.events(3).len(), 3, "two results and done");

        let mut mixed = Recorder::new(&cache);
        mixed.serve(&sweep(r#""identity","swaps-8""#));
        let warm: Vec<usize> = mixed.writes.iter().map(|&(_, warm)| warm).collect();
        assert_eq!(warm, [2, 3, 3], "{:?}", mixed.writes);
        let first = mixed.events(0);
        assert_eq!(first.len(), 2, "{first:?}");
        assert!(first[1].contains("\"name\":\"identity\",\"cached\":true"));
        assert!(mixed.events(1)[0].contains("\"name\":\"swaps-8\",\"cached\":false"));
    }

    #[test]
    fn repeated_worst_runs_and_suite_sweeps_build_no_mapping() {
        let cache = Mutex::new(ScenarioCache::new(64, 16));
        let scenario = |line: &str| parse_request(line, 1).unwrap().scenario;
        let worst = scenario(r#"{"op":"run","mapping":"worst"}"#);
        let suite = scenario(r#"{"op":"sweep"}"#);
        let first_worst = resolve_mappings(&worst, &cache).unwrap();
        let first_suite = resolve_mappings(&suite, &cache).unwrap();
        // The suite's `worst` is the run's, and a repeat returns the very
        // mappings the first request built.
        assert!(first_suite.iter().any(|m| Arc::ptr_eq(m, &first_worst[0])));
        for (request, first) in [(&worst, &first_worst), (&suite, &first_suite)] {
            let again = resolve_mappings(request, &cache).unwrap();
            assert_eq!(again.len(), first.len());
            assert!(again.iter().zip(first).all(|(a, b)| Arc::ptr_eq(a, b)));
        }
        // In the uncached resolver's order, with its mappings and distances.
        let built = suite.named_mappings().unwrap();
        assert_eq!(built.len(), first_suite.len());
        for (resolved, named) in first_suite.iter().zip(&built) {
            assert_eq!(resolved.named.name, named.name);
            assert_eq!(resolved.named.mapping, named.mapping);
            assert_eq!(resolved.named.distance.to_bits(), named.distance.to_bits());
        }
        assert_eq!(lock(&cache).stats().mapping_entries, 10);

        // Through the daemon: repeats are hits, and `stats` reports the
        // mapping entries after the counters it always had. `worst` and
        // the suite's nine others miss once each; the repeated run, the
        // suite's `worst` and the repeated sweep's ten hit.
        let daemon = Mutex::new(ScenarioCache::new(64, 16));
        let run = r#"{"op":"run","mapping":"worst","warmup":10,"window":10}"#;
        let sweep = r#"{"op":"sweep","warmup":10,"window":10}"#;
        let input = format!("{run}\n{run}\n{sweep}\n{sweep}\n{{\"op\":\"stats\"}}\n");
        let mut output = Vec::new();
        assert!(handle_stream(input.as_bytes(), &mut output, 1, &daemon).unwrap());
        let replies = replies(&output);
        let stats = &replies[4][0];
        assert!(
            stats.ends_with(
                "\"hits\":12,\"misses\":10,\"collisions\":0,\"entries\":10,\
                 \"warm_entries\":10,\"mapping_entries\":10}"
            ),
            "{stats}"
        );
    }

    #[test]
    fn the_mapping_entries_follow_the_warm_bound() {
        let scenario = |name: &str| {
            let line = format!(r#"{{"op":"run","mapping":"{name}"}}"#);
            parse_request(&line, 1).unwrap().scenario
        };
        // Bound 0 stores nothing, so every request builds its mapping.
        let none = Mutex::new(ScenarioCache::new(8, 0));
        let a = resolve_mappings(&scenario("scale3-x"), &none).unwrap();
        let b = resolve_mappings(&scenario("scale3-x"), &none).unwrap();
        assert!(!Arc::ptr_eq(&a[0], &b[0]), "built again");
        assert_eq!(lock(&none).stats().mapping_entries, 0);
        // Bound 2 keeps the two most recently used.
        let two = Mutex::new(ScenarioCache::new(8, 2));
        for name in ["identity", "bitrev", "random", "bitrev"] {
            resolve_mappings(&scenario(name), &two).unwrap();
        }
        assert_eq!(lock(&two).stats().mapping_entries, 2);
        let stored = |name: &str| {
            let again = resolve_mappings(&scenario(name), &two).unwrap();
            let again_too = resolve_mappings(&scenario(name), &two).unwrap();
            Arc::ptr_eq(&again[0], &again_too[0])
        };
        assert!(stored("bitrev") && stored("random"));
    }

    #[test]
    fn protocol_reports_bad_requests_without_dying() {
        let cache = Mutex::new(ScenarioCache::new(4, 2));
        let mut input = String::from(concat!(
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
            // Run lengths that measured nothing, or wrapped the clock.
            "{\"op\":\"run\",\"mapping\":\"identity\",\"window\":0}\n",
            "{\"op\":\"run\",\"mapping\":\"identity\",\"warmup\":1,\"window\":18446744073709551615}\n",
        ));
        // Nesting that once overflowed the daemon's stack: a bare flood
        // of brackets, and a deep value inside a field.
        input.push_str(&"[".repeat(100_000));
        input.push('\n');
        input.push_str(&format!(
            "{{\"op\":\"run\",\"mapping\":\"identity\",\"id\":{}{}}}\n",
            "[".repeat(1_000),
            "]".repeat(1_000)
        ));
        input.push_str("{\"op\":\"stats\"}\n");
        let mut output = Vec::new();
        let eof = handle_stream(input.as_bytes(), &mut output, 1, &cache).unwrap();
        assert!(eof, "EOF (not shutdown) ends the stream");
        let text = String::from_utf8(output).unwrap();
        let events: Vec<&str> = text.lines().collect();
        assert_eq!(events.len(), 22, "one event per request: {text}");
        for (line, field) in events[..21].iter().zip([
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
            "window",
            "window",
            "64 levels",
            "64 levels",
        ]) {
            assert!(line.contains("\"event\":\"error\""), "{line}");
            assert!(line.contains(field), "error must name `{field}`: {line}");
        }
        assert!(
            events[21].contains("\"event\":\"stats\""),
            "daemon must survive: {text}"
        );
    }

    #[test]
    fn seeds_past_two_to_the_53_are_told_apart() {
        // 2^53 + 1 has no `f64`; read as one, it rounded to 2^53 and the
        // second request was served the first one's result.
        let cache = Mutex::new(ScenarioCache::new(8, 4));
        let line = |seed: u64| {
            format!(r#"{{"op":"run","mapping":"random-1","seed":{seed},"warmup":10,"window":10}}"#)
        };
        let input = format!("{}\n{}\n", line(1 << 53), line((1 << 53) + 1));
        let mut output = Vec::new();
        assert!(handle_stream(input.as_bytes(), &mut output, 1, &cache).unwrap());
        for reply in replies(&output) {
            let result = reply.iter().find(|l| l.contains("\"event\":\"result\""));
            assert!(
                result.is_some_and(|l| l.contains("\"cached\":false")),
                "{reply:?}"
            );
        }
        let stats = lock(&cache).stats();
        assert_eq!((stats.hits, stats.misses), (0, 2));
    }

    #[test]
    fn shards_and_jobs_never_enter_the_key() {
        // A four-shard run fills the cache; the one-shard repeat is a hit
        // with the same bytes, and a new window on the four-shard warm
        // snapshot, run as one shard, equals a cold one-shard run.
        let cache = Mutex::new(ScenarioCache::new(8, 4));
        let input = concat!(
            r#"{"op":"run","mapping":"identity","radix":4,"warmup":1500,"window":3000,"shards":4,"jobs":2}"#,
            "\n",
            r#"{"op":"run","mapping":"identity","radix":4,"warmup":1500,"window":3000}"#,
            "\n",
            r#"{"op":"sweep","mappings":["identity"],"radix":4,"warmup":1500,"window":2000,"jobs":1}"#,
            "\n",
        );
        let mut output = Vec::new();
        assert!(handle_stream(input.as_bytes(), &mut output, 2, &cache).unwrap());
        let results: Vec<String> = replies(&output)
            .into_iter()
            .map(|reply| {
                reply
                    .into_iter()
                    .find(|l| l.contains("\"result\""))
                    .unwrap()
            })
            .collect();
        let payload = |line: &str| line[line.find("\"measurements\"").unwrap()..].to_string();
        assert!(results[0].contains("\"cached\":false"));
        assert!(results[1].contains("\"cached\":true"));
        assert_eq!(payload(&results[0]), payload(&results[1]));
        let config = SimConfig {
            radix: 4,
            ..SimConfig::default()
        };
        let cold = measure(&config, &Mapping::identity(16), 1_500, 2_000);
        assert!(results[2].contains("\"cached\":false"));
        let measured = format!("\"measurements\":{},", measurements_json(&cold));
        assert!(results[2].contains(&measured), "{}", results[2]);
        let stats = lock(&cache).stats();
        assert_eq!((stats.hits, stats.misses, stats.warm_entries), (1, 2, 1));
    }

    #[test]
    fn maximal_stall_window_never_expires_and_never_panics() {
        // `cycle + 1 + stall_window` once overflowed: a debug build
        // panicked, and a release build wrapped the window so nothing
        // stayed stalled. Saturated, every rolled stall lasts forever.
        let cache = Mutex::new(ScenarioCache::new(4, 2));
        let run = |stall_window: u64| {
            let input = format!(
                "{{\"op\":\"run\",\"mapping\":\"identity\",\"dims\":2,\"radix\":4,\
                 \"stall_rate\":0.5,\"stall_window\":{stall_window},\"watchdog\":0,\
                 \"warmup\":200,\"window\":2000}}\n"
            );
            let mut output = Vec::new();
            handle_stream(input.as_bytes(), &mut output, 1, &cache).unwrap();
            let reply = replies(&output).pop().expect("one reply");
            let done = reply.last().unwrap();
            assert!(done.contains("\"event\":\"done\""), "{done}");
            reply
                .iter()
                .map(|event| Json::parse(event).unwrap())
                .find_map(|doc| {
                    let measured = doc.field("measurements").unwrap()?;
                    measured.field("message_rate").unwrap()?.as_number().ok()
                })
                .expect("a measured row")
        };
        assert_eq!(run(u64::MAX), run(1_000_000_000), "both stall for good");
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

    /// One drawn scenario field: its key and its value, rendered as JSON
    /// (a string value is quoted there and bare on the command line).
    type Drawn = (&'static str, String, bool);

    /// A seeded draw over every scenario key: shapes across the four
    /// families, fault fields, shards and jobs, and seeds, windows and
    /// other integers across `u64`, out-of-range values included.
    fn draw_fields(rng: &mut DetRng) -> Vec<Drawn> {
        const EDGES: [u64; 7] = [
            0,
            1,
            1 << 32,
            1 << 53,
            (1 << 53) + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        let int = |rng: &mut DetRng, lo: u64, hi: u64| {
            if rng.chance(0.03) {
                EDGES[rng.index(EDGES.len())].to_string()
            } else {
                rng.range_u64(lo, hi).to_string()
            }
        };
        let mut fields: Vec<Drawn> = Vec::new();
        let mut put = |rng: &mut DetRng, key, value: String, string: bool| {
            if rng.chance(0.6) {
                fields.push((key, value, string));
            }
        };
        let topology = match rng.index(9) {
            0 | 1 => "cube".to_string(),
            2 | 3 => "mesh".to_string(),
            4 | 5 => format!("fattree:{},{}", 2 + rng.index(3), 1 + rng.index(3)),
            6 | 7 => format!("dragonfly:{},{}", 2 + rng.index(3), 1 + rng.index(3)),
            _ => "hypercube".to_string(),
        };
        // A mesh is two-dimensional.
        let dims = if topology == "mesh" { (2, 3) } else { (1, 4) };
        put(rng, "topology", topology, true);
        for (key, lo, hi) in [
            ("dims", dims.0, dims.1),
            ("radix", 2, 7),
            ("contexts", 1, 3),
            ("clock_ratio", 1, 4),
            ("switch_cycles", 1, 20),
            ("work", 1, 20),
            ("watchdog", 0, 50_000),
            ("timeout_cycles", 0, 5_000),
            ("max_retries", 0, 12),
            ("fault_seed", 0, 100),
            ("stall_window", 1, 200),
            ("warmup", 0, 50_000),
            ("window", 0, 50_000),
            ("seed", 0, 5_000),
            ("shards", 1, 5),
            ("jobs", 1, 3),
        ] {
            let value = int(rng, lo, hi);
            put(rng, key, value, false);
        }
        for key in ["drop_rate", "corrupt_rate", "stall_rate"] {
            let value = format!("{:?}", rng.range_f64(-0.01, 1.02));
            put(rng, key, value, false);
        }
        let traffic =
            ["neighbor", "transpose", "hotspot:2", "storm"][rng.index(4).min(rng.index(4))];
        put(rng, "traffic", traffic.to_string(), true);
        let names = [
            "identity", "random", "random-2", "swaps-8", "swaps-17", "worst", "bitrev",
        ];
        let name = |rng: &mut DetRng| match rng.index(16) {
            0 => "no-such".to_string(),
            i => names[i % names.len()].to_string(),
        };
        let mapping = name(rng);
        put(rng, "mapping", mapping, true);
        if rng.chance(0.3) {
            let list: Vec<String> = (0..1 + rng.index(2)).map(|_| name(rng)).collect();
            fields.push(("mappings", list.join(","), true));
        }
        fields
    }

    #[test]
    fn both_syntaxes_parse_to_the_same_scenario() {
        // The CLI's `--key value` pairs and a serve line of the same draw
        // parse to the same scenario key (and shards, jobs and mapping
        // list), or both fail naming the same field.
        const JOBS: usize = 3;
        let mut rng = DetRng::new(0x5CE7A);
        let (mut agreed, mut failed) = (0, 0);
        for _ in 0..600 {
            let op = if rng.chance(0.5) { "run" } else { "sweep" };
            let fields = draw_fields(&mut rng);
            let args: Vec<String> = fields
                .iter()
                .flat_map(|(key, value, _)| [format!("--{key}"), value.clone()])
                .collect();
            let pairs: Vec<(&str, Field)> = args
                .chunks(2)
                .map(|pair| (pair[0].trim_start_matches("--"), Field::Text(&pair[1])))
                .collect();
            let json: Vec<String> = fields
                .iter()
                .map(|(key, value, string)| match (*key, string) {
                    ("mappings", _) => {
                        let items: Vec<String> =
                            value.split(',').map(|m| format!("{m:?}")).collect();
                        format!("\"mappings\":[{}]", items.join(","))
                    }
                    (_, true) => format!("\"{key}\":{value:?}"),
                    (_, false) => format!("\"{key}\":{value}"),
                })
                .collect();
            let line = format!("{{\"op\":\"{op}\",{}}}", json.join(","));
            let defaults = Defaults {
                warmup: REDUCED_WARMUP,
                window: REDUCED_WINDOW,
                sweep_jobs: (op == "sweep").then_some(JOBS),
            };
            let field = |e: &str| e.split(':').next().unwrap_or_default().to_string();
            let cli =
                Scenario::parse(&pairs, defaults).and_then(|s| s.named_mappings().map(|m| (s, m)));
            let serve = parse_request(&line, JOBS)
                .and_then(|r| r.scenario.named_mappings().map(|m| (r.scenario, m)));
            match (cli, serve) {
                (Ok((a, ma)), Ok((b, mb))) => {
                    // Any fault key installs a plan.
                    let faulty = fields.iter().any(|(k, ..)| {
                        k.ends_with("_rate") || k.starts_with("fault") || k.starts_with("stall")
                    });
                    assert_eq!(a.config.fault_plan.is_some(), faulty, "{line}");
                    assert_eq!(
                        (a.shards, a.jobs, a.seed),
                        (b.shards, b.jobs, b.seed),
                        "{line}"
                    );
                    assert_eq!(a.mappings, b.mappings, "{line}");
                    assert_eq!(ma.len(), mb.len(), "{line}");
                    for (x, y) in ma.iter().zip(&mb) {
                        let (kx, ky) = (a.key(&x.mapping), b.key(&y.mapping));
                        assert_eq!(kx.canonical(), ky.canonical(), "{line}");
                    }
                    agreed += 1;
                }
                (Err(a), Err(b)) => {
                    assert_eq!(field(&a), field(&b), "{line}: {a} / {b}");
                    failed += 1;
                }
                (a, b) => panic!("{line}: {:?} / {:?}", a.err(), b.err()),
            }
        }
        // The draw reaches both outcomes often.
        assert!(
            agreed > 50 && failed > 50,
            "{agreed} agreed, {failed} failed"
        );
    }

    #[test]
    fn retry_keys_let_a_lossy_scenario_complete_from_both_front_ends() {
        // Without a timeout every dropped message strands its transaction
        // for good; `timeout_cycles` arms the controllers' retries. The
        // same lossy machine, spelled for either front end, completes
        // more transactions in the window with it than without.
        let fields = [
            ("dims", "3"),
            ("radix", "4"),
            ("drop_rate", "0.01"),
            ("fault_seed", "3"),
            ("warmup", "2000"),
            ("window", "6000"),
        ];
        let window_completions = |scenario: &Scenario| {
            let mapping = Mapping::identity(64);
            let mut warmed = 0;
            let machine = scenario
                .run_from(&mapping, None, |m| warmed = m.completions())
                .expect("the lossy machine runs");
            machine.completions() - warmed
        };
        let mut completions = Vec::new();
        for retry in [None, Some(("timeout_cycles", "2000"))] {
            let fields: Vec<(&str, &str)> = fields.iter().copied().chain(retry).collect();
            let pairs: Vec<(&str, Field)> = fields
                .iter()
                .map(|&(key, value)| (key, Field::Text(value)))
                .chain([("mapping", Field::Text("identity"))])
                .collect();
            let defaults = Defaults {
                warmup: REDUCED_WARMUP,
                window: REDUCED_WINDOW,
                sweep_jobs: None,
            };
            let cli = Scenario::parse(&pairs, defaults).expect("CLI spelling parses");
            let json: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
            let line = format!(r#"{{"op":"run","mapping":"identity",{}}}"#, json.join(","));
            let serve = parse_request(&line, 1)
                .expect("serve spelling parses")
                .scenario;
            let timeout = u32::from(retry.is_some()) * 2000;
            for scenario in [&cli, &serve] {
                assert_eq!(scenario.config.mem.timeout_cycles, timeout, "{line}");
                assert_eq!(scenario.config.mem.max_retries, 8, "{line}");
            }
            let (a, b) = (window_completions(&cli), window_completions(&serve));
            assert_eq!(a, b, "both spellings run the same machine: {line}");
            completions.push(a);
        }
        assert!(
            completions[1] > completions[0],
            "retries must complete more: {completions:?}"
        );
    }

    #[test]
    fn seeded_request_fuzz_never_kills_the_daemon() {
        // Seeded request lines over every family and small shapes, with
        // mapping names from the family's list plus a bogus one, then a
        // mutant of each: every line must end in exactly one `done` or
        // `error`, and the stream must still answer `stats` after them.
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
        // Then each line mutated once: a flipped bit (possibly leaving
        // UTF-8), a truncation, or a number swapped for a huge one. A
        // mutant that still parses is sent only while its machine and run
        // stay small (the daemon has no memory or cycle budget yet), and
        // no mutant may gain a line break.
        let huge = [
            "18446744073709551615",
            "9007199254740993",
            "99999999999999999999999",
            "1e300",
            "-1",
            "4294967296",
        ];
        let small = |line: &str| {
            parse_request(line, 1).map_or(true, |request| {
                let s = &request.scenario;
                let nodes = s.config.resolved_topology().nodes();
                nodes * s.config.contexts <= 1_024 && s.warmup.saturating_add(s.window) <= 1_000
            })
        };
        let mut sent: Vec<Vec<u8>> = lines.iter().map(|line| line.clone().into_bytes()).collect();
        for line in &lines {
            let mut bytes = line.clone().into_bytes();
            match rng.index(3) {
                0 => bytes[rng.index(line.len())] ^= 1 << rng.index(8),
                1 => bytes.truncate(1 + rng.index(line.len() - 1)),
                _ => {
                    let starts: Vec<usize> = (1..bytes.len())
                        .filter(|&i| bytes[i].is_ascii_digit() && !bytes[i - 1].is_ascii_digit())
                        .collect();
                    let start = starts[rng.index(starts.len())];
                    let end = (start..bytes.len())
                        .find(|&i| !bytes[i].is_ascii_digit())
                        .unwrap_or(bytes.len());
                    bytes.splice(start..end, huge[rng.index(huge.len())].bytes());
                }
            }
            if !bytes.contains(&b'\n') && small(&String::from_utf8_lossy(&bytes)) {
                sent.push(bytes);
            }
        }
        assert!(
            sent.len() > lines.len() + lines.len() / 2,
            "most mutants are sent"
        );
        let cache = Mutex::new(ScenarioCache::new(16, 4));
        let mut input: Vec<u8> = sent
            .iter()
            .flat_map(|line| [&line[..], b"\n"].concat())
            .collect();
        input.extend_from_slice(b"{\"op\":\"stats\"}\n");
        let mut output = Vec::new();
        assert!(handle_stream(&input[..], &mut output, 1, &cache).unwrap());
        let replies = replies(&output);
        assert_eq!(replies.len(), sent.len() + 1, "one reply per line");
        for (line, reply) in sent.iter().zip(&replies) {
            let last = reply.last().unwrap();
            assert!(
                last.contains("\"event\":\"done\"") || last.contains("\"event\":\"error\""),
                "{}: {last}",
                String::from_utf8_lossy(line)
            );
        }
        let answered = replies[..lines.len()]
            .iter()
            .filter(|r| r.last().unwrap().contains("\"event\":\"done\""));
        assert!(
            answered.count() > lines.len() / 2,
            "most lines must run: {replies:?}"
        );
        assert!(replies[sent.len()][0].contains("\"event\":\"stats\""));
    }
}
