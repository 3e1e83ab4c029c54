//! One scenario, parsed once and run once (DESIGN.md §4.12): the CLI and
//! `commloc serve` share [`Scenario::parse`], which owns every scenario
//! key's name, default, range check and error text, the mapping resolver
//! [`Scenario::mapping`], and the one build → warm-up → reset → window
//! body, [`Scenario::run`].

use crate::conformance::SUITE_SEED;
use crate::error::SimError;
use crate::json::Json;
use crate::machine::{Machine, MachineSnapshot, SimConfig};
use crate::mapping::{suite_names, Mapping, NamedMapping};
use crate::parallel::default_jobs;
use crate::serve::{run_cached_sweep_with, ScenarioCache, ScenarioKey, ScenarioResult};
use crate::workload::Workload;
use commloc_mem::MemConfig;
use commloc_net::{FaultPlan, Topology, MAX_NODES};
use std::sync::Mutex;

/// Every scenario key, spelled one way for every front end.
pub const SCENARIO_KEYS: [&str; 23] = [
    "dims",
    "radix",
    "contexts",
    "clock_ratio",
    "switch_cycles",
    "work",
    "watchdog",
    "timeout_cycles",
    "max_retries",
    "topology",
    "traffic",
    "drop_rate",
    "corrupt_rate",
    "stall_rate",
    "fault_seed",
    "stall_window",
    "mapping",
    "mappings",
    "warmup",
    "window",
    "seed",
    "shards",
    "jobs",
];

/// One scenario key's value as a front end hands it over.
#[derive(Debug, Clone, Copy)]
pub enum Field<'a> {
    /// A command-line `--key value` string.
    Text(&'a str),
    /// A `commloc serve` request's JSON value.
    Json(&'a Json),
}

impl Field<'_> {
    fn u64(self) -> Result<u64, String> {
        match self {
            Field::Text(v) => v.parse().map_err(|_| format!("`{v}` is not an integer")),
            Field::Json(v) => v.as_u64(),
        }
    }

    fn f64(self) -> Result<f64, String> {
        match self {
            Field::Text(v) => v.parse().map_err(|_| format!("`{v}` is not a number")),
            Field::Json(v) => v.as_number(),
        }
    }

    fn string(self) -> Result<String, String> {
        match self {
            Field::Text(v) => Ok(v.to_owned()),
            Field::Json(v) => v.as_string(),
        }
    }

    /// A list: comma-separated on the command line, an array in JSON.
    fn strings(self) -> Result<Vec<String>, String> {
        match self {
            Field::Text(v) => Ok(v.split(',').map(str::to_owned).collect()),
            Field::Json(v) => v.as_array()?.iter().map(Json::as_string).collect(),
        }
    }

    /// `key value` as this front end spells it, for did-you-mean hints.
    fn spell(self, key: &str, value: impl std::fmt::Display) -> String {
        match self {
            Field::Text(_) => format!("`--{key} {value}`"),
            Field::Json(_) => format!("`\"{key}\":{value}`"),
        }
    }

    /// A worker-thread count (`jobs`): at least one.
    ///
    /// # Errors
    ///
    /// A message starting with `jobs:` for a zero or a non-integer.
    pub fn jobs(self) -> Result<usize, String> {
        match self.u64() {
            Ok(0) => Err(format!(
                "jobs: must be at least 1 (did you mean {}, the machine's available \
                 parallelism?)",
                self.spell("jobs", default_jobs())
            )),
            Ok(jobs) => Ok(jobs as usize),
            Err(e) => Err(format!("jobs: {e}")),
        }
    }
}

/// What a front end leaves unsaid, and which op's rules apply.
#[derive(Debug, Clone, Copy)]
pub struct Defaults {
    /// Warmup when `warmup` is absent.
    pub warmup: u64,
    /// Window when `window` is absent.
    pub window: u64,
    /// `None` for a single run, whose jobs step its shards: they default
    /// to the shard count, need `shards`, and may not outnumber it.
    /// `Some(jobs)` for a sweep, whose mappings fan out over `jobs`
    /// workers (the default) that also step each machine's shards.
    pub sweep_jobs: Option<usize>,
}

/// One scenario: a machine, the mappings it runs, its windows, and how it
/// is stepped (shards and jobs never change a result, DESIGN.md §4.11).
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The resolved machine, fault plan included.
    pub config: SimConfig,
    /// Seed the named mappings are built from.
    pub seed: u64,
    /// Mapping names: a single run names one, a sweep any (none: the
    /// topology's whole suite).
    pub mappings: Vec<String>,
    /// Network cycles run before the measurement window.
    pub warmup: u64,
    /// Network cycles measured.
    pub window: u64,
    /// Contiguous shards the machine is split into.
    pub shards: usize,
    /// Worker threads.
    pub jobs: usize,
}

impl Scenario {
    /// A one-shard, one-job scenario of `config` over `warmup` then
    /// `window` network cycles, naming no mapping, seeded with
    /// [`SUITE_SEED`].
    pub fn new(config: SimConfig, warmup: u64, window: u64) -> Self {
        Self {
            config,
            seed: SUITE_SEED,
            mappings: Vec::new(),
            warmup,
            window,
            shards: 1,
            jobs: 1,
        }
    }

    /// Parses a front end's `(key, value)` fields: keys not in
    /// [`SCENARIO_KEYS`] are the front end's own and are ignored, and a
    /// key given twice takes its first value. Fields are checked in one
    /// fixed order, whichever front end gave them, and the first bad one
    /// is named.
    ///
    /// # Errors
    ///
    /// A message starting with the offending key's name.
    pub fn parse(fields: &[(&str, Field<'_>)], defaults: Defaults) -> Result<Self, String> {
        let get = |key: &str| fields.iter().find(|(k, _)| *k == key).map(|&(_, v)| v);
        let at = |key: &'static str| move |e: String| format!("{key}: {e}");
        let u64_or = |key: &'static str, default: u64| {
            get(key).map_or(Ok(default), |v| v.u64().map_err(at(key)))
        };
        let u32_or = |key: &'static str, default: u32| {
            let value = u64_or(key, u64::from(default))?;
            u32::try_from(value).map_err(|_| format!("{key}: {value} does not fit in 32 bits"))
        };
        let rate = |key: &'static str| {
            let rate = get(key).map_or(Ok(0.0), |v| v.f64().map_err(at(key)))?;
            if (0.0..=1.0).contains(&rate) {
                Ok(rate)
            } else {
                Err(format!("{key}: {rate} is not a probability in [0, 1]"))
            }
        };
        let base = SimConfig::default();
        let mut config = SimConfig {
            dims: u32_or("dims", base.dims)?,
            radix: u64_or("radix", base.radix as u64)? as usize,
            contexts: u64_or("contexts", base.contexts as u64)? as usize,
            clock_ratio: u32_or("clock_ratio", base.clock_ratio)?,
            switch_cycles: u32_or("switch_cycles", base.switch_cycles)?,
            work: u32_or("work", base.work)?,
            watchdog_cycles: u64_or("watchdog", base.watchdog_cycles)?,
            mem: MemConfig {
                timeout_cycles: u32_or("timeout_cycles", base.mem.timeout_cycles)?,
                max_retries: u32_or("max_retries", base.mem.max_retries)?,
                ..base.mem
            },
            ..base
        };
        if let Some(v) = get("topology") {
            let spec = v.string().map_err(at("topology"))?;
            let topology = Topology::parse(&spec, config.dims, config.radix);
            config.topology = Some(topology.map_err(at("topology"))?);
        }
        if let Some(v) = get("traffic") {
            let spec = v.string().map_err(at("traffic"))?;
            config.workload = Workload::parse(&spec).map_err(at("traffic"))?;
        }
        let drop = rate("drop_rate")?;
        let corrupt = rate("corrupt_rate")?;
        let stall = rate("stall_rate")?;
        // Any fault key (`drop_rate` to `stall_window`) installs a plan.
        if SCENARIO_KEYS[11..16].iter().any(|&k| get(k).is_some()) {
            let plan = FaultPlan::new(u64_or("fault_seed", 0)?)
                .with_drop_rate(drop)
                .with_corrupt_rate(corrupt)
                .with_stall_rate(stall, u64_or("stall_window", 64)?);
            config.fault_plan = Some(plan);
        }
        // Shapes a machine cannot be built from: an explicit topology was
        // sized by `Topology::parse`, the `dims`/`radix` torus is here.
        if config.contexts == 0 {
            return Err("contexts: a processor needs at least one hardware context".into());
        }
        if config.clock_ratio == 0 {
            return Err(
                "clock_ratio: the network needs at least one cycle per processor cycle".into(),
            );
        }
        if config.work == 0 {
            return Err("work: the computation grain must be at least one cycle".into());
        }
        let topology = match &config.topology {
            Some(topology) => topology.clone(),
            None => Topology::try_cube(config.dims, config.radix)?,
        };
        let (compute, nodes) = (topology.compute_nodes(), topology.nodes());
        if !matches!(config.contexts.checked_mul(compute), Some(t) if t <= MAX_NODES) {
            return Err(format!(
                "contexts: {} contexts on {compute} compute nodes is over the {MAX_NODES}-thread cap",
                config.contexts
            ));
        }
        let mut mappings = Vec::new();
        if let Some(v) = get("mapping") {
            mappings.push(v.string().map_err(at("mapping"))?);
        }
        if let Some(v) = get("mappings") {
            mappings.extend(v.strings().map_err(at("mappings"))?);
        }
        // A zero window measured rates over zero cycles, and a wrapped end
        // ran nothing.
        let warmup = u64_or("warmup", defaults.warmup)?;
        let window = u64_or("window", defaults.window)?;
        if window == 0 {
            return Err("window: a measurement window needs at least one network cycle".into());
        }
        if warmup.checked_add(window).is_none() {
            return Err(format!(
                "window: warmup {warmup} plus window {window} passes the largest network \
                 cycle the clock can count ({})",
                u64::MAX
            ));
        }
        let seed = u64_or("seed", SUITE_SEED)?;
        let shards = get("shards").map_or(Ok(1), |v| match v.u64().map_err(at("shards"))? {
            0 => Err(format!(
                "shards: must be at least 1 (did you mean {}?)",
                v.spell("shards", 1)
            )),
            shards if shards > nodes as u64 => Err(format!(
                "shards: {shards} exceeds the {nodes}-node fabric (did you mean {}, one node per \
                 shard?)",
                v.spell("shards", nodes)
            )),
            shards => Ok(shards as usize),
        })?;
        let single = defaults.sweep_jobs.is_none();
        let jobs = match get("jobs") {
            None => defaults.sweep_jobs.unwrap_or(shards),
            Some(v) if single && get("shards").is_none() => {
                return Err(format!(
                    "jobs: sets a single run's shard workers, but no shards were given (did you \
                     mean to add {}, or jobs on a sweep?)",
                    v.spell("shards", "N")
                ))
            }
            Some(v) => match v.jobs()? {
                jobs if single && jobs > shards => {
                    return Err(format!(
                        "jobs: {jobs} workers cannot outnumber the {shards} shard(s) (did you \
                         mean {}?)",
                        v.spell("jobs", shards)
                    ))
                }
                jobs => jobs,
            },
        };
        if single && mappings.len() != 1 {
            return Err("mapping: a single run needs exactly one mapping".into());
        }
        Ok(Self {
            config,
            seed,
            mappings,
            warmup,
            window,
            shards,
            jobs,
        })
    }

    /// Builds the mapping `name` for this scenario's topology and seed: a
    /// name of the topology's suite ([`NamedMapping::by_name`]), `random`
    /// (the suite's `random-1`), or `swaps-K`, `K` random swaps from the
    /// identity, `K` up to [`MAX_NODES`]. A suite name wins where the two
    /// meet (`swaps-8` on a cube), since the goldens and `commloc suite`
    /// are built from it. Only the named mapping is built.
    ///
    /// # Errors
    ///
    /// A message starting with `mapping:` for any other name.
    pub fn mapping(&self, name: &str) -> Result<NamedMapping, String> {
        let topology = self.config.resolved_topology();
        let n = topology.compute_nodes();
        let swaps = name.strip_prefix("swaps-").and_then(|k| k.parse().ok());
        let mapping = match (NamedMapping::by_name(&topology, self.seed, name), swaps) {
            (Some(named), _) => return Ok(named),
            (None, _) if name == "random" => Mapping::random(n, self.seed),
            (None, Some(swaps)) if swaps <= MAX_NODES => Mapping::random_swaps(n, swaps, self.seed),
            (None, _) => {
                return Err(format!(
                    "mapping: unknown `{name}` on {} (suite: {}; also random and swaps-K, K up to \
                     {MAX_NODES})",
                    topology.canonical(),
                    suite_names(&topology).join(", ")
                ))
            }
        };
        Ok(NamedMapping {
            name: name.to_owned(),
            distance: mapping.average_app_distance(&topology),
            mapping,
        })
    }

    /// Builds every mapping the scenario names, in order, or the
    /// topology's whole suite when it names none.
    ///
    /// # Errors
    ///
    /// As [`Scenario::mapping`], for the first unknown name.
    pub fn named_mappings(&self) -> Result<Vec<NamedMapping>, String> {
        self.resolve_mappings(|name| self.mapping(name), |named| named.distance)
    }

    /// Resolves every name the scenario gives through `resolve`, in
    /// order, or, when it names none, the topology's whole suite sorted
    /// stably by `distance`, as
    /// [`topology_mapping_suite`](crate::mapping::topology_mapping_suite)
    /// orders it.
    pub(crate) fn resolve_mappings<M>(
        &self,
        mut resolve: impl FnMut(&str) -> Result<M, String>,
        distance: impl Fn(&M) -> f64,
    ) -> Result<Vec<M>, String> {
        if !self.mappings.is_empty() {
            return self.mappings.iter().map(|name| resolve(name)).collect();
        }
        let names = suite_names(&self.config.resolved_topology());
        let mut suite = names
            .into_iter()
            .map(resolve)
            .collect::<Result<Vec<M>, String>>()?;
        suite.sort_by(|a, b| distance(a).total_cmp(&distance(b)));
        Ok(suite)
    }

    /// The cache identity of this scenario run under `mapping`: shards and
    /// jobs are left out, since results are bit-exact across them.
    pub fn key(&self, mapping: &Mapping) -> ScenarioKey {
        ScenarioKey::new(&self.config, mapping, self.warmup, self.window)
    }

    /// Builds the machine for `mapping`, warms it up, resets its
    /// statistics, and runs the measurement window; read the results off
    /// the returned machine ([`Machine::measure`],
    /// [`Machine::latency_breakdown`], ...).
    ///
    /// # Errors
    ///
    /// The first [`SimError`] from stepping.
    pub fn run(&self, mapping: &Mapping) -> Result<Machine, SimError> {
        self.run_from(mapping, None, |_| {})
    }

    /// [`Scenario::run`], from a `warm` snapshot taken right after an
    /// earlier run's reset when one is given (it keeps the shard count it
    /// was taken with, which changes no result), else cold, handing the
    /// freshly warmed machine to `warmed`.
    pub(crate) fn run_from(
        &self,
        mapping: &Mapping,
        warm: Option<&MachineSnapshot>,
        warmed: impl FnOnce(&Machine),
    ) -> Result<Machine, SimError> {
        let cold = warm.is_none();
        let mut machine = warm.map_or_else(
            || Machine::with_shards(&self.config, mapping, self.shards),
            MachineSnapshot::restore,
        );
        machine.set_jobs(self.jobs);
        if cold {
            machine.run_network_cycles(self.warmup)?;
            machine.reset_measurements();
            warmed(&machine);
        }
        machine.run_network_cycles(self.window)?;
        Ok(machine)
    }

    /// Runs `mappings` through the process-wide result and warm-start
    /// caches, fanning misses over [`Scenario::jobs`] workers; results
    /// are in input order and bit-identical to one [`Scenario::run`] each.
    ///
    /// # Errors
    ///
    /// The first failing run's error (by input order).
    pub fn sweep(&self, mappings: &[NamedMapping]) -> Result<Vec<ScenarioResult>, SimError> {
        run_cached_sweep_with(self, mappings, crate::serve::global_cache())
    }

    /// [`Scenario::sweep`] for a process that sweeps once: nothing is
    /// cached, so no warm snapshot (a whole machine per mapping) outlives
    /// its run. Results are the same.
    ///
    /// # Errors
    ///
    /// The first failing run's error (by input order).
    pub fn sweep_once(&self, mappings: &[NamedMapping]) -> Result<Vec<ScenarioResult>, SimError> {
        let cache = Mutex::new(ScenarioCache::new(0, 0));
        run_cached_sweep_with(self, mappings, &cache)
    }
}
