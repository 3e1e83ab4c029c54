//! Machine-lockstep differential fuzzing: the active-node engine versus
//! the retained exhaustive reference stepping mode.
//!
//! Each seed draws a random full-machine scenario — torus shape, context
//! count, clock ratio, mapping, retry/timeout configuration, controller
//! occupancy, watchdog window, an optional fault plan (including one-off
//! exact-cycle delay events), an optional work-stealing migration policy,
//! and a shard count — and runs two or three [`Machine`]s over it in
//! lockstep: one stepped by the active-node engine ([`Machine::new`]),
//! one by the reference loop ([`Machine::new_reference`]), and on sharded
//! draws a [`Machine::with_shards`]. The checker requires **bit-identical**
//! behavior: completion counts (total and per node), measurements,
//! latency breakdowns, fault logs, migrations, and — when the scenario
//! wedges — the watchdog's stall report, down to the trip cycle. The
//! sharded machine runs the active engine's traced config and must also
//! match its fast-forward count and its merged flit trace and span log;
//! the reference engine runs untraced, so tracing is proven
//! behavior-neutral.
//!
//! Failing seeds shrink through the same greedy fixed-point loop as the
//! fabric fuzzer ([`commloc_net::fuzz::shrink_with`]) and render a
//! ready-to-paste repro test. The `commloc fuzz --machine --seeds N`
//! subcommand drives sweeps from CI.

use crate::machine::{Machine, SimConfig};
use crate::mapping::Mapping;
use crate::resilience::WorkStealingPolicy;
use crate::workload::Workload;
use commloc_mem::MemConfig;
use commloc_net::fuzz::{fault_expr, shrink_with, topology_expr, Divergence, FaultSpec};
use commloc_net::{DetRng, Direction, FabricConfig, Topology};
use std::fmt::Debug;

/// Domain-separation constant so machine-scenario generation never shares
/// a stream with the fabric fuzzer or the workloads.
const SCENARIO_SALT: u64 = 0x7E57_AC71_0EB1_05ED;

/// Lockstep comparison interval in network cycles: long enough to
/// amortize the checks, short enough to localize a divergence.
const CHECK_INTERVAL: u64 = 128;

/// Which thread-to-processor mapping a scenario uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingKind {
    /// Thread `i` on processor `i` (distance 1).
    Identity,
    /// A seeded uniform random permutation (the Eq. 17 regime).
    Random(u64),
    /// Identity perturbed by a seeded number of random swaps.
    Swaps(u64),
}

/// Which traffic-generating workload a scenario runs. A plain-data
/// mirror of [`Workload`] without the trace variant (traces carry file
/// content; the fuzzer sticks to the synthetic generators).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Every thread exchanges with its application-graph neighbors.
    Neighbor,
    /// All threads hammer the first `targets` threads' state.
    Hotspot {
        /// Number of hot threads.
        targets: usize,
    },
    /// Thread `i` exchanges with its matrix-transpose peer.
    Transpose,
}

impl WorkloadKind {
    /// The [`Workload`] this kind describes.
    pub fn build(self) -> Workload {
        match self {
            WorkloadKind::Neighbor => Workload::Neighbor,
            WorkloadKind::Hotspot { targets } => Workload::Hotspot { targets },
            WorkloadKind::Transpose => Workload::Transpose,
        }
    }
}

/// One randomly drawn machine-level differential-test case. All fields
/// are plain data so failing cases can be shrunk and replayed literally.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineScenario {
    /// Seed for the fault stream (the workload itself is deterministic).
    pub seed: u64,
    /// Torus dimensionality (1–3); ignored when `topology` is set.
    pub dims: u32,
    /// Per-dimension radix; ignored when `topology` is set.
    pub radix: usize,
    /// Hardware contexts per processor.
    pub contexts: usize,
    /// Network cycles per processor cycle.
    pub clock_ratio: u32,
    /// Context-switch cost in processor cycles.
    pub switch_cycles: u32,
    /// Computation grain between memory accesses.
    pub work: u32,
    /// Controller timeout (`0` disables retries).
    pub timeout_cycles: u32,
    /// Retry budget per transaction.
    pub max_retries: u32,
    /// Progress-watchdog window (`0` disables it).
    pub watchdog_cycles: u64,
    /// Thread-to-processor mapping.
    pub mapping: MappingKind,
    /// Trace ring capacity on the active and sharded engines (`0` =
    /// off); the reference engine runs untraced, because tracing must
    /// never perturb behavior.
    pub trace_capacity: usize,
    /// Warmup cycles before the measurement reset.
    pub warmup: u64,
    /// Measured cycles after the reset.
    pub window: u64,
    /// Optional fault plan, shared verbatim by both engines.
    pub fault: Option<FaultSpec>,
    /// Optional migration policy, installed on every engine — the
    /// resilience layer's park/adopt/abandon machinery must stay
    /// bit-exact across engines and shard counts.
    pub migration: Option<WorkStealingPolicy>,
    /// Shard count for a third machine ([`Machine::with_shards`])
    /// checked against the active one (`1` = no third machine).
    pub shards: usize,
    /// Explicit non-cube topology (`None` = the cube from `dims`/`radix`).
    /// Scheduled `(dim, direction)`-addressed faults are cube-only and
    /// are never drawn alongside this.
    pub topology: Option<Topology>,
    /// The traffic-generating workload both engines run.
    pub workload: WorkloadKind,
    /// Controller occupancy per work item (the default is 2).
    pub processing_cycles: u32,
    /// Extra controller occupancy per DRAM touch (the default is 5).
    pub memory_cycles: u32,
}

impl MachineScenario {
    /// Draws a scenario deterministically from `seed`: small tori (the
    /// reference engine is intentionally slow), every context count and
    /// clock ratio, identity/swapped/random mappings, with faults,
    /// timeouts, and watchdog windows mixed in half the time.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = DetRng::new(seed ^ SCENARIO_SALT);
        let dims = 1 + rng.index(3) as u32;
        let radix = match dims {
            1 => 4 + rng.index(9), // rings of 4..=12 nodes
            2 => 3 + rng.index(3), // 9..=25 nodes
            _ => 3,                // 27 nodes
        };
        let contexts = [1usize, 2, 4][rng.index(3)];
        let clock_ratio = if rng.chance(0.5) { 1 } else { 2 };
        let switch_cycles = [0u32, 2, 11][rng.index(3)];
        let work = 2 + rng.index(10) as u32;
        let (timeout_cycles, max_retries) = if rng.chance(0.5) {
            (100 + rng.index(500) as u32, 1 + rng.index(6) as u32)
        } else {
            (0, 8)
        };
        let watchdog_cycles = if rng.chance(0.5) {
            1_500 + rng.range_u64(0, 2_500)
        } else {
            0
        };
        let nodes = radix.pow(dims);
        // Three seeds in eight trade the cube for one of the pluggable
        // fabrics, at sizes small enough for the reference engine.
        let topology = match rng.index(8) {
            0..=4 => None,
            5 => Some(Topology::mesh(2 + rng.index(3), 2 + rng.index(3))),
            6 => Some(Topology::fat_tree(2 + rng.index(2), 2)),
            _ => Some(Topology::dragonfly(2 + rng.index(2), 1)),
        };
        // Router count (switches included) for node-addressed faults and
        // shard clamping; compute count only matters for the mapping.
        let routers = topology.as_ref().map_or(nodes, Topology::nodes);
        let workload = match rng.index(6) {
            0..=2 => WorkloadKind::Neighbor,
            3 | 4 => WorkloadKind::Hotspot {
                targets: 1 + rng.index(3),
            },
            _ => WorkloadKind::Transpose,
        };
        let mapping = match rng.index(3) {
            0 => MappingKind::Identity,
            1 => MappingKind::Random(rng.range_u64(1, u64::from(u32::MAX))),
            _ => MappingKind::Swaps(rng.range_u64(1, u64::from(u32::MAX))),
        };
        let trace_capacity = if rng.chance(0.3) { 32 } else { 0 };
        let warmup = rng.range_u64(200, 1_200);
        let window = rng.range_u64(800, 3_000);
        let fault = if rng.chance(0.4) {
            let mut spec = FaultSpec {
                drop_rate: if rng.chance(0.5) {
                    rng.range_f64(0.0, 0.01)
                } else {
                    0.0
                },
                corrupt_rate: if rng.chance(0.3) {
                    rng.range_f64(0.0, 0.01)
                } else {
                    0.0
                },
                stall_rate: if rng.chance(0.3) {
                    rng.range_f64(0.0, 0.002)
                } else {
                    0.0
                },
                stall_window: rng.range_u64(10, 120),
                kills: Vec::new(),
                link_stalls: Vec::new(),
                router_stalls: Vec::new(),
            };
            let horizon = warmup + window;
            // Scheduled kills and link stalls are addressed by
            // `(dim, direction)` — torus coordinates — so they are only
            // drawn for cube scenarios.
            if topology.is_none() && rng.chance(0.3) {
                spec.kills.push((
                    rng.range_u64(1, horizon),
                    rng.index(nodes),
                    rng.index(dims as usize) as u32,
                    if rng.chance(0.5) {
                        Direction::Plus
                    } else {
                        Direction::Minus
                    },
                ));
            }
            if topology.is_none() && rng.chance(0.25) {
                spec.link_stalls.push((
                    rng.range_u64(1, horizon),
                    rng.index(nodes),
                    rng.index(dims as usize) as u32,
                    if rng.chance(0.5) {
                        Direction::Plus
                    } else {
                        Direction::Minus
                    },
                    rng.range_u64(50, 600),
                ));
            }
            if rng.chance(0.25) {
                spec.router_stalls.push((
                    rng.range_u64(1, horizon),
                    rng.index(routers),
                    rng.range_u64(50, 600),
                ));
            }
            if spec.is_empty() {
                None
            } else {
                Some(spec)
            }
        } else {
            None
        };
        // One-off delay events beyond the plan drawn above: a single
        // exact-cycle router stall, the resilience subsystem's injector
        // shape, composed onto whatever ambient faults exist.
        let mut fault = fault;
        if rng.chance(0.3) {
            let delay = (
                rng.range_u64(1, warmup + window),
                rng.index(routers),
                rng.range_u64(20, 400),
            );
            fault
                .get_or_insert_with(|| FaultSpec {
                    drop_rate: 0.0,
                    corrupt_rate: 0.0,
                    stall_rate: 0.0,
                    stall_window: 0,
                    kills: Vec::new(),
                    link_stalls: Vec::new(),
                    router_stalls: Vec::new(),
                })
                .router_stalls
                .push(delay);
        }
        // A migration policy rides along on one seed in five, on every
        // fabric, with small budgets and thresholds low enough to fire on
        // ordinary congestion.
        let migration = rng.chance(0.2).then(|| WorkStealingPolicy {
            steal_latency: rng.range_u64(0, 400),
            wedge_threshold: rng.range_u64(200, 1_700),
            max_migrations: rng.range_u64(0, 5),
        });
        // A multi-shard machine rides along on half the seeds, policy or
        // not: the scenario then runs a three-way lockstep, active vs
        // reference vs sharded.
        let shards = [1, 1, 1, 2, 3, 4][rng.index(6)].min(routers);
        // Controller occupancy sets the controllers' pure-tick spans;
        // drawn last, so each seed keeps every other field.
        let processing_cycles = 1 + rng.index(6) as u32;
        let memory_cycles = rng.index(13) as u32;
        Self {
            seed,
            dims,
            radix,
            contexts,
            clock_ratio,
            switch_cycles,
            work,
            timeout_cycles,
            max_retries,
            watchdog_cycles,
            mapping,
            trace_capacity,
            warmup,
            window,
            fault,
            migration,
            shards,
            topology,
            workload,
            processing_cycles,
            memory_cycles,
        }
    }

    /// Number of compute nodes (the mapping's thread count).
    pub fn nodes(&self) -> usize {
        match &self.topology {
            Some(t) => t.compute_nodes(),
            None => self.radix.pow(self.dims),
        }
    }

    /// Total router count, switches included (bounds shard counts and
    /// node-addressed fault sites).
    pub fn total_nodes(&self) -> usize {
        match &self.topology {
            Some(t) => t.nodes(),
            None => self.radix.pow(self.dims),
        }
    }

    /// The mapping object this scenario describes.
    pub fn build_mapping(&self) -> Mapping {
        let nodes = self.nodes();
        match self.mapping {
            MappingKind::Identity => Mapping::identity(nodes),
            MappingKind::Random(seed) => Mapping::random(nodes, seed),
            MappingKind::Swaps(seed) => Mapping::random_swaps(nodes, nodes / 2, seed),
        }
    }

    /// The simulation configuration, with tracing enabled only when
    /// `traced` (the active and sharded engines run traced against the
    /// untraced reference, proving tracing behavior-neutral).
    fn sim_config(&self, traced: bool) -> SimConfig {
        SimConfig {
            dims: self.dims,
            radix: self.radix,
            contexts: self.contexts,
            clock_ratio: self.clock_ratio,
            switch_cycles: self.switch_cycles,
            work: self.work,
            mem: MemConfig {
                processing_cycles: self.processing_cycles,
                memory_cycles: self.memory_cycles,
                timeout_cycles: self.timeout_cycles,
                max_retries: self.max_retries,
                ..MemConfig::default()
            },
            fabric: FabricConfig {
                link_vcs: 4,
                vc_buffer_capacity: 8,
                injection_buffer_capacity: 8,
                trace_capacity: if traced { self.trace_capacity } else { 0 },
            },
            watchdog_cycles: self.watchdog_cycles,
            fault_plan: self.fault.as_ref().map(|spec| spec.build(self.seed)),
            topology: self.topology.clone(),
            workload: self.workload.build(),
        }
    }
}

/// An intentional perturbation of the **reference** machine only — the
/// hook proving the differential checker and shrinker actually fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineMutation {
    /// Lengthen the reference machine's computation grain by one cycle,
    /// desynchronizing every issue schedule.
    SkewWork,
}

/// Statistics from one clean machine-lockstep run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineFuzzReport {
    /// Transactions completed by each engine.
    pub completions: u64,
    /// Network cycles both machines reached.
    pub net_cycles: u64,
    /// Whether the run ended in a (bit-identical) watchdog stall.
    pub stalled: bool,
    /// Network cycles the active engine skipped by fast-forward (a
    /// sharded participant is checked to skip the same).
    pub fast_forwarded: u64,
    /// Thread migrations every engine performed identically.
    pub migrations: usize,
    /// The drawn shard count (a sharded machine ran when above 1).
    pub shards: usize,
}

/// A machine run in lockstep against the active engine.
struct Participant {
    /// How a divergence names it.
    side: &'static str,
    machine: Machine,
    /// Whether it also matches the active engine's fast-forward count
    /// and traces: the sharded side runs the traced config, while the
    /// reference engine neither fast-forwards nor traces.
    sharded: bool,
}

impl Participant {
    /// `Ok` when the active engine's `a` equals this participant's `b`.
    fn check<T: PartialEq + Debug>(
        &self,
        cycle: Option<u64>,
        what: &str,
        a: T,
        b: T,
    ) -> Result<(), Divergence> {
        if a == b {
            return Ok(());
        }
        Err(Divergence {
            cycle,
            what: format!("{what}: active {a:?} != {} {b:?}", self.side),
        })
    }

    /// Compares this participant's records with the active engine's: the
    /// clock and running counters after every chunk, and at `end` the
    /// end-of-run records.
    fn compare(&self, cycle: Option<u64>, active: &Machine, end: bool) -> Result<(), Divergence> {
        // One reader, applied to both machines.
        macro_rules! same {
            ($what:expr, $reader:ident) => {
                self.check(cycle, $what, active.$reader(), self.machine.$reader())?
            };
        }
        same!("network clock", net_cycle);
        if end {
            same!("latency breakdown", latency_breakdown);
            same!("fault log", fault_log);
            same!("workload iterations", total_iterations);
            same!("migrated-from nodes", migrated_from_nodes);
        } else {
            same!("completions", completions);
            same!("per-node completions", completions_per_node);
            same!("measurements", measure);
        }
        same!("migrations", migrations);
        if self.sharded {
            same!("fast-forwarded cycles", fast_forwarded_cycles);
            same!("flit trace", trace);
            same!("span log", spans);
        }
        Ok(())
    }
}

/// Runs one seed's lockstep differential check.
///
/// # Errors
///
/// Returns the first [`Divergence`] between the engines.
pub fn run_seed(seed: u64) -> Result<MachineFuzzReport, Divergence> {
    run_scenario(&MachineScenario::from_seed(seed))
}

/// Runs a scenario's lockstep differential check.
///
/// # Errors
///
/// Returns the first [`Divergence`] between the engines.
pub fn run_scenario(scenario: &MachineScenario) -> Result<MachineFuzzReport, Divergence> {
    run_scenario_mutated(scenario, None)
}

/// [`run_scenario`] with an optional intentional mutation applied to the
/// reference machine — the test hook proving the checker can fail.
/// Production sweeps pass `None`.
///
/// # Errors
///
/// Returns the first [`Divergence`] detected (which, under a mutation,
/// is the expected outcome).
pub fn run_scenario_mutated(
    scenario: &MachineScenario,
    mutation: Option<MachineMutation>,
) -> Result<MachineFuzzReport, Divergence> {
    let mapping = scenario.build_mapping();
    let traced = scenario.sim_config(true);
    let mut ref_config = scenario.sim_config(false);
    if mutation == Some(MachineMutation::SkewWork) {
        ref_config.work += 1;
    }
    let mut active = Machine::new(&traced, &mapping);
    let mut sides = vec![Participant {
        side: "reference",
        machine: Machine::new_reference(&ref_config, &mapping),
        sharded: false,
    }];
    // A multi-shard machine joins as a third lockstep participant on
    // sharded draws (one worker — worker counts never change results).
    if scenario.shards > 1 {
        sides.push(Participant {
            side: "sharded",
            machine: Machine::with_shards(&traced, &mapping, scenario.shards),
            sharded: true,
        });
    }
    if let Some(policy) = scenario.migration {
        active.set_migration(policy);
        for p in &mut sides {
            p.machine.set_migration(policy);
        }
    }

    let mut stalled = false;
    'phases: for (name, cycles) in [("warmup", scenario.warmup), ("window", scenario.window)] {
        let mut left = cycles;
        while left > 0 {
            let chunk = left.min(CHECK_INTERVAL);
            let ra = active.run_network_cycles(chunk);
            let now = Some(active.net_cycle());
            for p in &mut sides {
                let rb = p.machine.run_network_cycles(chunk);
                p.check(now, &format!("{name} step result"), &ra, &rb)?;
            }
            if ra.is_err() {
                // All engines stalled with the identical report: the run
                // ends here on every side, already proven equal.
                stalled = true;
                break 'phases;
            }
            for p in &sides {
                p.compare(now, &active, false)?;
            }
            left -= chunk;
        }
        if name == "warmup" {
            active.reset_measurements();
            for p in &mut sides {
                p.machine.reset_measurements();
            }
        }
    }

    let end = Some(active.net_cycle());
    for p in &sides {
        p.compare(end, &active, true)?;
    }
    Ok(MachineFuzzReport {
        completions: active.completions(),
        net_cycles: active.net_cycle(),
        stalled,
        fast_forwarded: active.fast_forwarded_cycles(),
        migrations: active.migrations().len(),
        shards: scenario.shards,
    })
}

/// Result of shrinking a failing machine scenario to a minimal one.
#[derive(Debug, Clone)]
pub struct MachineShrinkOutcome {
    /// The minimal failing scenario found.
    pub scenario: MachineScenario,
    /// Its divergence.
    pub divergence: Divergence,
    /// Candidate scenarios tried during shrinking.
    pub attempts: u32,
}

impl MachineShrinkOutcome {
    /// Renders a ready-to-paste `#[test]` that replays the minimal
    /// failing scenario (paste into a crate depending on `commloc-sim`).
    pub fn repro_test(&self) -> String {
        let s = &self.scenario;
        let migration = match &s.migration {
            None => "None".to_owned(),
            Some(m) => format!(
                "Some(WorkStealingPolicy {{\n            steal_latency: {},\n            \
                 wedge_threshold: {},\n            max_migrations: {},\n        }})",
                m.steal_latency, m.wedge_threshold, m.max_migrations
            ),
        };
        let topology = match &s.topology {
            None => "None".to_owned(),
            Some(t) => format!("Some({})", topology_expr(t)),
        };
        format!(
            "#[test]\nfn machine_fuzz_repro_seed_{seed}() {{\n    \
             use commloc_sim::fuzz::{{run_scenario, MachineScenario, MappingKind, WorkloadKind}};\n    \
             use commloc_sim::WorkStealingPolicy;\n    \
             use commloc_net::fuzz::FaultSpec;\n    \
             use commloc_net::Direction::{{Minus, Plus}};\n    use commloc_net::Topology;\n    \
             let _ = (Minus, Plus, FaultSpec::is_empty); // used by fault literals\n    \
             let _: Option<WorkStealingPolicy> = None; // used by migration literals\n    \
             let _: Option<Topology> = None; // used by topology literals\n    \
             let scenario = MachineScenario {{\n        seed: {seed},\n        dims: {dims},\n        \
             radix: {radix},\n        contexts: {contexts},\n        clock_ratio: {ratio},\n        \
             switch_cycles: {switch},\n        work: {work},\n        timeout_cycles: {timeout},\n        \
             max_retries: {retries},\n        watchdog_cycles: {watchdog},\n        \
             mapping: MappingKind::{mapping:?},\n        trace_capacity: {tcap},\n        \
             warmup: {warmup},\n        window: {window},\n        fault: {fault},\n        \
             migration: {migration},\n        shards: {shards},\n        topology: {topology},\n        \
             workload: WorkloadKind::{workload:?},\n        \
             processing_cycles: {processing},\n        memory_cycles: {memory},\n    }};\n    \
             run_scenario(&scenario).expect(\"active and reference machines must agree\");\n}}\n",
            seed = s.seed,
            dims = s.dims,
            radix = s.radix,
            contexts = s.contexts,
            ratio = s.clock_ratio,
            switch = s.switch_cycles,
            work = s.work,
            timeout = s.timeout_cycles,
            retries = s.max_retries,
            watchdog = s.watchdog_cycles,
            mapping = s.mapping,
            tcap = s.trace_capacity,
            warmup = s.warmup,
            window = s.window,
            fault = fault_expr(s.fault.as_ref()),
            shards = s.shards,
            topology = topology,
            workload = s.workload,
            processing = s.processing_cycles,
            memory = s.memory_cycles,
        )
    }
}

/// Greedily shrinks a failing machine scenario through the shared
/// fixed-point loop ([`shrink_with`]); the `mutation`, if any, is held
/// constant across candidates.
///
/// Returns `None` if `scenario` does not actually fail.
pub fn shrink(
    scenario: &MachineScenario,
    mutation: Option<MachineMutation>,
) -> Option<MachineShrinkOutcome> {
    let (scenario, divergence, attempts) = shrink_with(
        scenario,
        |s| run_scenario_mutated(s, mutation).err(),
        reductions,
    )?;
    Some(MachineShrinkOutcome {
        scenario,
        divergence,
        attempts,
    })
}

/// Candidate single-step reductions, most aggressive first.
fn reductions(s: &MachineScenario) -> Vec<MachineScenario> {
    let mut out = Vec::new();
    if s.window > 400 {
        let mut c = s.clone();
        c.window = (s.window / 2).max(400);
        out.push(c);
    }
    if s.warmup > 0 {
        let mut c = s.clone();
        c.warmup = s.warmup / 2;
        out.push(c);
    }
    if s.fault.is_some() {
        let mut c = s.clone();
        c.fault = None;
        out.push(c);
    }
    if s.migration.is_some() {
        let mut c = s.clone();
        c.migration = None;
        out.push(c);
    }
    if s.shards > 1 {
        // Drop the sharded engine entirely, then try fewer shards — a
        // boundary-protocol bug often needs only two.
        let mut c = s.clone();
        c.shards = 1;
        out.push(c);
        if s.shards > 2 {
            let mut c = s.clone();
            c.shards = s.shards - 1;
            out.push(c);
        }
    }
    if s.watchdog_cycles > 0 {
        let mut c = s.clone();
        c.watchdog_cycles = 0;
        out.push(c);
    }
    if s.timeout_cycles > 0 {
        let mut c = s.clone();
        c.timeout_cycles = 0;
        out.push(c);
    }
    if s.contexts > 1 {
        let mut c = s.clone();
        c.contexts = 1;
        out.push(c);
    }
    if s.mapping != MappingKind::Identity {
        let mut c = s.clone();
        c.mapping = MappingKind::Identity;
        out.push(c);
    }
    if s.topology.is_some() {
        // Collapse to the cube first; cube-only reductions below assume
        // `dims`/`radix` are live.
        let mut c = s.clone();
        c.topology = None;
        out.push(c);
    }
    if s.workload != WorkloadKind::Neighbor {
        let mut c = s.clone();
        c.workload = WorkloadKind::Neighbor;
        out.push(c);
    }
    if s.topology.is_none() && s.dims > 1 {
        let mut c = s.clone();
        c.dims = s.dims - 1;
        out.push(c);
    }
    if s.topology.is_none() && s.radix > 3 {
        let mut c = s.clone();
        c.radix = s.radix - 1;
        out.push(c);
    }
    if s.switch_cycles > 0 {
        let mut c = s.clone();
        c.switch_cycles = 0;
        out.push(c);
    }
    if s.work > 1 {
        let mut c = s.clone();
        c.work = (s.work / 2).max(1);
        out.push(c);
    }
    if s.trace_capacity > 0 {
        let mut c = s.clone();
        c.trace_capacity = 0;
        out.push(c);
    }
    let defaults = MemConfig::default();
    if s.processing_cycles != defaults.processing_cycles {
        let mut c = s.clone();
        c.processing_cycles = defaults.processing_cycles;
        out.push(c);
    }
    if s.memory_cycles != defaults.memory_cycles {
        let mut c = s.clone();
        c.memory_cycles = defaults.memory_cycles;
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_generation_is_deterministic_and_valid() {
        for seed in 0..200u64 {
            let a = MachineScenario::from_seed(seed);
            let b = MachineScenario::from_seed(seed);
            assert_eq!(a, b, "seed {seed} not deterministic");
            assert!((1..=3).contains(&a.dims));
            assert!(a.nodes() >= 4 && a.nodes() <= 27, "seed {seed}");
            assert!(a.contexts == 1 || a.contexts == 2 || a.contexts == 4);
            assert!(a.clock_ratio == 1 || a.clock_ratio == 2);
            assert!(a.window >= 800);
            assert!((1..=6).contains(&a.processing_cycles), "seed {seed}");
            assert!(a.memory_cycles <= 12, "seed {seed}");
            assert!(
                a.shards >= 1 && a.shards <= a.total_nodes(),
                "seed {seed}: shards {} out of range",
                a.shards
            );
            if let Some(m) = a.migration {
                assert!(m.wedge_threshold >= 200, "seed {seed}");
                assert!(m.max_migrations < 5, "seed {seed}");
            }
            if let Some(spec) = &a.fault {
                if a.topology.is_some() {
                    assert!(
                        spec.kills.is_empty() && spec.link_stalls.is_empty(),
                        "seed {seed}: (dim, dir) faults are cube-only"
                    );
                }
            }
        }
    }

    #[test]
    fn scenario_space_covers_every_topology_family_and_workload() {
        let scenarios: Vec<MachineScenario> = (0..200u64).map(MachineScenario::from_seed).collect();
        for family in ["cube", "mesh", "fattree", "dragonfly"] {
            assert!(
                scenarios.iter().any(|s| match &s.topology {
                    None => family == "cube",
                    Some(t) => t.family() == family,
                }),
                "no {family} draw in 200 seeds"
            );
        }
        assert!(scenarios
            .iter()
            .any(|s| matches!(s.workload, WorkloadKind::Hotspot { .. })));
        assert!(scenarios
            .iter()
            .any(|s| s.workload == WorkloadKind::Transpose));
        assert!(scenarios
            .iter()
            .any(|s| s.workload == WorkloadKind::Neighbor));
        // Non-cube draws must also mix with shards so the three-way
        // lockstep exercises shard boundaries through switch nodes.
        assert!(
            scenarios
                .iter()
                .any(|s| s.topology.is_some() && s.shards > 1),
            "no sharded non-cube draw in 200 seeds"
        );
    }

    #[test]
    fn noncube_scenarios_run_clean() {
        // A few seeds from each non-cube family must hold the lockstep.
        let mut checked = std::collections::BTreeMap::new();
        for seed in 0..400u64 {
            let s = MachineScenario::from_seed(seed);
            let Some(t) = &s.topology else { continue };
            let family = t.family();
            if *checked.get(family).unwrap_or(&0) >= 2 {
                continue;
            }
            *checked.entry(family).or_insert(0) += 1;
            if let Err(d) = run_seed(seed) {
                panic!("seed {seed} ({family}): {d}");
            }
            if checked.len() == 3 && checked.values().all(|&n| n >= 2) {
                break;
            }
        }
        assert_eq!(checked.len(), 3, "missing families: {checked:?}");
    }

    #[test]
    fn sharded_scenarios_appear_and_run_clean() {
        // The scenario space must actually contain sharded draws across
        // several shard counts, a few such seeds must hold the three-way
        // lockstep, and at least one must fast-forward (so the sharded
        // machine's jumps are compared, not just its per-cycle steps).
        // Nodes sleep through compute runs, so a drained sharded machine
        // jumps often: the first sharded draw, seed 0, already does, and
        // the first four draws are the scan.
        let drawn: Vec<MachineScenario> = (0..500u64)
            .map(MachineScenario::from_seed)
            .filter(|s| s.shards > 1)
            .collect();
        let counts: std::collections::BTreeSet<usize> = drawn.iter().map(|s| s.shards).collect();
        assert!(
            drawn.len() >= 5 && counts.len() >= 2,
            "expected sharded draws over several shard counts in 500 seeds: {counts:?}"
        );
        let mut fast_forwarded = 0;
        for s in drawn.iter().take(4) {
            match run_scenario(s) {
                Ok(report) => fast_forwarded += report.fast_forwarded,
                Err(d) => panic!("seed {}: {d}", s.seed),
            }
        }
        assert!(fast_forwarded > 0, "no sharded draw fast-forwarded");
    }

    #[test]
    fn migration_scenarios_appear_and_run_clean() {
        // Policies must be drawn on sharded machines and on non-cube
        // fabrics, and such seeds must hold the lockstep — migrations
        // included — with at least one of them actually migrating.
        let drawn: Vec<MachineScenario> = (0..100u64)
            .map(MachineScenario::from_seed)
            .filter(|s| s.migration.is_some())
            .collect();
        let sharded: Vec<u64> = drawn
            .iter()
            .filter(|s| s.shards > 1)
            .map(|s| s.seed)
            .collect();
        let noncube: Vec<u64> = drawn
            .iter()
            .filter(|s| s.topology.is_some())
            .map(|s| s.seed)
            .collect();
        assert!(
            sharded.len() >= 3,
            "expected policies on sharded machines in 100 seeds: {sharded:?}"
        );
        assert!(
            noncube.len() >= 3,
            "expected policies on non-cube fabrics in 100 seeds: {noncube:?}"
        );
        let mut migrations = 0;
        for s in &drawn {
            match run_scenario(s) {
                Ok(report) => migrations += report.migrations,
                Err(d) => panic!("seed {}: {d}", s.seed),
            }
        }
        assert!(migrations > 0, "no drawn policy migrated: {drawn:?}");
    }

    #[test]
    fn machine_fuzz_sweep_short() {
        // A quick slice of the sweep; CI runs hundreds of seeds through
        // `commloc fuzz --machine`.
        for seed in 0..12u64 {
            if let Err(d) = run_seed(seed) {
                panic!("seed {seed}: {d}");
            }
        }
    }

    #[test]
    fn machine_fuzz_repro_seed_5() {
        // Shrunk from sweep seed 5: a 5x5 torus under three shards whose
        // boundaries cut rows mid-way, dense work=1 traffic, and a
        // swapped mapping. Caught the sharded engine losing slab
        // bookkeeping for worms that cross a shard boundary and return.
        let scenario = MachineScenario {
            seed: 5,
            dims: 2,
            radix: 5,
            contexts: 1,
            clock_ratio: 2,
            switch_cycles: 0,
            work: 1,
            timeout_cycles: 0,
            max_retries: 8,
            watchdog_cycles: 0,
            mapping: MappingKind::Swaps(2555218086),
            trace_capacity: 0,
            warmup: 0,
            window: 400,
            fault: None,
            migration: None,
            shards: 3,
            topology: None,
            workload: WorkloadKind::Neighbor,
            processing_cycles: 2,
            memory_cycles: 5,
        };
        run_scenario(&scenario).expect("active and sharded machines must agree");
    }

    #[test]
    fn machine_fuzz_repro_seed_337() {
        // Shrunk from sweep seed 337: a 3-node ring under two shards
        // wedges after a drop, and the watchdog trips while a flit is
        // crossing the shard boundary. The one-shard fabric holds that
        // flit on its link between cycles, so the sharded stall report
        // must not count it as buffered.
        let scenario = MachineScenario {
            seed: 337,
            dims: 1,
            radix: 3,
            contexts: 1,
            clock_ratio: 1,
            switch_cycles: 0,
            work: 2,
            timeout_cycles: 0,
            max_retries: 8,
            watchdog_cycles: 2261,
            mapping: MappingKind::Identity,
            trace_capacity: 0,
            warmup: 639,
            window: 1900,
            fault: Some(FaultSpec {
                drop_rate: 0.007975625539519917,
                corrupt_rate: 0.0,
                stall_rate: 0.0,
                stall_window: 51,
                kills: vec![],
                link_stalls: vec![],
                router_stalls: vec![],
            }),
            migration: None,
            shards: 2,
            topology: None,
            workload: WorkloadKind::Neighbor,
            processing_cycles: 2,
            memory_cycles: 5,
        };
        let report = run_scenario(&scenario).expect("active and sharded machines must agree");
        assert!(report.stalled, "the scenario must end in a watchdog trip");
    }

    #[test]
    fn differential_matrix_every_topology_times_traffic() {
        // The cross-scenario gate: every topology family x every traffic
        // generator, three engines each (active, reference, and the
        // shard-parallel machine via `shards: 2`), bit-exact. Unlike the
        // fuzz sweep this matrix is exhaustive and deterministic, so a
        // regression in any single pair fails by name.
        let topologies: [Option<Topology>; 4] = [
            None, // the 3x3 cube spelled through dims/radix
            Some(Topology::mesh(3, 3)),
            Some(Topology::fat_tree(2, 2)),
            Some(Topology::dragonfly(2, 1)),
        ];
        let workloads = [
            WorkloadKind::Neighbor,
            WorkloadKind::Hotspot { targets: 2 },
            WorkloadKind::Transpose,
        ];
        for (ti, topology) in topologies.iter().enumerate() {
            for (wi, workload) in workloads.iter().enumerate() {
                let scenario = MachineScenario {
                    seed: (ti * 16 + wi) as u64,
                    dims: 2,
                    radix: 3,
                    contexts: 2,
                    clock_ratio: 2,
                    switch_cycles: 2,
                    work: 2,
                    timeout_cycles: 0,
                    max_retries: 8,
                    watchdog_cycles: 0,
                    mapping: MappingKind::Random(0xC0FFEE + (ti * 3 + wi) as u64),
                    trace_capacity: 32,
                    warmup: 200,
                    window: 800,
                    fault: None,
                    migration: None,
                    shards: 2,
                    topology: topology.clone(),
                    workload: *workload,
                    processing_cycles: 2,
                    memory_cycles: 5,
                };
                let label = topology
                    .as_ref()
                    .map_or_else(|| "cube:2x3".to_owned(), Topology::canonical);
                let report = run_scenario(&scenario)
                    .unwrap_or_else(|d| panic!("{label} x {workload:?} diverged: {d}"));
                assert!(
                    report.completions > 0,
                    "{label} x {workload:?} completed no transactions — the pair proves \
                     nothing"
                );
            }
        }
    }

    #[test]
    fn mutation_trips_the_machine_checker() {
        // A longer grain on the reference machine must desynchronize the
        // engines; if the checker cannot see that, it verifies nothing.
        let tripped = (0..4u64).any(|seed| {
            let scenario = MachineScenario::from_seed(seed);
            run_scenario_mutated(&scenario, Some(MachineMutation::SkewWork)).is_err()
        });
        assert!(tripped, "SkewWork never diverged across 4 seeds");
    }

    #[test]
    fn shrinker_minimizes_and_prints_machine_repro() {
        let scenario = MachineScenario::from_seed(1);
        let outcome =
            shrink(&scenario, Some(MachineMutation::SkewWork)).expect("mutated scenario must fail");
        assert!(outcome.scenario.window <= scenario.window);
        let repro = outcome.repro_test();
        assert!(repro.contains("machine_fuzz_repro_seed_1"));
        assert!(repro.contains("MachineScenario {"));
        assert!(repro.contains("processing_cycles: ") && repro.contains("memory_cycles: "));
        // Link faults print bare directions, which the repro imports.
        let faulted = MachineShrinkOutcome {
            scenario: MachineScenario {
                fault: Some(FaultSpec {
                    drop_rate: 0.0,
                    corrupt_rate: 0.0,
                    stall_rate: 0.0,
                    stall_window: 8,
                    kills: vec![(300, 2, 0, Direction::Plus)],
                    link_stalls: vec![(500, 4, 1, Direction::Minus, 60)],
                    router_stalls: Vec::new(),
                }),
                ..outcome.scenario
            },
            ..outcome
        };
        let repro = faulted.repro_test();
        assert!(
            repro.contains("use commloc_net::Direction::{Minus, Plus};"),
            "{repro}"
        );
        assert!(repro.contains("kills: vec![(300, 2, 0, Plus)]"), "{repro}");
        assert!(
            repro.contains("link_stalls: vec![(500, 4, 1, Minus, 60)]"),
            "{repro}"
        );
    }

    #[test]
    fn shrink_returns_none_for_passing_machine_scenario() {
        let scenario = MachineScenario::from_seed(0);
        assert!(shrink(&scenario, None).is_none());
    }
}
