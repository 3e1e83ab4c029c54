//! Machine-lockstep differential fuzzing: the one machine checker, at
//! every shard and worker count.
//!
//! Each seed draws a random full-machine scenario — torus shape, context
//! count, clock ratio, mapping, retry/timeout configuration, controller
//! occupancy, watchdog window, an optional fault plan (including one-off
//! exact-cycle delay events), an optional work-stealing migration policy,
//! a shard count and a worker count — and runs two or three [`Machine`]s
//! over it in lockstep: one stepped by the active-node engine
//! ([`Machine::new`]), one by the reference loop
//! ([`Machine::new_reference`]), and on sharded draws a
//! [`Machine::with_shards`] stepped on the drawn number of workers. The
//! checker requires **bit-identical** behavior: completion counts (total
//! and per node), measurements, latency breakdowns, fault logs,
//! migrations, and — when the scenario wedges — the watchdog's stall
//! report, down to the trip cycle. The sharded machine runs the active
//! engine's traced config and must also match its fast-forward count and
//! its merged flit trace and span log; the reference engine runs
//! untraced, so tracing is proven behavior-neutral.
//!
//! [`run_scenario`] is the only place engines, shard counts and worker
//! counts are compared: the hand-built equivalence cases (watchdog trips,
//! retry gaps, migration, traced shards) are [`MachineScenario`]s in this
//! module's tests. Failing seeds shrink through the same greedy
//! fixed-point loop as the fabric fuzzer ([`commloc_net::fuzz::shrink_with`])
//! and render a ready-to-paste repro test. The
//! `commloc fuzz --machine --seeds N` subcommand drives sweeps from CI.

use crate::error::SimError;
use crate::machine::{Machine, SimConfig};
use crate::mapping::Mapping;
use crate::resilience::WorkStealingPolicy;
use crate::workload::Workload;
use commloc_mem::MemConfig;
use commloc_net::fuzz::{
    catch_panic, fault_expr, shrink_with, topology_expr, Divergence, FaultSpec,
};
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
    /// Worker threads stepping the sharded machine (`1..=shards`; `1`
    /// when unsharded).
    pub jobs: usize,
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
        // The sharded machine's workers, drawn after those for that reason.
        let jobs = 1 + rng.index(shards);
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
            jobs,
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
    /// The drawn worker count the sharded machine stepped on.
    pub jobs: usize,
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
        } else if self.machine.fast_forwarded_cycles() > 0 {
            // The oracle steps every cycle: it shares no jump it checks.
            return Err(Divergence {
                cycle,
                what: "the reference engine fast-forwarded".into(),
            });
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
/// is the expected outcome), a panic inside the run included.
pub fn run_scenario_mutated(
    scenario: &MachineScenario,
    mutation: Option<MachineMutation>,
) -> Result<MachineFuzzReport, Divergence> {
    catch_panic(|| lockstep(scenario, mutation).map(|(report, ..)| report))
}

/// [`run_scenario_mutated`], also returning the checked traced machine
/// (the sharded one if drawn, else the active) and the error the runs stopped on.
fn lockstep(
    scenario: &MachineScenario,
    mutation: Option<MachineMutation>,
) -> Result<(MachineFuzzReport, Machine, Option<SimError>), Divergence> {
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
    // sharded draws, stepped on the drawn workers. The process job budget
    // is raised to them, so they run even on hosts with fewer cores.
    if scenario.shards > 1 {
        crate::parallel::set_job_budget(scenario.jobs);
        let mut machine = Machine::with_shards(&traced, &mapping, scenario.shards);
        machine.set_jobs(scenario.jobs);
        sides.push(Participant {
            side: "sharded",
            machine,
            sharded: true,
        });
    }
    if let Some(policy) = scenario.migration {
        active.set_migration(policy);
        for p in &mut sides {
            p.machine.set_migration(policy);
        }
    }

    let mut stop = None;
    'phases: for (name, cycles) in [("warmup", scenario.warmup), ("window", scenario.window)] {
        let mut left = cycles;
        while left > 0 {
            let chunk = left.min(CHECK_INTERVAL);
            let ra = active.run_network_cycles(chunk);
            let now = Some(active.net_cycle());
            for p in &mut sides {
                let rb = p.machine.run_network_cycles(chunk);
                p.check(now, &format!("{name} step result"), &ra, &rb)?;
                p.compare(now, &active, false)?;
            }
            if let Err(e) = ra {
                // All engines stalled with the identical report and
                // records: the run ends here on every side.
                stop = Some(e);
                break 'phases;
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
    let report = MachineFuzzReport {
        completions: active.completions(),
        net_cycles: active.net_cycle(),
        stalled: stop.is_some(),
        fast_forwarded: active.fast_forwarded_cycles(),
        migrations: active.migrations().len(),
        shards: scenario.shards,
        jobs: scenario.jobs,
    };
    let traced = sides
        .pop()
        .filter(|p| p.sharded)
        .map_or(active, |p| p.machine);
    Ok((report, traced, stop))
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
             migration: {migration},\n        shards: {shards},\n        jobs: {jobs},\n        \
             topology: {topology},\n        \
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
            jobs = s.jobs,
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
        c.jobs = 1;
        out.push(c);
        if s.shards > 2 {
            let mut c = s.clone();
            c.shards = s.shards - 1;
            c.jobs = s.jobs.min(c.shards);
            out.push(c);
        }
    }
    // One worker, then one fewer: a worker-path bug often needs two.
    for jobs in (1..s.jobs).filter(|&j| j == 1 || j == s.jobs - 1) {
        out.push(MachineScenario { jobs, ..s.clone() });
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
    use crate::error::StallKind;

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
            assert!(
                (1..=a.shards).contains(&a.jobs),
                "seed {seed}: {} jobs on {} shards",
                a.jobs,
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
    fn worker_draws_span_the_scenario_space() {
        // More than one worker is drawn at every shard count and on a
        // non-cube fabric, so a sweep steps the worker path on each.
        let drawn: Vec<MachineScenario> = (0..200u64)
            .map(MachineScenario::from_seed)
            .filter(|s| s.jobs > 1)
            .collect();
        for shards in 2..=4 {
            assert!(
                drawn.iter().any(|s| s.shards == shards),
                "no draw of {shards} shards on several workers in 200 seeds"
            );
        }
        assert!(
            drawn.iter().any(|s| s.topology.is_some()),
            "no non-cube draw on several workers in 200 seeds"
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
            jobs: 1,
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
            jobs: 1,
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
                let mut scenario = small().on(2, 1).cycles(200, 800);
                scenario.seed = (ti * 16 + wi) as u64;
                (scenario.radix, scenario.contexts) = (3, 2);
                (scenario.switch_cycles, scenario.work) = (2, 2);
                scenario.watchdog_cycles = 0;
                scenario.trace_capacity = 32;
                scenario.mapping = MappingKind::Random(0xC0FFEE + (ti * 3 + wi) as u64);
                (scenario.topology, scenario.workload) = (topology.clone(), *workload);
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
    fn a_panic_inside_a_run_is_a_divergence() {
        // A sweep names the seed and shrinks it rather than aborting.
        let scenario = MachineScenario {
            contexts: 0,
            ..MachineScenario::from_seed(0)
        };
        let d = run_scenario(&scenario).expect_err("a processor without contexts panics");
        assert_eq!(d.cycle, None);
        let expected = "panic: a processor needs at least one context";
        assert!(d.what.starts_with(expected), "{d}");
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
        assert!(repro.contains("jobs: "), "{repro}");
        // Link faults print bare directions, which the repro imports.
        let mut fault = lossy(0.0, 0.0);
        fault.kills.push((300, 2, 0, Direction::Plus));
        fault.link_stalls.push((500, 4, 1, Direction::Minus, 60));
        let mut faulted = outcome;
        faulted.scenario.fault = Some(fault);
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

    // Hand-built equivalence cases: engines, shard counts and worker
    // counts compared by the one checker, on scenarios chosen for a
    // property (a watchdog trip, jumped retry gaps, migration, evicting
    // trace rings) rather than drawn.

    /// The 4×4 cube with the default workload, memory and processors, on
    /// one shard and one job. The reference engine is O(nodes) per
    /// boundary, so 16 nodes keep the lockstep runs fast.
    fn small() -> MachineScenario {
        let (sim, mem) = (SimConfig::default(), MemConfig::default());
        MachineScenario {
            seed: 0,
            dims: 2,
            radix: 4,
            contexts: sim.contexts,
            clock_ratio: sim.clock_ratio,
            switch_cycles: sim.switch_cycles,
            work: sim.work,
            timeout_cycles: mem.timeout_cycles,
            max_retries: mem.max_retries,
            watchdog_cycles: sim.watchdog_cycles,
            mapping: MappingKind::Identity,
            trace_capacity: 0,
            warmup: 0,
            window: 0,
            fault: None,
            migration: None,
            shards: 1,
            jobs: 1,
            topology: None,
            workload: WorkloadKind::Neighbor,
            processing_cycles: mem.processing_cycles,
            memory_cycles: mem.memory_cycles,
        }
    }

    impl MachineScenario {
        /// On `shards` shards stepped by `jobs` workers.
        fn on(mut self, shards: usize, jobs: usize) -> Self {
            (self.shards, self.jobs) = (shards, jobs);
            self
        }

        /// `warmup` cycles, a measurement reset, then `window` cycles; one
        /// `run_network_cycles(n)` is `cycles(n, 0)`.
        fn cycles(mut self, warmup: u64, window: u64) -> Self {
            (self.warmup, self.window) = (warmup, window);
            self
        }

        /// Under `spec`, built as `FaultPlan::new(seed)`.
        fn faults(mut self, seed: u64, spec: FaultSpec) -> Self {
            (self.seed, self.fault) = (seed, Some(spec));
            self
        }
    }

    /// Drops and corruptions at these rates, and no other fault: the
    /// plan `FaultPlan::with_config` builds from them.
    fn lossy(drop_rate: f64, corrupt_rate: f64) -> FaultSpec {
        FaultSpec {
            drop_rate,
            corrupt_rate,
            stall_rate: 0.0,
            stall_window: 64,
            kills: Vec::new(),
            link_stalls: Vec::new(),
            router_stalls: Vec::new(),
        }
    }

    /// Runs the checker, naming the case on a divergence: the report,
    /// the checked traced machine and the error the run stopped on.
    fn check(s: &MachineScenario) -> (MachineFuzzReport, Machine, Option<SimError>) {
        lockstep(s, None).unwrap_or_else(|d| panic!("{s:?}: {d}"))
    }

    /// A link killed at cycle 1,000 wedges the transactions routed over
    /// it; the fabric never drains behind it, so the watchdog trip is
    /// stepped to, not jumped to.
    fn killed_link() -> MachineScenario {
        let mut kill = lossy(0.0, 0.0);
        kill.kills.push((1_000, 0, 0, Direction::Plus));
        let mut s = small().faults(7, kill).cycles(200_000, 0);
        s.watchdog_cycles = 3_000;
        s
    }

    /// A router stalled far longer than the watchdog window: the
    /// watchdog fires mid-stall and must blame backpressure.
    fn stalled_router() -> MachineScenario {
        let mut stall = lossy(0.0, 0.0);
        stall.router_stalls.push((1_000, 5, 50_000));
        let mut s = small().faults(3, stall).cycles(60_000, 0);
        s.watchdog_cycles = 2_000;
        s
    }

    /// Drops against long retry timeouts leave every node blocked on a
    /// retry deadline with the fabric drained: the gaps fast-forward.
    fn retry_gaps(drop_rate: f64, timeout_cycles: u32, watchdog_cycles: u64) -> MachineScenario {
        let mut s = small().faults(23, lossy(drop_rate, 0.0));
        (s.timeout_cycles, s.max_retries) = (timeout_cycles, 30);
        s.watchdog_cycles = watchdog_cycles;
        s
    }

    /// Unretried drops: every dropped message wedges one thread for
    /// good, so without migration the watchdog trips.
    fn wedging(drop_rate: f64) -> MachineScenario {
        let mut s = small().faults(41, lossy(drop_rate, 0.0));
        s.watchdog_cycles = 30_000;
        s
    }

    /// The wedging scenario under a policy that offers each wedged
    /// thread at age 2,000, far below the watchdog window.
    fn stealing(warmup: u64) -> MachineScenario {
        let mut s = wedging(0.05).cycles(warmup, 0);
        s.migration = Some(WorkStealingPolicy {
            steal_latency: 300,
            wedge_threshold: 2_000,
            max_migrations: 10_000,
        });
        s
    }

    #[test]
    fn traced_shards_merge_into_the_one_shard_rings() {
        // Rings far smaller than a window's events evict all along, so
        // the merge must keep exactly the newest events across shards.
        let mut lossy_cube = small().faults(3, lossy(0.01, 0.0));
        (lossy_cube.contexts, lossy_cube.timeout_cycles) = (2, 2_000);
        let mut fat_tree = small();
        fat_tree.topology = Some(Topology::fat_tree(2, 4));
        fat_tree.mapping = MappingKind::Random(4);
        for scenario in [lossy_cube, fat_tree] {
            for jobs in [1, 2] {
                let mut s = scenario.clone().on(3, jobs).cycles(3_000, 6_000);
                s.trace_capacity = 64;
                let (_, machine, _) = check(&s);
                let trace = machine.trace().expect("tracing is on");
                let spans = machine.spans().expect("tracing is on");
                assert!(trace.recorded() > 64 && spans.recorded() > 64);
                assert_eq!((trace.len(), spans.len()), (64, 64));
                let dropped = machine.fault_log().map(|log| log.dropped_messages());
                assert_eq!(dropped > Some(0), s.fault.is_some());
            }
        }
    }

    #[test]
    fn sharded_serial_matches_monolithic_across_shard_counts() {
        for shards in [2, 3, 7] {
            check(&small().on(shards, 1).cycles(6_000, 14_000));
        }
        let mut s = small().on(4, 1).cycles(6_000, 14_000);
        s.mapping = MappingKind::Random(5);
        check(&s);
    }

    #[test]
    fn sharded_matches_with_multiple_contexts() {
        let mut s = small().on(3, 1).cycles(5_000, 12_000);
        (s.contexts, s.mapping) = (2, MappingKind::Random(9));
        check(&s);
    }

    #[test]
    fn sharded_matches_on_three_d_torus() {
        let mut s = small().on(5, 1).cycles(5_000, 12_000);
        (s.dims, s.radix) = (3, 3);
        check(&s);
    }

    #[test]
    fn sharded_matches_under_random_faults() {
        for shards in [2, 4] {
            let mut s = small().faults(13, lossy(0.002, 0.001)).on(shards, 1);
            s.timeout_cycles = 2_000;
            check(&s.cycles(6_000, 14_000));
        }
    }

    #[test]
    fn sharded_fast_forward_through_retry_gaps_matches_one_shard() {
        // The machine bench's retry-gap scenario: the machine must jump
        // its gaps at every shard and worker count, bit-exact with one
        // shard.
        for (shards, jobs) in [(2, 1), (4, 1), (4, 2), (3, 3)] {
            let s = retry_gaps(0.05, 8_000, 60_000).on(shards, jobs);
            let (report, ..) = check(&s.cycles(20_000, 100_000));
            assert!(report.fast_forwarded > 0, "no gap was jumped: {report:?}");
        }
    }

    #[test]
    fn sharded_watchdog_trips_with_identical_diagnostics() {
        // The centralized watchdog must reproduce the one-shard trip
        // cycle and merged report.
        assert!(check(&killed_link().on(3, 1)).0.stalled);
    }

    #[test]
    fn sharded_backpressure_classification_matches() {
        check(&stalled_router().on(2, 1));
    }

    #[test]
    fn parallel_workers_match_serial_and_monolithic() {
        for jobs in [2, 3] {
            check(&small().on(4, jobs).cycles(6_000, 14_000));
        }
        // Under faults too.
        let mut s = small().faults(21, lossy(0.002, 0.0)).on(4, 2);
        (s.timeout_cycles, s.mapping) = (2_000, MappingKind::Random(2));
        check(&s.cycles(6_000, 14_000));
    }

    #[test]
    fn parallel_watchdog_trip_matches_monolithic() {
        assert!(check(&killed_link().on(4, 2)).0.stalled);
    }

    #[test]
    fn watchdog_trips_identically_across_engines_on_killed_link() {
        // The active engine cannot fast-forward past the wedge, yet must
        // trip on the cycle, and with the diagnostics, of exhaustive
        // stepping.
        let (.., stop) = check(&killed_link());
        let Some(SimError::Stalled(stall)) = stop else {
            panic!("expected a stall, got {stop:?}");
        };
        assert_eq!(stall.kind, StallKind::Deadlock);
    }

    #[test]
    fn watchdog_backpressure_classification_matches_across_engines() {
        if let (_, _, Some(SimError::Stalled(stall))) = check(&stalled_router()) {
            assert_eq!(stall.kind, StallKind::Backpressure);
        }
    }

    #[test]
    fn fast_forward_through_retry_gaps_is_invisible_and_does_not_false_trip() {
        // Heavy drops carve gaps the active engine must jump while the
        // watchdog, its window larger than any gap, stays quiet (and the
        // checker holds the reference engine to no jump).
        let (report, ..) = check(&retry_gaps(0.15, 3_000, 40_000).cycles(60_000, 0));
        assert!(!report.stalled && report.fast_forwarded > 0, "{report:?}");
    }

    #[test]
    fn fast_forward_lands_watchdog_trips_on_the_exact_cycle() {
        // At 15% drops all 16 single-context nodes wedge long before the
        // oldest stuck transaction ages past the window, so the trip is
        // the only future event: the active engine jumps to it and must
        // trip on the cycle the reference engine steps to.
        let (report, ..) = check(&wedging(0.15).cycles(400_000, 0));
        assert!(report.stalled && report.fast_forwarded > 0, "{report:?}");
    }

    #[test]
    fn wedged_node_with_migration_does_not_trip_the_watchdog() {
        // Each wedged thread re-issues its abandoned operation from a new
        // node, so the machine keeps retiring transactions.
        let (report, ..) = check(&stealing(60_000));
        assert!(!report.stalled && report.migrations > 0, "{report:?}");
    }

    #[test]
    fn sharded_migration_is_bit_exact_with_one_shard() {
        // Migrations reach each node through its owning shard after every
        // shard has stepped, so nothing may differ on 1–4 shards and one
        // or two workers.
        for (shards, jobs) in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)] {
            let (report, ..) = check(&stealing(60_000).on(shards, jobs));
            assert!(!report.stalled && report.migrations > 0, "{report:?}");
        }
    }

    #[test]
    fn migration_on_every_fabric_matches_the_reference_engine() {
        // The policy reads distances from the topology, so it places
        // threads on any fabric; each must migrate at least once.
        for topology in [
            Topology::mesh(4, 4),
            Topology::fat_tree(2, 4),
            Topology::dragonfly(2, 2),
        ] {
            let mut s = stealing(40_000);
            s.topology = Some(topology);
            assert!(check(&s).0.migrations > 0, "{s:?}");
        }
    }

    #[test]
    fn engines_agree_across_random_fault_plans() {
        // DetRng-drawn retry settings and fault plans: the always-on
        // slice of what the sweep draws far wider.
        for seed in 0..4u64 {
            let mut rng = DetRng::new(seed ^ 0xD06_F00D);
            let timeout_cycles = if rng.chance(0.5) {
                1_000 + rng.range_u64(0, 2_000) as u32
            } else {
                0
            };
            let max_retries = 1 + rng.range_u64(0, 6) as u32;
            let faults = lossy(rng.range_f64(0.0, 0.01), rng.range_f64(0.0, 0.005));
            let mut s = small().faults(seed, faults).cycles(25_000, 0);
            (s.timeout_cycles, s.max_retries) = (timeout_cycles, max_retries);
            s.watchdog_cycles = 30_000;
            check(&s);
        }
    }
}
