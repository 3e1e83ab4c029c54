//! Differential fuzzing of the optimized [`Fabric`] against the retained
//! [`ReferenceFabric`].
//!
//! A [`FuzzScenario`] is drawn deterministically from a single seed (via
//! the in-tree [`DetRng`] — no external fuzzing framework): a random
//! topology (a torus of 1–3 dimensions, a mesh, a fat tree or a
//! dragonfly), buffering and virtual-channel configuration, trace
//! capacity, open-loop [`TrafficPattern`], and an optional fault plan
//! mixing probabilistic drop / corrupt / stall faults with scheduled link
//! kills and router stalls. [`run_scenario`], the crate's one fabric
//! lockstep checker, then drives both engines under identical
//! [`BernoulliTraffic`] injection schedules and checks:
//!
//! * in test builds, the optimized engine's worklists
//!   (`Fabric::audit_worklists`) on every cycle,
//! * bit-identical [`FabricStats`](crate::FabricStats) every 64 cycles
//!   and after the drain phase,
//! * identical per-node delivery order and contents,
//! * identical fault logs, in-flight populations, and buffered flits,
//! * cross-layer invariants on the optimized engine that the reference
//!   engine cannot express: per-delivery breakdown telescoping
//!   (`MessageBreakdown::total() == Delivery::total_latency()`), the
//!   aggregate [`LatencyBreakdown`](crate::LatencyBreakdown) agreeing
//!   with the stats counters, and message conservation
//!   (`injected == delivered + dropped + in-flight`).
//!
//! On a mismatch, [`shrink`] greedily reduces the failing scenario
//! (fewer cycles, lower rate, no faults, smaller torus, shallower
//! buffers) while re-checking that it still fails, and
//! [`ShrinkOutcome::repro_test`] prints a ready-to-paste `#[test]`
//! function that replays the minimal scenario.
//!
//! `commloc-sim` drives bounded fuzz campaigns through this module from
//! the `commloc fuzz` CLI subcommand and CI.

use crate::fault::FaultPlan;
use crate::message::Message;
use crate::reference::ReferenceFabric;
use crate::rng::DetRng;
use crate::topology::{Direction, NodeId, Topology};
use crate::traffic::{BernoulliTraffic, TrafficPattern};
use crate::{Fabric, FabricConfig};
use std::fmt;

/// Domain-separation constant so scenario generation never shares a
/// stream with the workload draws (which use the raw seed).
const SCENARIO_SALT: u64 = 0x5CE2_A210_D1FF_F0D0;

/// Declarative fault-plan description, kept as plain data (rather than a
/// built [`FaultPlan`]) so the shrinker can drop pieces of it and
/// [`ShrinkOutcome::repro_test`] can print it as a literal.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Probability a message is dropped mid-flight.
    pub drop_rate: f64,
    /// Probability a delivered payload is corrupted.
    pub corrupt_rate: f64,
    /// Per-cycle probability of a transient global stall.
    pub stall_rate: f64,
    /// Length of each transient stall, in cycles.
    pub stall_window: u64,
    /// Scheduled permanent link kills: `(cycle, node, dim, dir)`.
    pub kills: Vec<(u64, usize, u32, Direction)>,
    /// Scheduled transient link stalls: `(cycle, node, dim, dir, window)`.
    pub link_stalls: Vec<(u64, usize, u32, Direction, u64)>,
    /// Scheduled transient router stalls: `(cycle, node, window)`.
    pub router_stalls: Vec<(u64, usize, u64)>,
}

impl FaultSpec {
    /// Builds the concrete [`FaultPlan`] this spec describes, seeded so
    /// both engines draw the identical fault stream.
    pub fn build(&self, seed: u64) -> FaultPlan {
        let mut plan = FaultPlan::new(seed)
            .with_drop_rate(self.drop_rate)
            .with_corrupt_rate(self.corrupt_rate)
            .with_stall_rate(self.stall_rate, self.stall_window);
        for &(cycle, node, dim, dir) in &self.kills {
            plan = plan.kill_link_at(cycle, node, dim, dir);
        }
        for &(cycle, node, dim, dir, window) in &self.link_stalls {
            plan = plan.stall_link_at(cycle, node, dim, dir, window);
        }
        for &(cycle, node, window) in &self.router_stalls {
            plan = plan.stall_router_at(cycle, node, window);
        }
        plan
    }

    /// `true` when the spec describes no faults at all (the shrinker
    /// replaces such specs with `None`).
    pub fn is_empty(&self) -> bool {
        self.drop_rate == 0.0
            && self.corrupt_rate == 0.0
            && self.stall_rate == 0.0
            && self.kills.is_empty()
            && self.link_stalls.is_empty()
            && self.router_stalls.is_empty()
    }
}

/// One randomly drawn differential-test case. All fields are public and
/// plain data so failing cases can be shrunk and replayed literally.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzScenario {
    /// Seed for the workload and fault streams.
    pub seed: u64,
    /// The interconnect under test (cube, mesh, fat tree, or dragonfly).
    pub topology: Topology,
    /// Destination pattern of the workload stream.
    pub traffic: TrafficPattern,
    /// Virtual channels per link (even, ≥ 2).
    pub link_vcs: usize,
    /// Flit capacity of each VC buffer.
    pub vc_buffer_capacity: usize,
    /// Flit capacity of the injection buffer.
    pub injection_buffer_capacity: usize,
    /// Trace ring capacity on the optimized engine (`0` = tracing off);
    /// exercised because tracing must never perturb behavior.
    pub trace_capacity: usize,
    /// Per-node per-cycle injection probability.
    pub rate: f64,
    /// Minimum message length in flits (≥ 1).
    pub min_length: u32,
    /// Maximum message length in flits (≥ `min_length`).
    pub max_length: u32,
    /// Cycles of active injection before the drain phase.
    pub cycles: u64,
    /// Optional fault plan.
    pub fault: Option<FaultSpec>,
}

impl FuzzScenario {
    /// Draws a scenario deterministically from `seed`. The same seed
    /// always yields the same scenario, so a failing seed is a complete
    /// bug report.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = DetRng::new(seed ^ SCENARIO_SALT);
        // Half the seeds stay on the paper's torus (the production
        // geometry); the rest split across the alternative topologies.
        // Shapes are kept small so the (intentionally slow) reference
        // engine stays fast.
        let topology = match rng.index(8) {
            0..=3 => {
                let dims = 1 + rng.index(3) as u32;
                let radix = match dims {
                    1 => 3 + rng.index(14), // rings of 3..=16 nodes
                    2 => 2 + rng.index(5),  // 4..=36 nodes
                    _ => 2 + rng.index(2),  // 8 or 27 nodes
                };
                Topology::cube(dims, radix)
            }
            4 | 5 => Topology::mesh(2 + rng.index(5), 2 + rng.index(5)),
            6 => Topology::fat_tree(2 + rng.index(2), 2 + rng.index(2) as u32),
            _ => Topology::dragonfly(2 + rng.index(2), 1 + rng.index(2)),
        };
        let compute = topology.compute_nodes();
        let traffic = match rng.index(4) {
            0 | 1 => TrafficPattern::Uniform,
            2 => TrafficPattern::Hotspot {
                target: rng.index(compute),
                fraction: rng.range_f64(0.2, 0.9),
            },
            _ => {
                if rng.chance(0.5) {
                    TrafficPattern::Transpose
                } else {
                    TrafficPattern::Bursty {
                        on_off: rng.range_f64(0.01, 0.2),
                        off_on: rng.range_f64(0.01, 0.2),
                    }
                }
            }
        };
        let link_vcs = if rng.chance(0.5) { 2 } else { 4 };
        let caps = [1usize, 2, 4, 8, 16];
        let vc_buffer_capacity = caps[rng.index(caps.len())];
        let injection_buffer_capacity = caps[rng.index(caps.len())];
        let trace_capacity = if rng.chance(0.3) { 32 } else { 0 };
        let rate = rng.range_f64(0.005, 0.08);
        let min_length = 1 + rng.index(4) as u32;
        let max_length = min_length + rng.index(12) as u32;
        let cycles = rng.range_u64(200, 1_200);
        let nodes = topology.nodes();
        let cube_dims = match &topology {
            Topology::Cube(t) => Some(t.dims()),
            _ => None,
        };
        let fault = if rng.chance(0.5) {
            let mut spec = FaultSpec {
                drop_rate: if rng.chance(0.6) {
                    rng.range_f64(0.0, 0.02)
                } else {
                    0.0
                },
                corrupt_rate: if rng.chance(0.4) {
                    rng.range_f64(0.0, 0.03)
                } else {
                    0.0
                },
                stall_rate: if rng.chance(0.4) {
                    rng.range_f64(0.0, 0.01)
                } else {
                    0.0
                },
                stall_window: rng.range_u64(8, 64),
                kills: Vec::new(),
                link_stalls: Vec::new(),
                router_stalls: Vec::new(),
            };
            // Scheduled link faults address links as (dim, direction)
            // pairs, which only exist on the torus; the probabilistic
            // drop/corrupt/stall faults above are port-generic and cover
            // every topology.
            if let Some(dims) = cube_dims {
                if rng.chance(0.25) {
                    spec.kills.push((
                        rng.range_u64(1, cycles),
                        rng.index(nodes),
                        rng.index(dims as usize) as u32,
                        if rng.chance(0.5) {
                            Direction::Plus
                        } else {
                            Direction::Minus
                        },
                    ));
                }
                if rng.chance(0.25) {
                    spec.link_stalls.push((
                        rng.range_u64(1, cycles),
                        rng.index(nodes),
                        rng.index(dims as usize) as u32,
                        if rng.chance(0.5) {
                            Direction::Plus
                        } else {
                            Direction::Minus
                        },
                        rng.range_u64(20, 200),
                    ));
                }
            }
            if rng.chance(0.25) {
                spec.router_stalls.push((
                    rng.range_u64(1, cycles),
                    rng.index(nodes),
                    rng.range_u64(20, 200),
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
        Self {
            seed,
            topology,
            traffic,
            link_vcs,
            vc_buffer_capacity,
            injection_buffer_capacity,
            trace_capacity,
            rate,
            min_length,
            max_length,
            cycles,
            fault,
        }
    }

    /// The fabric configuration this scenario describes, with tracing on
    /// for the optimized engine only when `traced` is set (the reference
    /// engine has no trace buffer — tracing must not change behavior).
    fn config(&self, traced: bool) -> FabricConfig {
        FabricConfig {
            link_vcs: self.link_vcs,
            vc_buffer_capacity: self.vc_buffer_capacity,
            injection_buffer_capacity: self.injection_buffer_capacity,
            trace_capacity: if traced { self.trace_capacity } else { 0 },
        }
    }

    /// Number of compute nodes in the scenario's topology — the sources
    /// and destinations of the workload stream.
    pub fn nodes(&self) -> usize {
        self.topology.compute_nodes()
    }

    /// The scenario's open-loop traffic source; every call starts the
    /// same injection schedule.
    fn source(&self) -> BernoulliTraffic {
        BernoulliTraffic::new(
            self.nodes(),
            self.traffic,
            self.rate,
            self.min_length..=self.max_length,
            self.seed,
        )
    }
}

/// An intentional, targeted perturbation of the injection stream seen by
/// the **reference** engine only — the hook used by tests to prove the
/// differential checker and shrinker actually fire (a checker that can
/// never fail verifies nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzMutation {
    /// Lengthen the `n`-th injected message by one flit on the reference
    /// side, desynchronizing flit counts.
    SkewLength(u64),
    /// Reroute the `n`-th injected message to a rotated destination on
    /// the reference side, desynchronizing delivery queues.
    SkewDestination(u64),
}

/// How a lockstep run diverged.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Cycle at which the divergence was detected (`None` for post-drain
    /// checks, which look at final state).
    pub cycle: Option<u64>,
    /// Human-readable description of the first failed check.
    pub what: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.cycle {
            Some(cycle) => write!(f, "divergence at cycle {cycle}: {}", self.what),
            None => write!(f, "divergence after drain: {}", self.what),
        }
    }
}

/// Statistics from one clean lockstep run, so sweeps can report coverage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuzzReport {
    /// Messages injected into each engine.
    pub injected: u64,
    /// Messages delivered by each engine.
    pub delivered: u64,
    /// Messages dropped by fault injection.
    pub dropped: u64,
    /// Messages still wedged in-flight at the end (dead links).
    pub wedged: u64,
    /// Total cycles stepped (active + drain).
    pub cycles: u64,
}

macro_rules! check_eq {
    ($cycle:expr, $a:expr, $b:expr, $what:expr) => {
        if $a != $b {
            return Err(Divergence {
                cycle: $cycle,
                what: format!("{}: optimized {:?} != reference {:?}", $what, $a, $b),
            });
        }
    };
}

/// Bound on the post-injection drain phase: wedged traffic (dead links)
/// stays put forever, so the drain must be bounded.
const DRAIN_CYCLES: u64 = 20_000;

/// Runs a scenario's lockstep differential check. See the module docs
/// for the full list of properties verified.
///
/// # Errors
///
/// Returns the first [`Divergence`] between the two engines (or an
/// invariant violation on the optimized engine).
pub fn run_scenario(scenario: &FuzzScenario) -> Result<FuzzReport, Divergence> {
    run_scenario_mutated(scenario, None)
}

/// [`run_scenario`] with an optional intentional mutation applied to the
/// reference engine's injection stream — the test hook proving the
/// checker can fail. Production sweeps pass `None`.
///
/// # Errors
///
/// Returns the first [`Divergence`] detected (which, under a mutation,
/// is the expected outcome).
pub fn run_scenario_mutated(
    scenario: &FuzzScenario,
    mutation: Option<FuzzMutation>,
) -> Result<FuzzReport, Divergence> {
    let topology = scenario.topology.clone();
    let nodes = topology.compute_nodes();
    let mut opt: Fabric<u64> = match &scenario.fault {
        Some(spec) => Fabric::with_fault_plan(
            topology.clone(),
            scenario.config(true),
            spec.build(scenario.seed),
        ),
        None => Fabric::new(topology.clone(), scenario.config(true)),
    };
    let mut reference: ReferenceFabric<u64> = match &scenario.fault {
        Some(spec) => ReferenceFabric::with_fault_plan(
            topology,
            scenario.config(false),
            spec.build(scenario.seed),
        ),
        None => ReferenceFabric::new(topology, scenario.config(false)),
    };

    // Two mirrored workload streams (same seed) keep the injection
    // schedules identical without sharing a generator.
    let mut load = scenario.source();
    let mut mirror = scenario.source();
    let mut injected = 0u64;
    for cycle in 0..scenario.cycles {
        for m in load.pulse() {
            opt.inject(m);
        }
        for m in mirror.pulse() {
            let m = match mutation {
                Some(FuzzMutation::SkewLength(n)) if injected == n => {
                    Message::new(m.src, m.dst, m.length + 1, m.payload)
                }
                Some(FuzzMutation::SkewDestination(n)) if injected == n => {
                    let dst = NodeId((m.dst.0 + 1) % nodes);
                    Message::new(m.src, dst, m.length, m.payload)
                }
                _ => m,
            };
            injected += 1;
            reference.inject(m);
        }
        step_both(&mut opt, &mut reference, cycle)?;
        if cycle % 64 == 0 {
            check_eq!(Some(cycle), opt.stats(), reference.stats(), "stats");
        }
    }
    // Drain (bounded: traffic wedged behind killed links never leaves).
    let mut drained = 0u64;
    while drained < DRAIN_CYCLES && (opt.in_flight() > 0 || reference.in_flight() > 0) {
        step_both(&mut opt, &mut reference, scenario.cycles + drained)?;
        drained += 1;
    }

    check_eq!(None, opt.cycle(), reference.cycle(), "cycle count");
    check_eq!(None, opt.stats(), reference.stats(), "final stats");
    check_eq!(
        None,
        opt.total_injected(),
        reference.total_injected(),
        "total injected"
    );
    check_eq!(None, opt.in_flight(), reference.in_flight(), "in-flight");
    check_eq!(
        None,
        opt.buffered_flits(),
        reference.buffered_flits(),
        "buffered flits"
    );
    check_eq!(None, opt.activity(), reference.activity(), "activity");
    check_eq!(None, opt.fault_log(), reference.fault_log(), "fault log");

    // Delivery order/content equality, plus the optimized engine's
    // per-delivery breakdown telescoping invariant.
    let mut delivered = 0u64;
    for node in 0..nodes {
        loop {
            let a = opt.poll_delivery(NodeId(node));
            let b = reference.poll_delivery(NodeId(node));
            check_eq!(None, &a, &b, format!("delivery at node {node}"));
            let Some(delivery) = a else { break };
            delivered += 1;
            let parts = delivery.breakdown();
            if parts.total() != delivery.total_latency() {
                return Err(Divergence {
                    cycle: None,
                    what: format!(
                        "breakdown does not telescope: components sum {} != total latency {} \
                         (message {:?} -> {:?})",
                        parts.total(),
                        delivery.total_latency(),
                        delivery.message.src,
                        delivery.message.dst
                    ),
                });
            }
        }
    }

    // Cross-layer accounting invariants on the optimized engine.
    let stats = opt.stats();
    check_eq!(None, delivered, stats.delivered_messages, "delivered count");
    let breakdown = opt.breakdown();
    check_eq!(
        None,
        breakdown.deliveries,
        stats.delivered_messages,
        "breakdown delivery count"
    );
    check_eq!(
        None,
        breakdown.total(),
        stats.sum_total_latency,
        "breakdown aggregate vs stats latency sum"
    );
    let conserved = delivered + stats.dropped_messages + opt.in_flight() as u64;
    check_eq!(
        None,
        opt.total_injected(),
        conserved,
        "conservation (injected = delivered + dropped + in-flight)"
    );
    if let Some(trace) = opt.trace() {
        if trace.iter().count() > scenario.trace_capacity {
            return Err(Divergence {
                cycle: None,
                what: format!(
                    "trace ring holds {} events, above its capacity {}",
                    trace.iter().count(),
                    scenario.trace_capacity
                ),
            });
        }
    }

    Ok(FuzzReport {
        injected: opt.total_injected(),
        delivered,
        dropped: stats.dropped_messages,
        wedged: opt.in_flight() as u64,
        cycles: opt.cycle(),
    })
}

/// Draws a scenario from `seed` and runs its differential check.
///
/// # Errors
///
/// Returns the first [`Divergence`] between the two engines.
pub fn run_seed(seed: u64) -> Result<FuzzReport, Divergence> {
    run_scenario(&FuzzScenario::from_seed(seed))
}

fn step_both(
    opt: &mut Fabric<u64>,
    reference: &mut ReferenceFabric<u64>,
    cycle: u64,
) -> Result<(), Divergence> {
    let a = opt.step();
    let b = reference.step();
    if a.is_err() || b.is_err() {
        return Err(Divergence {
            cycle: Some(cycle),
            what: format!("step error: optimized {a:?}, reference {b:?}"),
        });
    }
    #[cfg(test)]
    opt.audit_worklists();
    Ok(())
}

/// Result of shrinking a failing scenario to a (locally) minimal one.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The minimal failing scenario found.
    pub scenario: FuzzScenario,
    /// Its divergence.
    pub divergence: Divergence,
    /// Candidate scenarios tried during shrinking.
    pub attempts: u32,
}

impl ShrinkOutcome {
    /// Renders a ready-to-paste `#[test]` function that replays the
    /// minimal failing scenario (paste into any crate that depends on
    /// `commloc-net`).
    pub fn repro_test(&self) -> String {
        let s = &self.scenario;
        let fault = match &s.fault {
            None => "None".to_owned(),
            Some(f) => format!(
                "Some(FaultSpec {{\n            drop_rate: {:?},\n            corrupt_rate: {:?},\n            \
                 stall_rate: {:?},\n            stall_window: {},\n            kills: vec!{:?},\n            \
                 link_stalls: vec!{:?},\n            router_stalls: vec!{:?},\n        }})",
                f.drop_rate,
                f.corrupt_rate,
                f.stall_rate,
                f.stall_window,
                f.kills,
                f.link_stalls,
                f.router_stalls
            ),
        };
        format!(
            "#[test]\nfn fuzz_repro_seed_{seed}() {{\n    use commloc_net::fuzz::{{run_scenario, FaultSpec, FuzzScenario}};\n    \
             use commloc_net::traffic::TrafficPattern;\n    \
             use commloc_net::Direction::{{Minus, Plus}};\n    use commloc_net::Topology;\n    \
             let _ = (Minus, Plus, FaultSpec::is_empty); // used by fault literals\n    \
             let scenario = FuzzScenario {{\n        seed: {seed},\n        topology: {topo},\n        traffic: TrafficPattern::{traffic:?},\n        \
             link_vcs: {vcs},\n        vc_buffer_capacity: {vcap},\n        injection_buffer_capacity: {icap},\n        \
             trace_capacity: {tcap},\n        rate: {rate:?},\n        min_length: {minl},\n        max_length: {maxl},\n        \
             cycles: {cycles},\n        fault: {fault},\n    }};\n    \
             run_scenario(&scenario).expect(\"Fabric and ReferenceFabric must agree\");\n}}\n",
            seed = s.seed,
            topo = topology_expr(&s.topology),
            traffic = s.traffic,
            vcs = s.link_vcs,
            vcap = s.vc_buffer_capacity,
            icap = s.injection_buffer_capacity,
            tcap = s.trace_capacity,
            rate = s.rate,
            minl = s.min_length,
            maxl = s.max_length,
            cycles = s.cycles,
            fault = fault,
        )
    }
}

/// Renders a topology as the constructor expression that recreates it,
/// for ready-to-paste repro tests (the machine fuzzer's repros use it
/// too).
pub fn topology_expr(t: &Topology) -> String {
    match t {
        Topology::Cube(c) => format!("Topology::cube({}, {})", c.dims(), c.radix()),
        Topology::Mesh(m) => {
            let (x, y) = m.shape();
            format!("Topology::mesh({x}, {y})")
        }
        Topology::FatTree(f) => format!("Topology::fat_tree({}, {})", f.arity(), f.levels()),
        Topology::Dragonfly(d) => format!(
            "Topology::dragonfly({}, {})",
            d.routers_per_group(),
            d.globals_per_router()
        ),
    }
}

/// Greedily shrinks a failing scenario: each pass tries a fixed set of
/// reductions (halve the cycle budget, halve the injection rate, drop
/// the fault plan, shorten messages, remove a torus dimension, shrink
/// the radix, shallow the buffers, disable tracing) and keeps any that
/// still fail, looping to a fixed point.
///
/// The `mutation`, if any, is held constant across candidates — it is
/// part of the failure being reproduced.
///
/// Returns `None` if `scenario` does not actually fail.
pub fn shrink(scenario: &FuzzScenario, mutation: Option<FuzzMutation>) -> Option<ShrinkOutcome> {
    let (scenario, divergence, attempts) = shrink_with(
        scenario,
        |s| run_scenario_mutated(s, mutation).err(),
        reductions,
    )?;
    Some(ShrinkOutcome {
        scenario,
        divergence,
        attempts,
    })
}

/// The greedy shrinking loop behind [`shrink`], generic over the scenario
/// and divergence types so the machine-level fuzzer in `commloc-sim` can
/// reuse it with its own scenario space.
///
/// `fails` returns `Some(divergence)` when a candidate still exhibits the
/// failure; `reduce` enumerates candidate single-step reductions, most
/// aggressive first. Each pass keeps the first reduction that still fails
/// and loops to a fixed point, with a hard cap on attempts so shrinking
/// is best-effort, never a hang.
///
/// Returns `None` if `scenario` does not actually fail.
pub fn shrink_with<S: Clone, D>(
    scenario: &S,
    mut fails: impl FnMut(&S) -> Option<D>,
    reduce: impl Fn(&S) -> Vec<S>,
) -> Option<(S, D, u32)> {
    let mut best = scenario.clone();
    let mut divergence = fails(&best)?;
    let mut attempts = 0u32;
    loop {
        let mut progressed = false;
        for candidate in reduce(&best) {
            attempts += 1;
            if let Some(d) = fails(&candidate) {
                best = candidate;
                divergence = d;
                progressed = true;
                break;
            }
            if attempts >= 400 {
                progressed = false;
                break;
            }
        }
        if !progressed {
            break;
        }
    }
    Some((best, divergence, attempts))
}

/// Family-preserving single-step shrinks of a topology (a smaller shape
/// of the same kind; cross-family jumps rarely reproduce a failure).
fn shrink_topology(t: &Topology) -> Vec<Topology> {
    let mut out = Vec::new();
    match t {
        Topology::Cube(torus) => {
            if torus.dims() > 1 {
                out.push(Topology::cube(torus.dims() - 1, torus.radix()));
            }
            if torus.radix() > 2 {
                out.push(Topology::cube(torus.dims(), torus.radix() - 1));
            }
        }
        Topology::Mesh(m) => {
            let (x, y) = m.shape();
            if x > 2 {
                out.push(Topology::mesh(x - 1, y));
            }
            if y > 2 {
                out.push(Topology::mesh(x, y - 1));
            }
        }
        Topology::FatTree(f) => {
            if f.levels() > 1 {
                out.push(Topology::fat_tree(f.arity(), f.levels() - 1));
            }
            if f.arity() > 2 {
                out.push(Topology::fat_tree(f.arity() - 1, f.levels()));
            }
        }
        Topology::Dragonfly(d) => {
            if d.globals_per_router() > 1 {
                out.push(Topology::dragonfly(
                    d.routers_per_group(),
                    d.globals_per_router() - 1,
                ));
            }
            if d.routers_per_group() > 2 {
                out.push(Topology::dragonfly(
                    d.routers_per_group() - 1,
                    d.globals_per_router(),
                ));
            }
        }
    }
    out
}

/// Candidate single-step reductions of a scenario, most aggressive first.
fn reductions(s: &FuzzScenario) -> Vec<FuzzScenario> {
    let mut out = Vec::new();
    if s.cycles > 8 {
        let mut c = s.clone();
        c.cycles = (s.cycles / 2).max(8);
        out.push(c);
    }
    if s.fault.is_some() {
        let mut c = s.clone();
        c.fault = None;
        out.push(c);
    }
    if s.rate > 0.004 {
        let mut c = s.clone();
        c.rate = (s.rate * 0.5).max(0.002);
        out.push(c);
    }
    if s.traffic != TrafficPattern::Uniform {
        let mut c = s.clone();
        c.traffic = TrafficPattern::Uniform;
        out.push(c);
    }
    for smaller in shrink_topology(&s.topology) {
        let mut c = s.clone();
        // Clamp workload fields that index into the node space.
        if let TrafficPattern::Hotspot { target, fraction } = c.traffic {
            c.traffic = TrafficPattern::Hotspot {
                target: target.min(smaller.compute_nodes() - 1),
                fraction,
            };
        }
        c.topology = smaller;
        out.push(c);
    }
    if s.max_length > s.min_length {
        let mut c = s.clone();
        c.max_length = s.min_length;
        out.push(c);
    }
    if s.min_length > 1 {
        let mut c = s.clone();
        c.min_length = 1;
        c.max_length = s.max_length.clamp(1, 4);
        out.push(c);
    }
    if s.link_vcs > 2 {
        let mut c = s.clone();
        c.link_vcs = 2;
        out.push(c);
    }
    if s.vc_buffer_capacity > 1 {
        let mut c = s.clone();
        c.vc_buffer_capacity = s.vc_buffer_capacity / 2;
        out.push(c);
    }
    if s.injection_buffer_capacity > 1 {
        let mut c = s.clone();
        c.injection_buffer_capacity = s.injection_buffer_capacity / 2;
        out.push(c);
    }
    if s.trace_capacity > 0 {
        let mut c = s.clone();
        c.trace_capacity = 0;
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_generation_is_deterministic_and_valid() {
        let mut families = std::collections::BTreeSet::new();
        let mut traffics = std::collections::BTreeSet::new();
        for seed in 0..200u64 {
            let a = FuzzScenario::from_seed(seed);
            let b = FuzzScenario::from_seed(seed);
            assert_eq!(a, b, "seed {seed} not deterministic");
            families.insert(a.topology.family());
            traffics.insert(match a.traffic {
                TrafficPattern::Uniform => "uniform",
                TrafficPattern::Hotspot { target, .. } => {
                    assert!(target < a.nodes(), "seed {seed}");
                    "hotspot"
                }
                TrafficPattern::Transpose => "transpose",
                TrafficPattern::Bursty { .. } => "bursty",
            });
            assert!(a.nodes() >= 2 && a.nodes() <= 64, "seed {seed}");
            assert!(a.link_vcs == 2 || a.link_vcs == 4);
            assert!(a.vc_buffer_capacity >= 1);
            assert!(a.injection_buffer_capacity >= 1);
            assert!(a.min_length >= 1 && a.max_length >= a.min_length);
            assert!(a.cycles >= 200 && a.cycles < 1_200);
            if let Some(f) = &a.fault {
                assert!(!f.is_empty());
                if !matches!(a.topology, Topology::Cube(_)) {
                    assert!(
                        f.kills.is_empty() && f.link_stalls.is_empty(),
                        "seed {seed}: scheduled (dim, dir) faults on {}",
                        a.topology.canonical()
                    );
                }
            }
        }
        // 200 seeds must cover the whole topology x traffic grid.
        assert_eq!(families.len(), 4, "families drawn: {families:?}");
        assert_eq!(traffics.len(), 4, "traffics drawn: {traffics:?}");
    }

    #[test]
    fn fuzz_sweep_short() {
        // A bounded in-test sweep; CI runs a much larger range via
        // `commloc fuzz`. Any divergence is shrunk and printed as a
        // ready-to-paste repro.
        for seed in 0..24u64 {
            let scenario = FuzzScenario::from_seed(seed);
            if let Err(d) = run_scenario(&scenario) {
                let shrunk = shrink(&scenario, None).expect("failure must reproduce");
                panic!(
                    "seed {seed} diverged: {d}\nminimal repro:\n{}",
                    shrunk.repro_test()
                );
            }
        }
    }

    #[test]
    fn mutation_trips_the_checker() {
        // An intentional single-message perturbation of the reference
        // stream must be caught — on stats, deliveries, or conservation.
        let scenario = FuzzScenario::from_seed(1);
        run_scenario(&scenario).expect("unmutated scenario must pass");
        let err = run_scenario_mutated(&scenario, Some(FuzzMutation::SkewLength(3)))
            .expect_err("length skew must diverge");
        assert!(!err.what.is_empty());
        let err = run_scenario_mutated(&scenario, Some(FuzzMutation::SkewDestination(0)))
            .expect_err("destination skew must diverge");
        assert!(!err.what.is_empty());
    }

    #[test]
    fn shrinker_minimizes_and_prints_repro() {
        let scenario = FuzzScenario::from_seed(1);
        let mutation = Some(FuzzMutation::SkewLength(0));
        let outcome = shrink(&scenario, mutation).expect("mutated scenario fails");
        // The minimal scenario must still fail and be no larger than the
        // original along the shrink axes.
        assert!(run_scenario_mutated(&outcome.scenario, mutation).is_err());
        assert!(outcome.scenario.cycles <= scenario.cycles);
        assert!(outcome.scenario.rate <= scenario.rate);
        let repro = outcome.repro_test();
        assert!(repro.contains("#[test]"), "{repro}");
        assert!(repro.contains("FuzzScenario"), "{repro}");
        assert!(repro.contains("seed: 1"), "{repro}");
    }

    #[test]
    fn shrink_returns_none_for_passing_scenario() {
        let scenario = FuzzScenario::from_seed(2);
        assert!(shrink(&scenario, None).is_none());
    }

    #[test]
    fn report_accounts_for_every_message() {
        let report = run_seed(5).expect("seed 5 clean");
        assert_eq!(
            report.injected,
            report.delivered + report.dropped + report.wedged
        );
        assert!(report.cycles > 0);
    }
}
