//! Differential fuzzing of the optimized [`Fabric`] against the retained
//! [`ReferenceFabric`].
//!
//! A [`FuzzScenario`] is drawn deterministically from a single seed (via
//! the in-tree [`DetRng`] — no external fuzzing framework): a random
//! topology (a torus of 1–3 dimensions, a mesh, a fat tree or a
//! dragonfly), buffering and virtual-channel configuration, trace
//! capacity, open-loop [`TrafficPattern`], an optional fault plan mixing
//! probabilistic drop / corrupt / stall faults with scheduled link kills
//! and router stalls, and a shard count. [`run_scenario`], the crate's
//! one fabric lockstep checker, then drives both engines under one
//! [`BernoulliTraffic`] schedule. Its optimized side is the fabric cut
//! into [`shard_ranges`] (one shard is the plain fabric) that exchange
//! boundary items every cycle as the machine's shards do, read through
//! the shard merge rules ([`FabricStats::merged`], [`FaultLog::merge`],
//! [`TraceBuffer::merge`], summed counters). It checks:
//!
//! * in test builds, every shard's worklists (`Fabric::audit_worklists`)
//!   on every cycle,
//! * bit-identical [`FabricStats`] every 64 cycles and after the drain
//!   phase,
//! * identical per-node delivery order and contents,
//! * identical fault logs, in-flight populations, buffered flits and
//!   activity,
//! * cross-layer invariants on the optimized engine that the reference
//!   engine cannot express: per-delivery breakdown telescoping
//!   (`MessageBreakdown::total() == Delivery::total_latency()`), the
//!   aggregate [`LatencyBreakdown`] agreeing with the stats counters,
//!   message conservation (`injected == delivered + dropped +
//!   in-flight`), and trace accounting (a recorded event for every
//!   counted injection, delivery and drop; exactly those, besides head
//!   blocks, in a ring that evicted nothing).
//!
//! On a mismatch, [`shrink`] greedily reduces the failing scenario
//! (fewer cycles, lower rate, no faults, fewer shards, smaller torus,
//! shallower buffers) while re-checking that it still fails, and
//! [`ShrinkOutcome::repro_test`] prints a ready-to-paste `#[test]`
//! function that replays the minimal scenario.
//!
//! `commloc-sim` drives bounded fuzz campaigns through this module from
//! the `commloc fuzz` CLI subcommand and CI.

use crate::fault::{FaultLog, FaultPlan};
use crate::message::Message;
use crate::reference::ReferenceFabric;
use crate::rng::DetRng;
use crate::stats::{FabricStats, LatencyBreakdown};
use crate::topology::{Direction, NodeId, Topology};
use crate::trace::{TraceBuffer, TraceEvent};
use crate::traffic::{BernoulliTraffic, TrafficPattern};
use crate::{shard_ranges, Fabric, FabricConfig, FabricError};
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
    /// Shards the optimized engine is cut into ([`shard_ranges`] over
    /// every node of the topology); `1` is the plain fabric.
    pub shards: usize,
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
        // Drawn last, so every other field keeps its draw.
        let shards = [1, 1, 1, 2, 3, 4][rng.index(6)].min(nodes);
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
            shards,
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
    /// checks, which look at final state, and for a panic).
    pub cycle: Option<u64>,
    /// Human-readable description of the first failed check, or
    /// `panic: ` and the message of a panic inside the run.
    pub what: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.cycle {
            Some(cycle) => write!(f, "divergence at cycle {cycle}: {}", self.what),
            None => write!(f, "divergence: {}", self.what),
        }
    }
}

/// Runs one lockstep `check`, returning a panic inside it (an engine's
/// internal assertion, say) as a [`Divergence`] with no cycle, so a
/// sweep names the seed and shrinks it like any other divergence. Both
/// fuzzers' `run_scenario_mutated` run through it.
///
/// # Errors
///
/// Returns `check`'s divergence, or the caught panic.
pub fn catch_panic<R>(check: impl FnOnce() -> Result<R, Divergence>) -> Result<R, Divergence> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(check)).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("a non-text payload");
        Err(Divergence {
            cycle: None,
            what: format!("panic: {message}"),
        })
    })
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
    /// Shards the optimized engine ran on.
    pub shards: usize,
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
/// is the expected outcome), a panic inside the run included.
pub fn run_scenario_mutated(
    scenario: &FuzzScenario,
    mutation: Option<FuzzMutation>,
) -> Result<FuzzReport, Divergence> {
    catch_panic(|| lockstep(scenario, mutation))
}

/// The lockstep run behind [`run_scenario_mutated`].
fn lockstep(
    scenario: &FuzzScenario,
    mutation: Option<FuzzMutation>,
) -> Result<FuzzReport, Divergence> {
    let (nodes, topology) = (scenario.nodes(), scenario.topology.clone());
    let plan = scenario.fault.as_ref().map(|f| f.build(scenario.seed));
    let mut opt = Shards::new(scenario, plan.as_ref());
    let mut reference: ReferenceFabric<u64> = match plan {
        Some(plan) => ReferenceFabric::with_fault_plan(topology, scenario.config(false), plan),
        None => ReferenceFabric::new(topology, scenario.config(false)),
    };

    // One stream feeds both engines; each message enters the shard that
    // owns its source under the id the reference assigned it.
    let (rate, lengths) = (scenario.rate, scenario.min_length..=scenario.max_length);
    let mut load = BernoulliTraffic::new(nodes, scenario.traffic, rate, lengths, scenario.seed);
    let mut injected = 0u64;
    for cycle in 0..scenario.cycles {
        for m in load.pulse() {
            let skewed = match mutation {
                Some(FuzzMutation::SkewLength(n)) if injected == n => {
                    Message::new(m.src, m.dst, m.length + 1, m.payload)
                }
                Some(FuzzMutation::SkewDestination(n)) if injected == n => {
                    let dst = NodeId((m.dst.0 + 1) % nodes);
                    Message::new(m.src, dst, m.length, m.payload)
                }
                _ => m.clone(),
            };
            injected += 1;
            let id = reference.inject(skewed);
            opt.owner(m.src.0).inject_with_id(id, m);
        }
        step_both(&mut opt, &mut reference, cycle)?;
        if cycle % 64 == 0 {
            check_eq!(Some(cycle), &opt.stats(), reference.stats(), "stats");
        }
    }
    // Drain (bounded: traffic wedged behind killed links never leaves).
    let mut drained = 0u64;
    while drained < DRAIN_CYCLES && (opt.sum(Fabric::in_flight) > 0 || reference.in_flight() > 0) {
        step_both(&mut opt, &mut reference, scenario.cycles + drained)?;
        drained += 1;
    }

    let cycles = opt.fabrics[0].cycle();
    check_eq!(None, cycles, reference.cycle(), "cycle count");
    let stats = opt.stats();
    check_eq!(None, &stats, reference.stats(), "final stats");
    // Counters the shards sum, each against the reference's own.
    macro_rules! summed {
        ($($read:ident),*) => {
            $(check_eq!(None, opt.sum(Fabric::$read), reference.$read(), stringify!($read));)*
        };
    }
    summed!(total_injected, in_flight, buffered_flits, activity);
    let (total_injected, in_flight) = (opt.sum(Fabric::total_injected), opt.sum(Fabric::in_flight));
    let log = FaultLog::merge(opt.fabrics.iter().filter_map(Fabric::fault_log));
    check_eq!(None, log.as_ref(), reference.fault_log(), "fault log");

    // Delivery order/content equality, plus the optimized engine's
    // per-delivery breakdown telescoping invariant.
    let mut delivered = 0u64;
    for node in 0..nodes {
        loop {
            let a = opt.owner(node).poll_delivery(NodeId(node));
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
    check_eq!(None, delivered, stats.delivered_messages, "delivered count");
    let mut breakdown = LatencyBreakdown::default();
    for fabric in &opt.fabrics {
        breakdown.absorb(fabric.breakdown());
    }
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
    let conserved = delivered + stats.dropped_messages + in_flight as u64;
    check_eq!(
        None,
        total_injected,
        conserved,
        "conservation (injected = delivered + dropped + in-flight)"
    );
    // Trace accounting: every injection, delivery and drop the stats
    // count is one traced event (head blocks add more), and a ring that
    // evicted nothing holds exactly those.
    let rings = opt.fabrics.iter().filter_map(Fabric::trace);
    if let Some(ring) = TraceBuffer::merge(rings, TraceEvent::order_key) {
        let counted = stats.injected_messages + stats.delivered_messages + stats.dropped_messages;
        let held = ring
            .iter()
            .filter(|e| !matches!(e, TraceEvent::HopBlock { .. }))
            .count() as u64;
        let whole = ring.len() as u64 == ring.recorded();
        if ring.recorded() < counted || (whole && held != counted) {
            return Err(Divergence {
                cycle: None,
                what: format!(
                    "trace ring recorded {} events and holds {} ({held} injections, deliveries \
                     and drops) for {counted} counted messages",
                    ring.recorded(),
                    ring.len()
                ),
            });
        }
    }

    Ok(FuzzReport {
        injected: total_injected,
        delivered,
        dropped: stats.dropped_messages,
        wedged: in_flight as u64,
        cycles,
        shards: scenario.shards,
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

/// The optimized side of the lockstep: one [`Fabric::new_shard`] per
/// [`shard_ranges`] range, each given the whole fault plan.
struct Shards {
    ranges: Vec<(usize, usize)>,
    fabrics: Vec<Fabric<u64>>,
}

impl Shards {
    fn new(s: &FuzzScenario, plan: Option<&FaultPlan>) -> Self {
        let ranges = shard_ranges(s.topology.nodes(), s.shards);
        let shard = |&range| Fabric::new_shard(s.topology.clone(), s.config(true), plan, range);
        let fabrics = ranges.iter().map(shard).collect();
        Self { ranges, fabrics }
    }

    fn owner(&mut self, node: usize) -> &mut Fabric<u64> {
        let shard = self.ranges.partition_point(|&(base, _)| base <= node) - 1;
        &mut self.fabrics[shard]
    }

    /// Steps every shard, then lands the boundary items in shard order as
    /// the machine's exchange does; in test builds, audits the worklists.
    fn step(&mut self) -> Result<(), FabricError> {
        let mut items = Vec::new();
        for fabric in &mut self.fabrics {
            fabric.step()?;
            fabric.take_boundary(&mut items);
        }
        for item in items {
            self.owner(item.dst_node()).ingest_boundary(item);
        }
        #[cfg(test)]
        for fabric in &self.fabrics {
            fabric.audit_worklists();
        }
        Ok(())
    }

    fn sum<T: std::iter::Sum>(&self, read: impl Fn(&Fabric<u64>) -> T) -> T {
        self.fabrics.iter().map(read).sum()
    }

    fn stats(&self) -> FabricStats {
        FabricStats::merged(self.fabrics.iter().map(Fabric::stats))
    }
}

fn step_both(
    opt: &mut Shards,
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
        format!(
            "#[test]\nfn fuzz_repro_seed_{seed}() {{\n    use commloc_net::fuzz::{{run_scenario, FaultSpec, FuzzScenario}};\n    \
             use commloc_net::traffic::TrafficPattern;\n    \
             use commloc_net::Direction::{{Minus, Plus}};\n    use commloc_net::Topology;\n    \
             let _ = (Minus, Plus, FaultSpec::is_empty); // used by fault literals\n    \
             let scenario = FuzzScenario {{\n        seed: {seed},\n        topology: {topo},\n        traffic: TrafficPattern::{traffic:?},\n        \
             link_vcs: {vcs},\n        vc_buffer_capacity: {vcap},\n        injection_buffer_capacity: {icap},\n        \
             trace_capacity: {tcap},\n        rate: {rate:?},\n        min_length: {minl},\n        max_length: {maxl},\n        \
             cycles: {cycles},\n        fault: {fault},\n        shards: {shards},\n    }};\n    \
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
            fault = fault_expr(s.fault.as_ref()),
            shards = s.shards,
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

/// Renders an optional fault spec as the literal that recreates it, for
/// both fuzzers' repro tests; directions print bare, so a repro imports
/// `commloc_net::Direction::{Minus, Plus}`.
pub fn fault_expr(fault: Option<&FaultSpec>) -> String {
    match fault {
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
    }
}

/// Greedily shrinks a failing scenario: each pass tries a fixed set of
/// reductions (halve the cycle budget, drop the fault plan, fewer
/// shards, halve the injection rate, shorten messages, remove a torus
/// dimension, shrink the radix, shallow the buffers, disable tracing)
/// and keeps any that still fail, looping to a fixed point.
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
    if s.shards > 1 {
        let mut c = s.clone();
        c.shards = s.shards - 1;
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
        // Clamp the fields that index into the node space. A fault left
        // on a vanished node would fire in the reference alone, since
        // each shard keeps only its own nodes' faults.
        if let TrafficPattern::Hotspot { target, fraction } = c.traffic {
            c.traffic = TrafficPattern::Hotspot {
                target: target.min(smaller.compute_nodes() - 1),
                fraction,
            };
        }
        let nodes = smaller.nodes();
        c.shards = s.shards.min(nodes);
        if let Some(f) = &mut c.fault {
            f.kills.retain(|k| k.1 < nodes);
            f.link_stalls.retain(|l| l.1 < nodes);
            f.router_stalls.retain(|r| r.1 < nodes);
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
impl FaultSpec {
    /// Probabilistic faults only, with no scheduled events.
    pub(crate) fn rates(
        drop_rate: f64,
        corrupt_rate: f64,
        stall_rate: f64,
        stall_window: u64,
    ) -> Self {
        FaultSpec {
            drop_rate,
            corrupt_rate,
            stall_rate,
            stall_window,
            kills: Vec::new(),
            link_stalls: Vec::new(),
            router_stalls: Vec::new(),
        }
    }
}

#[cfg(test)]
impl FuzzScenario {
    /// A hand-written lockstep case: uniform traffic of `lengths`-flit
    /// messages at `rate` for `cycles` cycles on `topology`, at seed 1,
    /// with default buffering, untraced, fault-free, on one shard.
    /// Struct update sets the rest.
    pub(crate) fn uniform(
        topology: Topology,
        rate: f64,
        lengths: std::ops::RangeInclusive<u32>,
        cycles: u64,
    ) -> Self {
        let config = FabricConfig::default();
        Self {
            seed: 1,
            topology,
            traffic: TrafficPattern::Uniform,
            link_vcs: config.link_vcs,
            vc_buffer_capacity: config.vc_buffer_capacity,
            injection_buffer_capacity: config.injection_buffer_capacity,
            trace_capacity: 0,
            rate,
            min_length: *lengths.start(),
            max_length: *lengths.end(),
            cycles,
            fault: None,
            shards: 1,
        }
    }
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
            assert!(
                a.shards >= 1 && a.shards <= a.topology.nodes(),
                "seed {seed}: shards {} out of range",
                a.shards
            );
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
    fn sharded_draws_span_the_scenario_space() {
        // Every topology family is drawn sharded, with and without a
        // fault plan, so a sweep checks the boundary exchange on each.
        let drawn: std::collections::BTreeSet<_> = (0..200u64)
            .map(FuzzScenario::from_seed)
            .filter(|s| s.shards > 1)
            .map(|s| (s.topology.family(), s.fault.is_some()))
            .collect();
        assert_eq!(drawn.len(), 8, "sharded draws: {drawn:?}");
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
    fn a_panic_inside_a_run_is_a_divergence() {
        // A sweep names the seed and shrinks it rather than aborting.
        let scenario = FuzzScenario {
            link_vcs: 1,
            ..FuzzScenario::from_seed(0)
        };
        let d = run_scenario(&scenario).expect_err("a one-VC torus panics");
        assert_eq!(d.cycle, None);
        let expected = "panic: tori require at least 2 virtual channels";
        assert!(d.what.starts_with(expected), "{d}");
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
        // So does a ring that holds its whole run: one traced event per
        // injection, delivery and drop, on two shards that drop.
        let whole = FuzzScenario {
            trace_capacity: 1 << 16,
            ..FuzzScenario::from_seed(2)
        };
        let report = run_scenario(&whole).expect("seed 2 clean");
        assert!(report.dropped > 0 && report.shards == 2, "{report:?}");
    }
}
