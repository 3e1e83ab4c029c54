//! The network fabric: routers, links, network interfaces, and the
//! cycle-by-cycle simulation algorithm.
//!
//! Each [`Fabric::step`] call advances one **network cycle** in five
//! deterministic phases:
//!
//! 1. **Link delivery** — flits sent last cycle arrive in downstream
//!    input buffers (links have a one-cycle latency: the paper's
//!    single-cycle base switch delay).
//! 2. **Route computation** — head flits newly at the front of an input
//!    virtual channel are assigned an output (e-cube + dateline VC).
//! 3. **Switch allocation and traversal** — each output physical channel
//!    forwards at most one flit, multiplexing its virtual channels
//!    round-robin; wormhole locks hold each output VC for one message from
//!    head to tail; credits enforce downstream buffer space.
//! 4. **Credit return** — buffer slots freed this cycle become visible to
//!    upstream routers next cycle.
//! 5. **Injection** — each network interface streams at most one flit per
//!    cycle into its router's injection buffer (the paper's
//!    processor-to-network channel).
//!
//! Everything is deterministic: no randomness, fixed iteration order.
//!
//! # The active-set cycle engine
//!
//! The engine never scans idle state. Phases 2 and 3 visit only routers
//! whose input buffers hold at least one flit (tracked by incrementally
//! maintained per-router occupancy counters and an [`ActiveSet`] bitmap);
//! phase 1 visits only links that actually carry a flit (worklists filled
//! at send time); phase 5 visits only network interfaces with queued or
//! streaming messages. Iteration order over every worklist is **ascending
//! node/link index** — exactly the order the naive full scan used — so
//! round-robin arbitration decisions and fault-injection RNG rolls replay
//! bit-for-bit identically (the equivalence tests in
//! [`crate::reference`] assert this against the retained naive engine).
//! A fabric with nothing in motion ([`Fabric::is_quiescent`]) does not
//! run the phases at all: its step is the clock tick of
//! [`Fabric::fast_forward`]`(1)`.
//!
//! Inside an active router, phases 2 and 3 visit only waiting work,
//! through three bitsets kept current where flits are pushed and popped,
//! routes assigned and wormhole locks taken or released:
//!
//! * **route-ready**, per router — input VCs whose front flit is an
//!   unrouted head (marked when a head becomes a buffer's front);
//! * **requesters**, per `(router, output, dateline class)` — input VCs
//!   whose routed head waits for that output (set at route assignment,
//!   cleared when the head departs);
//! * **busy outputs**, per router — outputs holding a locked VC or a
//!   requester (set with the requester; re-derived when a tail unlocks,
//!   since a departing head leaves its output locked).
//!
//! A bit's index is its position in the scan it replaces (an input VC's
//! offset in the node's port-major, injection-last block; an output's
//! port number), so walking set bits in ascending order visits work in
//! exactly the old order: round-robin pointers, arbitration and fault
//! rolls replay bit-for-bit. Every set is sized in 64-bit words from the
//! configuration, with no bound on ports or VCs.
//!
//! Per-VC router state is kept in 4-byte tables: an input VC's route
//! (output port and dateline class), an output VC's lock (the owning input
//! VC's offset, the same index the requester sets use), its credits and
//! its round-robin pointer.
//!
//! Messages in flight live in a generational slab: each flit carries its
//! message's slot index, so hot-path lookups are array indexing (with the
//! message id doubling as a generation check) instead of hashing. All
//! per-cycle buffers (credit returns, worklist snapshots) are reused
//! scratch vectors: the steady-state hot path allocates nothing.
//!
//! When the fabric is completely drained, [`Fabric::fast_forward`] jumps
//! the clock over the idle gap in O(scheduled faults) instead of stepping
//! cycle by cycle, still firing scheduled faults at their exact cycles.

use crate::active::{ActiveSet, BitRows};
use crate::fault::{FaultLog, FaultPlan};
use crate::message::{Delivery, Flit, FlitKind, Message, MessageId};
use crate::stats::{FabricStats, LatencyBreakdown};
use crate::topology::{NodeId, PortStep, Topology, VcIndex, DATELINE_VCS};
use crate::trace::{TraceBuffer, TraceEvent};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::mem;

/// An internal-consistency failure surfaced by the fabric instead of a
/// panic: the simulation state referenced a message or flit the fabric no
/// longer knows about. These indicate a bug (or a hostile payload table
/// manipulation), never a recoverable condition — but callers running
/// long experiments deserve a structured error over an abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricError {
    /// A flit in flight referenced a message absent from the pending
    /// table.
    UnknownMessage {
        /// The orphaned message id.
        message: MessageId,
        /// Which phase tripped over it.
        context: &'static str,
        /// Cycle of detection.
        cycle: u64,
    },
    /// Switch allocation selected an input buffer that turned out empty.
    MissingFlit {
        /// Router whose arbitration went wrong.
        node: NodeId,
        /// Cycle of detection.
        cycle: u64,
    },
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::UnknownMessage {
                message,
                context,
                cycle,
            } => write!(
                f,
                "cycle {cycle}: {context} referenced unknown message {}",
                message.0
            ),
            FabricError::MissingFlit { node, cycle } => write!(
                f,
                "cycle {cycle}: switch allocation at node {} selected an empty buffer",
                node.0
            ),
        }
    }
}

impl std::error::Error for FabricError {}

/// Configuration of buffering and virtual channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricConfig {
    /// Virtual channels per link. Must be even and at least 2: the lower
    /// half serves dateline class 0, the upper half class 1 (tori require
    /// the two classes for deadlock freedom; extra channels per class
    /// reduce wormhole head-of-line blocking).
    pub link_vcs: usize,
    /// Flit capacity of each input virtual-channel buffer.
    pub vc_buffer_capacity: usize,
    /// Flit capacity of the router's injection input buffer.
    pub injection_buffer_capacity: usize,
    /// Capacity of the event-trace ring buffer
    /// ([`Fabric::trace`]); `0` (the default) disables tracing entirely —
    /// no buffer is allocated and the event sites reduce to a dead
    /// `Option` check.
    pub trace_capacity: usize,
}

impl Default for FabricConfig {
    /// A moderate amount of buffering, as the paper describes: two
    /// dateline virtual channels with eight-flit buffers. Tracing off.
    fn default() -> Self {
        Self {
            link_vcs: DATELINE_VCS,
            vc_buffer_capacity: 8,
            injection_buffer_capacity: 8,
            trace_capacity: 0,
        }
    }
}

/// Per-message bookkeeping while in flight, stored in the slab. The `id`
/// field is the generation check: a flit referencing this slot is valid
/// only while its message id matches.
#[derive(Debug, Clone)]
struct Pending<P> {
    id: u64,
    message: Message<P>,
    enqueued_at: u64,
    injected_at: u64,
    /// Cycle the head flit first entered the destination router's input
    /// buffer (loopbacks: the injection cycle).
    dst_arrived_at: u64,
    head_delivered_at: u64,
    hops: u32,
    /// Set when a drop fault dooms the message: the `(node, output)`
    /// where its worm evaporates.
    doomed: Option<(u32, u32)>,
}

/// Network-interface injection state for one node. Queue entries carry
/// `(slab slot, message id)`.
#[derive(Debug, Clone, Default)]
struct NetworkInterface {
    queue: VecDeque<(u32, MessageId)>,
    /// Message currently being flitized: slot, id, next flit index, and
    /// total length. The length is cached at streaming start because a
    /// shard fabric's slab entry can migrate to another shard (with the
    /// head flit) while later flits are still streaming here.
    streaming: Option<(u32, MessageId, u32, u32)>,
}

/// A cycle-level k-ary n-cube torus fabric carrying messages with payload
/// type `P`.
///
/// # Examples
///
/// ```
/// use commloc_net::{Fabric, FabricConfig, Message, NodeId, Torus};
///
/// let mut fabric = Fabric::new(Torus::new(2, 8), FabricConfig::default());
/// fabric.inject(Message::new(NodeId(0), NodeId(9), 12, "hello"));
/// while fabric.in_flight() > 0 {
///     fabric.step().unwrap();
/// }
/// let delivery = fabric.poll_delivery(NodeId(9)).expect("delivered");
/// assert_eq!(delivery.message.payload, "hello");
/// assert_eq!(delivery.hops, 2);
/// ```
#[derive(Debug, Clone)]
pub struct Fabric<P> {
    topology: Topology,
    config: FabricConfig,
    /// Global id of the first node this fabric owns (`0` for a
    /// whole-torus fabric). A shard fabric owns the contiguous global
    /// range `base .. base + owned`; every per-node array below is
    /// indexed by `global - base`.
    base: usize,
    /// Number of nodes this fabric owns.
    owned: usize,
    /// Inter-router ports per node ([`Topology::ports`]); port
    /// `link_ports` is the injection input / ejection output.
    link_ports: usize,
    /// Virtual channels per node in the flattened VC arrays:
    /// `link_ports * link_vcs + 1`.
    vc_stride: usize,
    /// Router state, struct-of-arrays. Input and output virtual channels
    /// share the index function `node * vc_stride + port * link_vcs + vc`
    /// with `vc_stride = link_ports * link_vcs + 1`: the single-VC
    /// injection input / ejection output (`port == link_ports`, `vc == 0`)
    /// lands on the trailing slot of each node's block.
    in_fifo: Vec<VecDeque<Flit>>,
    /// Route of the message at each input VC's front, assigned when its
    /// head reaches the front and cleared when its tail departs.
    in_route: Vec<Route>,
    /// Cycle each input VC's front route was assigned (hop-block trace).
    in_routed_at: Vec<u64>,
    /// Wormhole lock owner of each output VC: the owning input VC's
    /// offset in the node's block, or [`UNLOCKED`].
    out_locked: Vec<u32>,
    /// Free downstream buffer slots of each output VC
    /// ([`INFINITE_CREDITS`] for the ejection pseudo-channel).
    out_credits: Vec<u32>,
    /// Round-robin input pointer of each output VC.
    out_rr_input: Vec<u32>,
    /// Round-robin VC pointer of each output physical channel, indexed
    /// `node * (link_ports + 1) + port`.
    out_rr_vc: Vec<u32>,
    /// Inter-router links, indexed `node * link_ports + port`; each holds
    /// at most one in-transit flit tagged with its virtual channel.
    links: Vec<Option<(Flit, VcIndex)>>,
    /// Worklist of `links` indices currently holding a flit, ascending
    /// (filled at send time, drained by the next cycle's delivery phase).
    link_occupied: Vec<u32>,
    /// Injection channels (NI to router), one per node.
    inj_links: Vec<Option<Flit>>,
    /// Worklist of nodes whose injection channel holds a flit, ascending.
    inj_occupied: Vec<u32>,
    /// Free slots in each router's injection input buffer as seen by the
    /// NI.
    inj_credits: Vec<u32>,
    nis: Vec<NetworkInterface>,
    /// Generational slab of in-flight messages; flits carry their slot.
    slots: Vec<Option<Pending<P>>>,
    /// Reusable slab slots.
    free_slots: Vec<u32>,
    /// Messages in flight (`slots` entries that are `Some`).
    live: usize,
    deliveries: Vec<VecDeque<Delivery<P>>>,
    /// Nodes that received a delivery since the last
    /// [`Fabric::take_delivery_events`] drain — the wake-up signal the
    /// machine-level active-node engine subscribes to.
    delivery_events: ActiveSet,
    /// Downstream **global** node of each output link, indexed
    /// `node * link_ports + port` — precomputed so the hot path never
    /// re-derives topology coordinates. [`NO_LINK`] marks absent ports
    /// (mesh edges, fat-tree leaf child ports, the root's parent port).
    neighbors: Vec<u32>,
    /// Input-port index at the downstream node of each output link,
    /// indexed like `neighbors` ([`NO_LINK_PORT`] where absent). On a
    /// torus this always equals the output port — the historical
    /// convention the tables preserve bit-exactly.
    link_in_ports: Vec<u16>,
    /// Upstream **global** node feeding each input port, indexed
    /// `node * link_ports + in_port` ([`NO_LINK`] where absent).
    upstream: Vec<u32>,
    /// Output-port index this input link occupies at its upstream node,
    /// indexed like `upstream` — where freed-buffer credits must land.
    upstream_ports: Vec<u16>,
    /// Flits buffered in each router's input VCs, maintained
    /// incrementally on every push/pop.
    occupancy: Vec<u32>,
    /// Routers with nonzero occupancy — the only ones phases 2–3 visit.
    active_routers: ActiveSet,
    /// Network interfaces with queued or streaming messages — the only
    /// ones phase 5 visits.
    active_nis: ActiveSet,
    /// Per router: input VCs (by offset in the node's VC block) whose
    /// front flit is an unrouted head — phase 2's worklist.
    route_ready: BitRows,
    /// Per `(node, output port, dateline class)` ([`Fabric::req_row`]):
    /// input VCs whose routed head waits at the front for that output.
    requesters: BitRows,
    /// Per router: outputs holding a locked VC or a requester — the only
    /// outputs phase 3 tries.
    busy_outputs: BitRows,
    /// Scratch: snapshot of an [`ActiveSet`] for iteration.
    node_scratch: Vec<u32>,
    /// Scratch: last cycle's occupied-link worklist being drained.
    link_scratch: Vec<u32>,
    /// Scratch: last cycle's occupied-injection-channel worklist.
    inj_scratch: Vec<u32>,
    /// Scratch: flattened output VCs whose downstream slot was freed
    /// during switch traversal, credited in phase 4.
    credit_scratch: Vec<u32>,
    next_id: u64,
    cycle: u64,
    stats: FabricStats,
    /// Per-component latency accounting and histograms, accumulated at
    /// delivery time alongside `stats` (kept out of `FabricStats`: the
    /// reference-engine equivalence tests compare that struct verbatim).
    breakdown: LatencyBreakdown,
    /// Bounded event trace; `None` unless `config.trace_capacity > 0`.
    trace: Option<TraceBuffer>,
    /// Active fault-injection plan, if any.
    fault: Option<FaultPlan>,
    /// Monotone count of flit movements (link placement, injection,
    /// ejection, loopback) since construction — never reset, so watchdogs
    /// can detect global stalls by watching it stop advancing.
    activity: u64,
    /// Flits buffered across all owned routers — the incrementally
    /// maintained sum of `occupancy`, kept for O(1) quiescence checks.
    buffered: u64,
    /// Messages ever injected here (equals `next_id` when every message
    /// came through [`Fabric::inject`]; shard fabrics count only their
    /// own nodes' injections).
    injected_total: u64,
    /// Flits and credits that crossed out of this shard this cycle,
    /// drained by the shard driver. Always empty for a whole-torus
    /// fabric.
    boundary_out: Vec<BoundaryItem<P>>,
    /// `(message id, entry node, entry port, entry vc)` -> local slab
    /// slot for messages whose bookkeeping was transferred in from
    /// another shard while trailing flits still arrive carrying the
    /// sender's slot index. Keyed per boundary crossing, not per
    /// message: a wrapping route can leave and re-enter the same shard,
    /// so one worm may stream across two crossings concurrently, and
    /// the tail passing the first crossing must not tear down the entry
    /// the second still needs. Each entry dies with the tail flit at
    /// its own crossing.
    remap: HashMap<(u64, u32, u16, u16), u32>,
    /// Local nodes of the flits ingested from other shards since the
    /// last step. A whole-torus fabric still holds those flits on its
    /// links between cycles, so the buffer diagnostics leave them out.
    inbound: Vec<u32>,
}

impl<P> Fabric<P> {
    /// Builds a fabric over the given topology (a bare
    /// [`Torus`](crate::Torus) converts into [`Topology::Cube`]).
    ///
    /// # Panics
    ///
    /// Panics if the configuration requests fewer than
    /// [`DATELINE_VCS`] virtual channels, zero-capacity buffers, or
    /// buffer capacities that do not fit the 32-bit credit counters.
    pub fn new(topology: impl Into<Topology>, config: FabricConfig) -> Self {
        let topology = topology.into();
        let nodes = topology.nodes();
        Self::new_shard(topology, config, 0, nodes)
    }

    /// Builds a fabric owning only the contiguous global node range
    /// `base .. base + owned` of `torus` — one shard of a partitioned
    /// simulation. Flits and credits crossing the range boundary are
    /// emitted as [`BoundaryItem`]s ([`Fabric::take_boundary`]) instead
    /// of traversing local links; the shard driver delivers them into the
    /// owning shard ([`Fabric::ingest_boundary`]) between cycles, which
    /// reproduces the one-cycle link latency exactly.
    ///
    /// # Panics
    ///
    /// Panics on a bad VC/buffer configuration (see [`Fabric::new`]) or
    /// an empty/out-of-range node range.
    pub fn new_shard(
        topology: impl Into<Topology>,
        config: FabricConfig,
        base: usize,
        owned: usize,
    ) -> Self {
        let topology = topology.into();
        assert!(
            config.link_vcs >= DATELINE_VCS,
            "tori require at least {DATELINE_VCS} virtual channels for deadlock freedom"
        );
        assert!(
            config.link_vcs.is_multiple_of(DATELINE_VCS),
            "virtual channels must split evenly between the dateline classes"
        );
        assert!(config.vc_buffer_capacity > 0, "buffers must hold flits");
        assert!(
            config.injection_buffer_capacity > 0,
            "buffers must hold flits"
        );
        let credits = |capacity: usize| {
            u32::try_from(capacity)
                .ok()
                .filter(|&c| c != INFINITE_CREDITS)
                .expect("buffer capacities must fit the 32-bit credit counters")
        };
        let (link_credits, inj_credits) = (
            credits(config.vc_buffer_capacity),
            credits(config.injection_buffer_capacity),
        );
        assert!(owned > 0, "a shard must own at least one node");
        assert!(
            base + owned <= topology.nodes(),
            "shard range exceeds the topology"
        );
        let link_ports = topology.ports();
        let vc_stride = link_ports * config.link_vcs + 1;
        assert!(
            link_ports < usize::from(NO_LINK_PORT)
                && owned
                    .checked_mul(vc_stride)
                    .is_some_and(|vcs| u32::try_from(vcs).is_ok()),
            "virtual channels must fit the 32-bit router tables"
        );
        let mut out_credits = Vec::with_capacity(owned * vc_stride);
        for _ in 0..owned {
            for _ in 0..link_ports * config.link_vcs {
                out_credits.push(link_credits);
            }
            out_credits.push(INFINITE_CREDITS); // ejection pseudo-channel
        }
        let mut neighbors = Vec::with_capacity(owned * link_ports);
        let mut link_in_ports = Vec::with_capacity(owned * link_ports);
        let mut upstream = Vec::with_capacity(owned * link_ports);
        let mut upstream_ports = Vec::with_capacity(owned * link_ports);
        for node in base..base + owned {
            for port in 0..link_ports {
                match topology.link_dest(NodeId(node), port) {
                    Some(down) => {
                        neighbors.push(down.0 as u32);
                        link_in_ports
                            .push(topology.link_in_port(NodeId(node), port).unwrap() as u16);
                    }
                    None => {
                        neighbors.push(NO_LINK);
                        link_in_ports.push(NO_LINK_PORT);
                    }
                }
                match topology.upstream(NodeId(node), port) {
                    Some((up, up_port)) => {
                        upstream.push(up.0 as u32);
                        upstream_ports.push(up_port as u16);
                    }
                    None => {
                        upstream.push(NO_LINK);
                        upstream_ports.push(NO_LINK_PORT);
                    }
                }
            }
        }
        let stats = FabricStats::new(owned, link_ports);
        Self {
            topology,
            config,
            base,
            owned,
            link_ports,
            vc_stride,
            in_fifo: (0..owned * vc_stride).map(|_| VecDeque::new()).collect(),
            in_route: vec![Route::NONE; owned * vc_stride],
            in_routed_at: vec![0; owned * vc_stride],
            out_locked: vec![UNLOCKED; owned * vc_stride],
            out_credits,
            out_rr_input: vec![0; owned * vc_stride],
            out_rr_vc: vec![0; owned * (link_ports + 1)],
            links: vec![None; owned * link_ports],
            link_occupied: Vec::new(),
            inj_links: vec![None; owned],
            inj_occupied: Vec::new(),
            inj_credits: vec![inj_credits; owned],
            nis: (0..owned).map(|_| NetworkInterface::default()).collect(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            live: 0,
            deliveries: (0..owned).map(|_| VecDeque::new()).collect(),
            delivery_events: ActiveSet::new(owned),
            neighbors,
            link_in_ports,
            upstream,
            upstream_ports,
            occupancy: vec![0; owned],
            active_routers: ActiveSet::new(owned),
            active_nis: ActiveSet::new(owned),
            route_ready: BitRows::new(owned, vc_stride),
            requesters: BitRows::new(owned * (link_ports + 1) * DATELINE_VCS, vc_stride),
            busy_outputs: BitRows::new(owned, link_ports + 1),
            node_scratch: Vec::new(),
            link_scratch: Vec::new(),
            inj_scratch: Vec::new(),
            credit_scratch: Vec::new(),
            next_id: 0,
            cycle: 0,
            stats,
            breakdown: LatencyBreakdown::default(),
            trace: (config.trace_capacity > 0).then(|| TraceBuffer::new(config.trace_capacity)),
            fault: None,
            activity: 0,
            buffered: 0,
            injected_total: 0,
            boundary_out: Vec::new(),
            remap: HashMap::new(),
            inbound: Vec::new(),
        }
    }

    /// Builds a fabric with an attached fault-injection plan. The plan's
    /// faults apply as the fabric steps; its log is available through
    /// [`Fabric::fault_log`].
    pub fn with_fault_plan(
        topology: impl Into<Topology>,
        config: FabricConfig,
        plan: FaultPlan,
    ) -> Self {
        let mut fabric = Self::new(topology, config);
        fabric.fault = Some(plan);
        fabric
    }

    /// Shard form of [`Fabric::with_fault_plan`]: the plan should be the
    /// global plan restricted to this shard's nodes
    /// ([`FaultPlan::restrict`]); the stateless per-site rolls then
    /// replay exactly as in the monolithic fabric.
    pub fn with_fault_plan_shard(
        topology: impl Into<Topology>,
        config: FabricConfig,
        base: usize,
        owned: usize,
        plan: FaultPlan,
    ) -> Self {
        let mut fabric = Self::new_shard(topology, config, base, owned);
        fabric.fault = Some(plan);
        fabric
    }

    /// Global id of the first node this fabric owns (`0` unless built by
    /// [`Fabric::new_shard`]).
    pub fn shard_base(&self) -> usize {
        self.base
    }

    /// Number of nodes this fabric owns.
    pub fn shard_owned(&self) -> usize {
        self.owned
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// The log of injected faults (`None` when no plan is attached).
    pub fn fault_log(&self) -> Option<&FaultLog> {
        self.fault.as_ref().map(FaultPlan::log)
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The buffering configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// The current network cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &FabricStats {
        &self.stats
    }

    /// Per-component latency accounting and histograms for the current
    /// measurement window (same window as [`Fabric::stats`]).
    pub fn breakdown(&self) -> &LatencyBreakdown {
        &self.breakdown
    }

    /// The event-trace ring, when
    /// [`FabricConfig::trace_capacity`] is nonzero.
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.trace.as_ref()
    }

    /// Resets statistics counters and the latency breakdown (e.g. after a
    /// warmup window). Messages currently in flight still deliver and are
    /// counted against the new window. The event trace is deliberately
    /// *not* cleared: it is a ring, so stale warmup events age out on
    /// their own and a post-mortem can still see across the reset.
    pub fn reset_stats(&mut self) {
        self.stats.reset(self.cycle);
        self.breakdown.reset();
    }

    /// Enqueues a message for injection at its source node and returns its
    /// id. The injection queue is unbounded; queueing delay is visible in
    /// each [`Delivery`]'s timestamps.
    ///
    /// Messages to self (`src == dst`) are looped back through the
    /// interface without entering the network.
    ///
    /// # Panics
    ///
    /// Panics if the source or destination node is out of range.
    pub fn inject(&mut self, message: Message<P>) -> MessageId {
        let id = MessageId(self.next_id);
        self.next_id += 1;
        self.inject_with_id(id, message);
        id
    }

    /// Enqueues a message under a caller-assigned id — the shard driver's
    /// injection path. Fault rolls hash over message ids, so a sharded
    /// run must assign the same globally sequential ids the monolithic
    /// fabric would; the driver owns that counter and routes each
    /// injection to the shard owning its source node. Monolithic callers
    /// use [`Fabric::inject`], which assigns ids itself.
    ///
    /// # Panics
    ///
    /// Panics if a node is out of range or the source is not owned by
    /// this fabric.
    pub fn inject_with_id(&mut self, id: MessageId, message: Message<P>) {
        // Traffic terminates only at compute nodes: switch-only nodes
        // (fat-tree internal levels) can relay but never source or sink.
        assert!(
            message.src.0 < self.topology.compute_nodes(),
            "source out of range"
        );
        assert!(
            message.dst.0 < self.topology.compute_nodes(),
            "destination out of range"
        );
        assert!(
            self.in_shard(message.src.0),
            "source not owned by this shard"
        );
        let src = message.src.0 - self.base;
        self.injected_total += 1;
        // Depth the new message finds ahead of it: queued plus streaming.
        let depth = self.nis[src].queue.len() as u64 + u64::from(self.nis[src].streaming.is_some());
        self.breakdown.queue_depth.record(depth);
        let pending = Pending {
            id: id.0,
            message,
            enqueued_at: self.cycle,
            injected_at: 0,
            dst_arrived_at: 0,
            head_delivered_at: 0,
            hops: 0,
            doomed: None,
        };
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(pending);
                slot
            }
            None => {
                self.slots.push(Some(pending));
                (self.slots.len() - 1) as u32
            }
        };
        self.live += 1;
        self.nis[src].queue.push_back((slot, id));
        self.active_nis.insert(src);
    }

    /// Number of messages injected but not yet delivered (queued,
    /// streaming, or in the network).
    pub fn in_flight(&self) -> usize {
        self.live
    }

    /// Messages waiting in a node's injection queue (including the one
    /// currently streaming).
    pub fn injection_backlog(&self, node: NodeId) -> usize {
        let n = node.0 - self.base;
        self.nis[n].queue.len() + usize::from(self.nis[n].streaming.is_some())
    }

    /// Takes the next completed delivery at `node`, if any.
    pub fn poll_delivery(&mut self, node: NodeId) -> Option<Delivery<P>> {
        self.deliveries[node.0 - self.base].pop_front()
    }

    /// Clears `out` and fills it (ascending) with the **global** ids of
    /// nodes that received a delivery since the previous drain, then
    /// resets the event set.
    ///
    /// This is the fabric-to-machine wake-up channel of the active-node
    /// engine: a drained event only says "a delivery was pushed for this
    /// node at some point"; the deliveries themselves stay queued until
    /// [`Fabric::poll_delivery`] consumes them.
    pub fn take_delivery_events(&mut self, out: &mut Vec<u32>) {
        self.delivery_events.collect_into(out);
        self.delivery_events.clear();
        if self.base != 0 {
            let base = self.base as u32;
            for node in out.iter_mut() {
                *node += base;
            }
        }
    }

    /// Total flits currently buffered across all routers (diagnostic).
    /// Flits still crossing a shard boundary count as on their link, as
    /// in the whole-torus fabric.
    pub fn buffered_flits(&self) -> usize {
        self.buffered as usize - self.inbound.len()
    }

    /// Flits currently buffered in each router, indexed by node
    /// (diagnostic; feeds watchdog stall dumps). Served from the engine's
    /// incrementally maintained counters — O(nodes), no per-VC scan.
    pub fn router_occupancy(&self) -> Vec<usize> {
        let mut occupancy: Vec<usize> = self.occupancy.iter().map(|&c| c as usize).collect();
        for &node in &self.inbound {
            occupancy[node as usize] -= 1;
        }
        occupancy
    }

    /// Monotone count of flit movements since construction. A fabric
    /// making progress keeps advancing this; a wedged fabric does not.
    pub fn activity(&self) -> u64 {
        self.activity
    }

    /// Total messages ever injected (not windowed, unlike
    /// [`FabricStats::injected_messages`]). With windowless stats,
    /// `delivered + dropped + in_flight == total_injected` always holds —
    /// the message-conservation invariant the fault tests assert. Shard
    /// fabrics count only injections at their own nodes; the driver sums
    /// across shards for the global invariant.
    pub fn total_injected(&self) -> u64 {
        self.injected_total
    }

    /// Advances the fabric by one network cycle. On a quiescent fabric
    /// ([`Fabric::is_quiescent`]) this is the clock tick of
    /// [`Fabric::fast_forward`]`(1)`.
    ///
    /// # Errors
    ///
    /// Returns a [`FabricError`] if internal bookkeeping is found
    /// inconsistent (a flit referencing an unknown message, or an
    /// arbitration selecting an empty buffer).
    pub fn step(&mut self) -> Result<(), FabricError> {
        self.inbound.clear();
        self.cycle += 1;
        self.stats.cycles += 1;
        if let Some(plan) = self.fault.as_mut() {
            plan.activate(self.cycle);
        }
        // With nothing in motion the five phases cannot move a flit, roll
        // a fault or touch an arbiter: the step is the clock tick above,
        // exactly what `fast_forward(1)` does.
        if self.is_quiescent() {
            return Ok(());
        }
        self.deliver_links();
        // Snapshot the routers holding flits once; phases 2 and 3 share
        // it (routing moves no flits, so occupancy is stable in between).
        let mut active = mem::take(&mut self.node_scratch);
        self.active_routers.collect_into(&mut active);
        let result = self
            .compute_routes(&active)
            .and_then(|()| self.switch_traversal(&active));
        self.node_scratch = active;
        result?;
        self.apply_credit_returns();
        self.inject_flits()
    }

    /// Advances the fabric until no messages remain in flight or
    /// `max_cycles` elapse; returns `true` if the fabric drained.
    ///
    /// # Errors
    ///
    /// Propagates any [`FabricError`] raised by [`Fabric::step`].
    pub fn run_until_idle(&mut self, max_cycles: u64) -> Result<bool, FabricError> {
        for _ in 0..max_cycles {
            if self.live == 0 {
                return Ok(true);
            }
            self.step()?;
        }
        Ok(self.live == 0)
    }

    /// Jumps the clock forward `cycles` cycles without stepping, valid
    /// only when the fabric is completely quiescent (no messages in
    /// flight anywhere: buffers, links, queues). Returns the number of
    /// cycles actually skipped — `0` if traffic is in flight, in which
    /// case the caller must [`step`](Fabric::step) instead.
    ///
    /// Cycle accuracy is preserved exactly: an idle fabric's step is a
    /// pure clock tick (no flit moves, no arbitration state changes, no
    /// RNG rolls), except that scheduled faults may fire. This method
    /// walks the scheduled-fault cycles inside the gap in order and fires
    /// each at its exact cycle, so the resulting state — clock, stats,
    /// fault log, stall windows — is identical to having stepped
    /// cycle by cycle (asserted by the equivalence tests).
    pub fn fast_forward(&mut self, cycles: u64) -> u64 {
        if !self.is_quiescent() {
            return 0;
        }
        let target = self.cycle + cycles;
        while let Some(next) = self
            .fault
            .as_ref()
            .and_then(|plan| plan.next_scheduled(self.cycle))
        {
            if next > target {
                break;
            }
            self.stats.cycles += next - self.cycle;
            self.cycle = next;
            if let Some(plan) = self.fault.as_mut() {
                plan.activate(next);
            }
        }
        self.stats.cycles += target - self.cycle;
        self.cycle = target;
        if let Some(plan) = self.fault.as_mut() {
            plan.activate(target);
        }
        cycles
    }

    /// Absolute-cycle form of [`Fabric::fast_forward`], for machine-level
    /// callers that think in horizons rather than deltas: jumps the clock
    /// to `target` (a no-op if the clock is already there or past it) and
    /// returns the cycles actually skipped — `0` if traffic is in flight.
    pub fn fast_forward_to(&mut self, target: u64) -> u64 {
        if target <= self.cycle {
            return 0;
        }
        self.fast_forward(target - self.cycle)
    }

    /// Whether nothing at all is in motion here: no live messages, no
    /// buffered flits, nothing on links or injection channels, no
    /// undrained boundary traffic, and no partially transferred messages.
    /// For a whole-torus fabric this is equivalent to
    /// `in_flight() == 0`; a shard can hold trailing flits of messages
    /// whose slab bookkeeping already moved to another shard, which the
    /// extra terms account for. All O(1).
    pub fn is_quiescent(&self) -> bool {
        self.live == 0
            && self.buffered == 0
            && self.link_occupied.is_empty()
            && self.inj_occupied.is_empty()
            && self.boundary_out.is_empty()
            && self.remap.is_empty()
    }

    /// Offset of `(port, vc)` in a node's block of the flattened VC
    /// arrays — also its bit in the route-ready and requester sets. The
    /// injection/ejection port (`port == link_ports`, `vc == 0`) lands on
    /// the trailing slot of the block.
    #[inline]
    fn vc_offset(&self, port: usize, vc: usize) -> usize {
        port * self.config.link_vcs + vc
    }

    /// Index of `(local node, port, vc)` in the flattened VC arrays.
    #[inline]
    fn vc_idx(&self, node: usize, port: usize, vc: usize) -> usize {
        node * self.vc_stride + self.vc_offset(port, vc)
    }

    /// Virtual channels on a port: `link_vcs` for link ports, one for the
    /// injection/ejection port.
    #[inline]
    fn port_vcs(&self, port: usize) -> usize {
        if port == self.link_ports {
            1
        } else {
            self.config.link_vcs
        }
    }

    /// Whether a global node id falls in this fabric's owned range.
    #[inline]
    fn in_shard(&self, global: usize) -> bool {
        global >= self.base && global < self.base + self.owned
    }

    /// Row of the requester set for `(local node, output port, dateline
    /// class)`.
    #[inline]
    fn req_row(&self, node: usize, output: usize, class: usize) -> usize {
        (node * (self.link_ports + 1) + output) * DATELINE_VCS + class
    }

    /// Re-derives whether `output` of router `node` is busy: it holds a
    /// locked VC or a routed head waits for it.
    fn refresh_busy(&mut self, node: usize, output: usize) {
        let first = self.vc_idx(node, output, 0);
        let busy = self.out_locked[first..first + self.port_vcs(output)]
            .iter()
            .any(|&lock| lock != UNLOCKED)
            || (0..DATELINE_VCS)
                .any(|class| !self.requesters.is_empty(self.req_row(node, output, class)));
        if busy {
            self.busy_outputs.insert(node, output);
        } else {
            self.busy_outputs.remove(node, output);
        }
    }

    /// Phase 1: flits in transit arrive in downstream input buffers.
    /// Visits only the links and injection channels that carry a flit.
    fn deliver_links(&mut self) {
        let injection = self.vc_offset(self.link_ports, 0);
        mem::swap(&mut self.link_occupied, &mut self.link_scratch);
        for i in 0..self.link_scratch.len() {
            let li = self.link_scratch[i] as usize;
            let Some((flit, vc)) = self.links[li].take() else {
                continue;
            };
            // Cross-shard flits never enter `links`, so the downstream
            // node of a locally occupied link is always owned.
            let down = self.neighbors[li] as usize;
            let node = down - self.base;
            let offset = self.vc_offset(self.link_in_ports[li] as usize, vc);
            self.push_flit(node, offset, flit);
            self.stamp_head_arrival(flit, down, self.cycle);
        }
        self.link_scratch.clear();
        mem::swap(&mut self.inj_occupied, &mut self.inj_scratch);
        for i in 0..self.inj_scratch.len() {
            let node = self.inj_scratch[i] as usize;
            let Some(flit) = self.inj_links[node].take() else {
                continue;
            };
            self.push_flit(node, injection, flit);
        }
        self.inj_scratch.clear();
    }

    /// Stamps `cycle` as the destination arrival of the message whose
    /// head `flit` enters global router `down`, if `down` is its
    /// destination — the boundary between in-network (hop) time and
    /// ejection wait in the latency breakdown. One slab lookup per head
    /// per hop; the id check skips a slot the message no longer holds.
    fn stamp_head_arrival(&mut self, flit: Flit, down: usize, cycle: u64) {
        if !flit.kind.is_head() {
            return;
        }
        if let Some(pending) = self.slots[flit.slot as usize].as_mut() {
            if pending.id == flit.message.0 && pending.message.dst.0 == down {
                pending.dst_arrived_at = cycle;
            }
        }
    }

    /// Appends `flit` to the input VC at `offset` of router `node`,
    /// marking the VC route-ready when the flit is a head that lands at
    /// the front.
    fn push_flit(&mut self, node: usize, offset: usize, flit: Flit) {
        let capacity = if offset + 1 == self.vc_stride {
            self.config.injection_buffer_capacity
        } else {
            self.config.vc_buffer_capacity
        };
        let fifo = &mut self.in_fifo[node * self.vc_stride + offset];
        debug_assert!(fifo.len() < capacity, "credit protocol violated");
        fifo.push_back(flit);
        if flit.kind.is_head() && fifo.len() == 1 {
            self.route_ready.insert(node, offset);
        }
        self.occupancy[node] += 1;
        self.buffered += 1;
        self.active_routers.insert(node);
    }

    /// Phase 2: assign routes to head flits now at buffer fronts, and
    /// enter each as a requester for its output. Visits only route-ready
    /// VCs, lowest offset first — the old port-major, injection-last
    /// scan order — and leaves the set empty.
    fn compute_routes(&mut self, active: &[u32]) -> Result<(), FabricError> {
        let local = self.link_ports;
        for &n in active {
            let node = n as usize;
            let global = NodeId(self.base + node);
            while let Some(offset) = self.route_ready.pop_first(node) {
                let idx = node * self.vc_stride + offset;
                let front = self.in_fifo[idx].front();
                debug_assert!(
                    self.in_route[idx] == Route::NONE && front.is_some_and(|f| f.kind.is_head()),
                    "route-ready VC without an unrouted head at its front"
                );
                let Some(&front) = front else {
                    continue;
                };
                let message = front.message;
                let slot = front.slot as usize;
                let pending = self
                    .slots
                    .get(slot)
                    .and_then(Option::as_ref)
                    .filter(|p| p.id == message.0)
                    .ok_or(FabricError::UnknownMessage {
                        message,
                        context: "route computation",
                        cycle: self.cycle,
                    })?;
                let (src, dst) = (pending.message.src, pending.message.dst);
                let (port, class) = match self.topology.route_hop(src, dst, global) {
                    PortStep::Eject => (local, 0),
                    PortStep::Forward { port, vc } => (port, vc),
                };
                self.in_route[idx] = Route {
                    port: port as u16,
                    class: class as u16,
                };
                self.in_routed_at[idx] = self.cycle;
                // The dateline class keys the requester row, matching the
                // removal when this head is forwarded.
                let row = self.req_row(node, port, class);
                self.requesters.insert(row, offset);
                self.busy_outputs.insert(node, port);
            }
        }
        Ok(())
    }

    /// Phase 3: each output physical channel forwards at most one flit.
    /// Visits only routers holding flits, in ascending node order, and in
    /// each only its busy outputs, in ascending port order — the same
    /// order the full scan used, so arbitration and fault rolls are
    /// bit-for-bit identical. Skipping the rest is invisible: an idle
    /// router or an output with no lock and no requester can never
    /// forward, `pick_sender` changes no state when it finds nothing, and
    /// the fault checks are pure reads.
    ///
    /// Faulted outputs (killed or stalled links, stalled routers) forward
    /// nothing; their traffic waits in input buffers and backpressure
    /// propagates upstream through the ordinary credit mechanism.
    fn switch_traversal(&mut self, active: &[u32]) -> Result<(), FabricError> {
        for &n in active {
            let node = n as usize;
            // Faults are keyed by global node id: a restricted shard plan
            // replays the monolithic plan's decisions exactly.
            let global = self.base + node;
            if let Some(plan) = self.fault.as_ref() {
                if plan.router_stalled(self.cycle, global) {
                    continue;
                }
            }
            // Forwarding changes only the current output's bit, so
            // re-reading the row from one past it walks the busy outputs
            // as they stood.
            let mut from = 0;
            while let Some(output) = self.busy_outputs.first_from(node, from) {
                from = output + 1;
                if output < self.link_ports {
                    if let Some(plan) = self.fault.as_ref() {
                        if plan.link_blocked(self.cycle, global, output) {
                            continue;
                        }
                    }
                }
                if let Some((input, out_vc)) = self.pick_sender(node, output) {
                    self.forward_flit(node, output, out_vc, input)?;
                }
            }
        }
        Ok(())
    }

    /// Chooses which input VC (if any) sends on output `output` of router
    /// `node` this cycle, allocating the output VC to a new message when
    /// unlocked. Returns the chosen input VC's offset and the output VC.
    fn pick_sender(&mut self, node: usize, output: usize) -> Option<(usize, VcIndex)> {
        let vc_count = self.port_vcs(output);
        let rr = node * (self.link_ports + 1) + output;
        let block = node * self.vc_stride;
        let mut w = self.out_rr_vc[rr] as usize;
        for _ in 0..vc_count {
            let ovc = block + self.vc_offset(output, w);
            let next = if w + 1 == vc_count { 0 } else { w + 1 };
            if self.out_credits[ovc] != 0 {
                let lock = self.out_locked[ovc];
                if lock != UNLOCKED {
                    // Continue the wormhole if the next flit has arrived.
                    let input = lock as usize;
                    if !self.in_fifo[block + input].is_empty() {
                        self.out_rr_vc[rr] = next as u32;
                        return Some((input, w));
                    }
                } else if let Some(input) = self.find_requester(node, output, w) {
                    // Allocate this output VC to a new message and forward
                    // its head immediately.
                    self.out_locked[ovc] = input as u32;
                    self.out_rr_vc[rr] = next as u32;
                    return Some((input, w));
                }
            }
            w = next;
        }
        None
    }

    /// Round-robin pick among the input VCs whose routed head waits for
    /// output VC `(output, w)`: the first requester at or after the VC's
    /// pointer, else the first one — the winner of a cyclic scan from
    /// the pointer. Returns the winner's offset; `None`, and no state
    /// change, when the set is empty.
    fn find_requester(&mut self, node: usize, output: usize, w: VcIndex) -> Option<usize> {
        let ovc = self.vc_idx(node, output, w);
        let row = self.req_row(node, output, self.vc_class(w));
        let offset = self
            .requesters
            .first_from(row, self.out_rr_input[ovc] as usize)
            .or_else(|| self.requesters.first_from(row, 0))?;
        // One past the winner; a pointer past the last VC finds nothing
        // at or after it and wraps to the first requester.
        self.out_rr_input[ovc] = offset as u32 + 1;
        Some(offset)
    }

    /// The dateline class output VC `w` serves: the lower half of a
    /// link's VCs is class 0, the upper half class 1. The ejection port's
    /// single VC is `0`, so class 0.
    fn vc_class(&self, w: VcIndex) -> usize {
        usize::from(w >= self.config.link_vcs / DATELINE_VCS)
    }

    /// Moves one flit from the input VC at `offset` of router `node` out
    /// through `(output, out_vc)` — onto a link, into the local delivery
    /// queue, or (for fault-doomed messages) into the void.
    fn forward_flit(
        &mut self,
        node: usize,
        output: usize,
        out_vc: VcIndex,
        offset: usize,
    ) -> Result<(), FabricError> {
        let local = self.link_ports;
        let global = self.base + node;
        let buf = node * self.vc_stride + offset;
        let route_class = usize::from(self.in_route[buf].class);
        let routed_at = self.in_routed_at[buf];
        let flit = self.in_fifo[buf]
            .pop_front()
            .ok_or(FabricError::MissingFlit {
                node: NodeId(global),
                cycle: self.cycle,
            })?;
        if flit.kind.is_tail() {
            self.in_route[buf] = Route::NONE;
            // The next message's head, if buffered, is now at the front.
            if self.in_fifo[buf].front().is_some_and(|f| f.kind.is_head()) {
                self.route_ready.insert(node, offset);
            }
        }
        self.occupancy[node] -= 1;
        self.buffered -= 1;
        if self.occupancy[node] == 0 {
            self.active_routers.remove(node);
        }
        if flit.kind.is_head() {
            // A head departs only through its routed output: it stops
            // requesting that output.
            let row = self.req_row(node, output, route_class);
            self.requesters.remove(row, offset);
            if let Some(trace) = self.trace.as_mut() {
                // Routed in phase 2, forwardable in phase 3 of the same
                // cycle: any later departure means it sat blocked.
                let waited = self.cycle - routed_at;
                if waited > 0 {
                    trace.push(TraceEvent::HopBlock {
                        cycle: self.cycle,
                        message: flit.message,
                        node: NodeId(global),
                        waited,
                    });
                }
            }
        }
        // Free the slot upstream. The injection input's offset,
        // `link_ports * link_vcs`, splits into `(link_ports, 0)`.
        let link_vcs = self.config.link_vcs;
        let (in_port, in_vc) = (offset / link_vcs, offset % link_vcs);
        if in_port == local {
            // Only phase 5 reads injection credits, so crediting the slot
            // now is what phase 4 would show it.
            self.inj_credits[node] += 1;
            debug_assert!(self.inj_credits[node] as usize <= self.config.injection_buffer_capacity);
        } else {
            // The upstream router feeding input port `p`, and the output
            // port this link occupies there, come from the precomputed
            // upstream tables (on a torus: the neighbor behind the
            // opposite-direction port `p ^ 1`, at its own port `p`).
            let ui = node * self.link_ports + in_port;
            let upstream = self.upstream[ui] as usize;
            let up_port = self.upstream_ports[ui];
            debug_assert_ne!(self.upstream[ui], NO_LINK, "flit arrived on absent link");
            if self.in_shard(upstream) {
                let ovc = self.vc_idx(upstream - self.base, usize::from(up_port), in_vc);
                self.credit_scratch.push(ovc as u32);
            } else {
                // The freed slot belongs to an output VC in another
                // shard: hand the credit across the boundary. The
                // exchange applies it before the next cycle's allocation
                // reads it — the same visibility the monolithic phase-4
                // return provides.
                self.boundary_out
                    .push(BoundaryItem(BoundaryPayload::Credit {
                        node: upstream as u32,
                        port: up_port,
                        vc: in_vc as u16,
                    }));
            }
        }
        // Release the wormhole lock on a tail. A departing head leaves
        // its output locked, so only a tail can leave the output idle.
        if flit.kind.is_tail() {
            let ovc = self.vc_idx(node, output, out_vc);
            self.out_locked[ovc] = UNLOCKED;
            self.refresh_busy(node, output);
        }
        // Fault rolls happen once per message per link crossing, on the
        // head flit, keyed by global node id so a given seed replays
        // exactly — sharded or not. Only a drop roll dooms a message, so
        // without a plan there is no doom to look up.
        let slot = flit.slot as usize;
        let mut doomed_here = self.fault.is_some()
            && self.slots[slot].as_ref().is_some_and(|p| {
                p.id == flit.message.0 && p.doomed == Some((global as u32, output as u32))
            });
        if !doomed_here && output != local && flit.kind.is_head() {
            if let Some(plan) = self.fault.as_mut() {
                if let Some(mask) = plan.roll_corrupt(self.cycle, global, output, flit.message) {
                    if let Some(pending) =
                        self.slots[slot].as_mut().filter(|p| p.id == flit.message.0)
                    {
                        // Count messages, not events: a worm crossing many
                        // links may be corrupted more than once.
                        if pending.message.is_intact() {
                            self.stats.corrupted_messages += 1;
                        }
                        pending.message.checksum ^= mask;
                    }
                }
                if plan.roll_drop(self.cycle, global, output, flit.message) {
                    if let Some(pending) =
                        self.slots[slot].as_mut().filter(|p| p.id == flit.message.0)
                    {
                        pending.doomed = Some((global as u32, output as u32));
                    }
                    doomed_here = true;
                }
                plan.roll_stall(self.cycle, global, output);
            }
        }
        if doomed_here {
            // The worm drains into the faulty link and evaporates: the
            // flit is consumed (its upstream slot was credited normally,
            // keeping flow control consistent) but never reaches the link,
            // so no downstream credits are spent and nothing is delivered.
            // A doomed head never crosses a shard boundary, so the whole
            // worm evaporates in the shard that rolled the drop.
            self.stats.dropped_flits += 1;
            self.activity += 1;
            if flit.kind.is_tail()
                && self.slots[slot]
                    .as_ref()
                    .is_some_and(|p| p.id == flit.message.0)
            {
                self.slots[slot] = None;
                self.free_slots.push(slot as u32);
                self.live -= 1;
                self.stats.dropped_messages += 1;
                if let Some(trace) = self.trace.as_mut() {
                    trace.push(TraceEvent::Drop {
                        cycle: self.cycle,
                        message: flit.message,
                        node: NodeId(global),
                    });
                }
            }
        } else if output == local {
            self.eject_flit(node, flit)?;
        } else {
            let ovc = self.vc_idx(node, output, out_vc);
            debug_assert!(self.out_credits[ovc] > 0 && self.out_credits[ovc] != INFINITE_CREDITS);
            self.out_credits[ovc] -= 1;
            let li = node * self.link_ports + output;
            self.stats.link_busy[li] += 1;
            self.stats.link_flits += 1;
            self.activity += 1;
            let down = self.neighbors[li] as usize;
            if self.in_shard(down) {
                debug_assert!(self.links[li].is_none(), "one flit per link per cycle");
                self.links[li] = Some((flit, out_vc));
                self.link_occupied.push(li as u32);
            } else {
                // Crossing a shard boundary: the flit leaves on this link
                // but lands in another shard's fabric next cycle. A head
                // carries the message's slab bookkeeping with it; trailing
                // flits are re-pointed at the receiver's slab through its
                // per-crossing remap.
                let mut transfer = None;
                if flit.kind.is_head()
                    && self.slots[slot]
                        .as_ref()
                        .is_some_and(|p| p.id == flit.message.0)
                {
                    if let Some(pending) = self.slots[slot].take() {
                        self.free_slots.push(slot as u32);
                        self.live -= 1;
                        transfer = Some(Box::new(pending));
                    }
                }
                self.boundary_out.push(BoundaryItem(BoundaryPayload::Flit {
                    down: down as u32,
                    port: self.link_in_ports[li],
                    vc: out_vc as u16,
                    flit,
                    transfer,
                }));
            }
        }
        Ok(())
    }

    /// Consumes a flit at its destination, completing the message on its
    /// tail.
    fn eject_flit(&mut self, node: usize, flit: Flit) -> Result<(), FabricError> {
        self.stats.ejection_busy[node] += 1;
        self.activity += 1;
        let cycle = self.cycle;
        let slot = flit.slot as usize;
        let unknown = move |context| FabricError::UnknownMessage {
            message: flit.message,
            context,
            cycle,
        };
        let pending = self
            .slots
            .get_mut(slot)
            .and_then(Option::as_mut)
            .filter(|p| p.id == flit.message.0)
            .ok_or(unknown("ejection"))?;
        if flit.kind.is_head() {
            pending.head_delivered_at = cycle;
            pending.hops =
                self.topology
                    .distance(pending.message.src, pending.message.dst) as u32;
        }
        if flit.kind.is_tail() {
            let pending = self.slots[slot].take().ok_or(unknown("tail ejection"))?;
            self.complete_delivery(slot as u32, pending);
        }
        Ok(())
    }

    /// Completes the message that held slab `slot` at its destination on
    /// this cycle: frees the slot, records the delivery in the stats, the
    /// latency breakdown and the trace, queues it at the destination and
    /// raises that node's delivery event. Tail ejections and loopbacks (a
    /// zero-hop delivery stamped entirely at its injection cycle) both
    /// end here.
    fn complete_delivery(&mut self, slot: u32, pending: Pending<P>) {
        self.free_slots.push(slot);
        self.live -= 1;
        let delivery = Delivery {
            enqueued_at: pending.enqueued_at,
            injected_at: pending.injected_at,
            dst_arrived_at: pending.dst_arrived_at,
            head_delivered_at: pending.head_delivered_at,
            delivered_at: self.cycle,
            hops: pending.hops,
            message: pending.message,
        };
        self.stats.record_delivery(
            delivery.total_latency(),
            delivery.head_network_latency(),
            delivery.hops,
            delivery.injected_at - delivery.enqueued_at,
            delivery.message.length,
        );
        self.breakdown.record(&delivery.breakdown());
        if let Some(trace) = self.trace.as_mut() {
            trace.push(TraceEvent::Deliver {
                cycle: self.cycle,
                message: MessageId(pending.id),
                dst: delivery.message.dst,
                total_latency: delivery.total_latency(),
                hops: delivery.hops,
            });
        }
        let node = delivery.message.dst.0 - self.base;
        self.deliveries[node].push_back(delivery);
        self.delivery_events.insert(node);
    }

    /// Phase 4: freed link buffer slots become visible upstream. Drains
    /// the reusable credit scratch filled during switch traversal.
    fn apply_credit_returns(&mut self) {
        for i in 0..self.credit_scratch.len() {
            let ovc = self.credit_scratch[i] as usize;
            self.out_credits[ovc] += 1;
            debug_assert!(self.out_credits[ovc] as usize <= self.config.vc_buffer_capacity);
        }
        self.credit_scratch.clear();
    }

    /// Phase 5: network interfaces stream flits into their routers.
    /// Visits only interfaces with queued or streaming messages.
    fn inject_flits(&mut self) -> Result<(), FabricError> {
        let mut active = mem::take(&mut self.node_scratch);
        self.active_nis.collect_into(&mut active);
        let result = self.inject_active(&active);
        self.node_scratch = active;
        result
    }

    fn inject_active(&mut self, active: &[u32]) -> Result<(), FabricError> {
        for &n in active {
            let node = n as usize;
            if self.nis[node].queue.is_empty() && self.nis[node].streaming.is_none() {
                // Nothing left to send; any flit still on the injection
                // channel is tracked by the occupied-channel worklist.
                self.active_nis.remove(node);
                continue;
            }
            if self.inj_links[node].is_some() {
                continue;
            }
            // Start streaming the next message if idle, looping back
            // self-addressed messages without touching the network.
            while self.nis[node].streaming.is_none() {
                let Some((slot, id)) = self.nis[node].queue.pop_front() else {
                    break;
                };
                let cycle = self.cycle;
                let unknown = move |context| FabricError::UnknownMessage {
                    message: id,
                    context,
                    cycle,
                };
                let Some(pending) = self.slots[slot as usize].as_mut().filter(|p| p.id == id.0)
                else {
                    return Err(unknown("injection queue"));
                };
                if pending.message.src == pending.message.dst {
                    pending.injected_at = cycle;
                    pending.dst_arrived_at = cycle;
                    pending.head_delivered_at = cycle;
                    let pending = self.slots[slot as usize]
                        .take()
                        .ok_or(unknown("loopback delivery"))?;
                    self.complete_delivery(slot, pending);
                    self.activity += 1;
                    // Loopback consumes this cycle's injection slot.
                    break;
                }
                let length = pending.message.length;
                self.nis[node].streaming = Some((slot, id, 0, length));
            }
            let Some((slot, id, index, length)) = self.nis[node].streaming else {
                if self.nis[node].queue.is_empty() {
                    self.active_nis.remove(node);
                }
                continue;
            };
            if self.inj_credits[node] == 0 {
                continue;
            }
            // The flit kind comes from the cached length: the slab entry
            // is only guaranteed local until the head enters the network
            // (in a sharded run it can migrate away mid-stream).
            let kind = if length == 1 {
                FlitKind::HeadTail
            } else if index == 0 {
                FlitKind::Head
            } else if index + 1 == length {
                FlitKind::Tail
            } else {
                FlitKind::Body
            };
            if index == 0 {
                let (src, dst);
                {
                    let Some(pending) = self.slots[slot as usize].as_mut().filter(|p| p.id == id.0)
                    else {
                        return Err(FabricError::UnknownMessage {
                            message: id,
                            context: "injection streaming",
                            cycle: self.cycle,
                        });
                    };
                    pending.injected_at = self.cycle;
                    src = pending.message.src;
                    dst = pending.message.dst;
                }
                self.stats.injected_messages += 1;
                if let Some(trace) = self.trace.as_mut() {
                    trace.push(TraceEvent::Inject {
                        cycle: self.cycle,
                        message: id,
                        src,
                        dst,
                        length,
                    });
                }
            }
            self.inj_links[node] = Some(Flit {
                message: id,
                kind,
                slot,
            });
            self.inj_occupied.push(n);
            self.inj_credits[node] -= 1;
            self.stats.injected_flits += 1;
            self.stats.injection_busy[node] += 1;
            self.activity += 1;
            if index + 1 == length {
                self.nis[node].streaming = None;
                if self.nis[node].queue.is_empty() {
                    self.active_nis.remove(node);
                }
            } else {
                self.nis[node].streaming = Some((slot, id, index + 1, length));
            }
        }
        Ok(())
    }

    /// Drains the flits and credits that crossed out of this shard during
    /// the last [`Fabric::step`], appending them to `out` in the
    /// deterministic order switch traversal produced them (ascending
    /// node, then output port). Always empty for a whole-torus fabric.
    pub fn take_boundary(&mut self, out: &mut Vec<BoundaryItem<P>>) {
        out.append(&mut self.boundary_out);
    }

    /// Whether the last step produced boundary traffic (cheap peek for
    /// the shard driver).
    pub fn has_boundary(&self) -> bool {
        !self.boundary_out.is_empty()
    }

    /// Ingests one boundary item produced by another shard's
    /// [`Fabric::take_boundary`]. Must be called between steps, after
    /// every shard has finished the cycle that produced the item; the
    /// flit then becomes visible to routing exactly one cycle after it
    /// left the sender — the monolithic link latency.
    ///
    /// # Panics
    ///
    /// Panics (via indexing) if the item's target node is not owned by
    /// this fabric.
    pub fn ingest_boundary(&mut self, item: BoundaryItem<P>) {
        match item.0 {
            BoundaryPayload::Flit {
                down,
                port,
                vc,
                mut flit,
                transfer,
            } => {
                let node = down as usize - self.base;
                let crossing = (flit.message.0, down, port, vc);
                if let Some(pending) = transfer {
                    debug_assert_eq!(pending.id, flit.message.0);
                    let pending = *pending;
                    let slot = match self.free_slots.pop() {
                        Some(slot) => {
                            self.slots[slot as usize] = Some(pending);
                            slot
                        }
                        None => {
                            self.slots.push(Some(pending));
                            (self.slots.len() - 1) as u32
                        }
                    };
                    self.live += 1;
                    self.remap.insert(crossing, slot);
                }
                // Re-point the flit at the local slab: the slot it
                // carries indexes the sender's slab. Worm flits cross
                // each boundary link in order, so the head's transfer
                // above seeds this crossing's remap entry before any
                // trailing flit needs it. (At a crossing the message
                // has since left through, the entry's slot is stale —
                // harmless, because every consumer of `flit.slot`
                // checks the slab entry's id first, and such flits
                // always exit the shard and get re-mapped downstream.)
                if let Some(&slot) = self.remap.get(&crossing) {
                    flit.slot = slot;
                }
                if flit.kind.is_tail() {
                    self.remap.remove(&crossing);
                }
                // The receiver's clock still reads the cycle that
                // produced the flit; it enters the input buffer at what is
                // phase 1 of the next cycle, which is when the monolithic
                // engine stamps it.
                self.stamp_head_arrival(flit, down as usize, self.cycle + 1);
                let offset = self.vc_offset(port as usize, vc as usize);
                self.push_flit(node, offset, flit);
                self.inbound.push(node as u32);
            }
            BoundaryPayload::Credit { node, port, vc } => {
                let local = node as usize - self.base;
                let ovc = self.vc_idx(local, port as usize, vc as usize);
                self.out_credits[ovc] += 1;
                debug_assert!(self.out_credits[ovc] as usize <= self.config.vc_buffer_capacity);
            }
        }
    }

    /// Rebuilds the route-ready, requester and busy-output sets from the
    /// buffers, routes and locks, and asserts the maintained sets equal
    /// them — so bookkeeping drift fails on the cycle it happens.
    #[cfg(test)]
    pub(crate) fn audit_worklists(&self) {
        let mut route_ready = BitRows::new(self.owned, self.vc_stride);
        let mut requesters = BitRows::new(
            self.owned * (self.link_ports + 1) * DATELINE_VCS,
            self.vc_stride,
        );
        let mut busy_outputs = BitRows::new(self.owned, self.link_ports + 1);
        for node in 0..self.owned {
            for offset in 0..self.vc_stride {
                let idx = node * self.vc_stride + offset;
                if !self.in_fifo[idx].front().is_some_and(|f| f.kind.is_head()) {
                    continue;
                }
                let route = self.in_route[idx];
                if route == Route::NONE {
                    route_ready.insert(node, offset);
                } else {
                    let port = usize::from(route.port);
                    requesters.insert(self.req_row(node, port, usize::from(route.class)), offset);
                    busy_outputs.insert(node, port);
                }
            }
            for output in 0..=self.link_ports {
                for w in 0..self.port_vcs(output) {
                    if self.out_locked[self.vc_idx(node, output, w)] != UNLOCKED {
                        busy_outputs.insert(node, output);
                    }
                }
            }
        }
        let cycle = self.cycle;
        assert_eq!(
            route_ready, self.route_ready,
            "route-ready set drifted by cycle {cycle}"
        );
        assert_eq!(
            requesters, self.requesters,
            "requester sets drifted by cycle {cycle}"
        );
        assert_eq!(
            busy_outputs, self.busy_outputs,
            "busy-output sets drifted by cycle {cycle}"
        );
    }
}

/// A flit or credit leaving one shard for another, produced by a shard
/// fabric's switch traversal ([`Fabric::take_boundary`]) and delivered by
/// the shard driver into the owning fabric
/// ([`Fabric::ingest_boundary`]) before the next cycle. Opaque to the
/// driver, which only needs [`BoundaryItem::dst_node`] for routing.
#[derive(Debug, Clone)]
pub struct BoundaryItem<P>(BoundaryPayload<P>);

#[derive(Debug, Clone)]
enum BoundaryPayload<P> {
    /// A flit crossing from an owned node's output `port` onto global
    /// node `down`'s matching input port. Heads carry the message's slab
    /// entry to the receiving shard.
    Flit {
        down: u32,
        port: u16,
        vc: u16,
        flit: Flit,
        transfer: Option<Box<Pending<P>>>,
    },
    /// A buffer slot freed in the producing shard whose upstream output
    /// VC lives on global node `node` in another shard.
    Credit { node: u32, port: u16, vc: u16 },
}

impl<P> BoundaryItem<P> {
    /// The global node in whose shard this item must land.
    pub fn dst_node(&self) -> usize {
        match &self.0 {
            BoundaryPayload::Flit { down, .. } => *down as usize,
            BoundaryPayload::Credit { node, .. } => *node as usize,
        }
    }
}

/// An input VC's route: the output port its front message leaves
/// through and the dateline class it requests there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Route {
    port: u16,
    class: u16,
}

impl Route {
    /// No route assigned. Its class reads 0, as an unrouted VC's did.
    const NONE: Route = Route {
        port: NO_LINK_PORT,
        class: 0,
    };
}

/// Credit sentinel for the ejection pseudo-channel, which the node drains
/// unconditionally.
const INFINITE_CREDITS: u32 = u32::MAX;

/// Output-lock sentinel: no input VC owns the output VC.
const UNLOCKED: u32 = u32::MAX;

/// Sentinel in the `neighbors`/`upstream` tables for an absent link.
const NO_LINK: u32 = u32::MAX;

/// Sentinel in the port tables for an absent link.
const NO_LINK_PORT: u16 = u16::MAX;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{link_to_port, port_to_link, Direction, Torus};

    fn fabric() -> Fabric<u32> {
        Fabric::new(Torus::new(2, 8), FabricConfig::default())
    }

    #[test]
    fn port_link_round_trip() {
        for dim in 0..3 {
            for dir in Direction::ALL {
                assert_eq!(port_to_link(link_to_port(dim, dir)), (dim, dir));
            }
        }
    }

    #[test]
    #[should_panic(expected = "virtual channels")]
    fn rejects_single_vc() {
        let cfg = FabricConfig {
            link_vcs: 1,
            ..FabricConfig::default()
        };
        let _ = Fabric::<()>::new(Torus::new(2, 4), cfg);
    }

    #[test]
    fn single_message_unloaded_latency() {
        let mut f = fabric();
        let src = NodeId(0);
        let dst = f.topology().as_torus().node_at(&[3, 2]); // 5 hops
        f.inject(Message::new(src, dst, 12, 7u32));
        assert!(f.run_until_idle(1000).unwrap());
        let d = f.poll_delivery(dst).expect("delivered");
        assert_eq!(d.hops, 5);
        // Head: 1 cycle on the injection channel + 1 per hop.
        assert_eq!(d.head_delivered_at - d.injected_at, 6);
        // Tail follows B-1 flits behind the head.
        assert_eq!(d.delivered_at - d.head_delivered_at, 11);
        assert_eq!(d.message.payload, 7);
    }

    #[test]
    fn self_message_loops_back() {
        let mut f = fabric();
        f.inject(Message::new(NodeId(5), NodeId(5), 12, 1u32));
        assert!(f.run_until_idle(10).unwrap());
        let d = f.poll_delivery(NodeId(5)).expect("delivered");
        assert_eq!(d.hops, 0);
        assert!(d.total_latency() <= 2);
        // Loopback never touches the network links.
        assert_eq!(f.stats().link_flits, 0);
    }

    #[test]
    fn deliveries_in_order_for_same_pair() {
        let mut f = fabric();
        let src = NodeId(0);
        let dst = NodeId(9);
        for i in 0..20u32 {
            f.inject(Message::new(src, dst, 4, i));
        }
        assert!(f.run_until_idle(10_000).unwrap());
        let mut got = Vec::new();
        while let Some(d) = f.poll_delivery(dst) {
            got.push(d.message.payload);
        }
        assert_eq!(got, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn all_to_one_converges() {
        // Heavy fan-in exercises arbitration fairness and backpressure.
        let mut f = fabric();
        let dst = NodeId(27);
        let mut sent = 0;
        for node in f.topology().as_torus().node_ids().collect::<Vec<_>>() {
            if node != dst {
                f.inject(Message::new(node, dst, 12, node.0 as u32));
                sent += 1;
            }
        }
        assert!(f.run_until_idle(100_000).unwrap(), "fan-in did not drain");
        let mut got = 0;
        while f.poll_delivery(dst).is_some() {
            got += 1;
        }
        assert_eq!(got, sent);
    }

    #[test]
    fn wraparound_messages_deliver() {
        // Routes that cross the dateline exercise VC class 1.
        let mut f = fabric();
        let t = f.topology().as_torus().clone();
        let src = t.node_at(&[6, 6]);
        let dst = t.node_at(&[1, 1]); // wraps in both dimensions
        f.inject(Message::new(src, dst, 12, 0u32));
        assert!(f.run_until_idle(1000).unwrap());
        let d = f.poll_delivery(dst).expect("delivered");
        assert_eq!(d.hops, 6);
    }

    #[test]
    fn ring_pressure_with_wraparound_no_deadlock() {
        // Every node on a single ring sends halfway around, saturating the
        // ring's wrap links — the classic torus deadlock scenario that the
        // dateline VCs must break.
        let torus = Torus::new(1, 8);
        let mut f: Fabric<u32> = Fabric::new(
            torus,
            FabricConfig {
                vc_buffer_capacity: 2,
                injection_buffer_capacity: 2,
                ..FabricConfig::default()
            },
        );
        for round in 0..10u32 {
            for node in 0..8usize {
                let dst = NodeId((node + 4) % 8);
                f.inject(Message::new(NodeId(node), dst, 12, round));
            }
        }
        assert!(f.run_until_idle(200_000).unwrap(), "ring deadlocked");
    }

    #[test]
    fn tiny_buffers_still_deliver() {
        let mut f: Fabric<u32> = Fabric::new(
            Torus::new(2, 4),
            FabricConfig {
                vc_buffer_capacity: 1,
                injection_buffer_capacity: 1,
                ..FabricConfig::default()
            },
        );
        for node in 0..16usize {
            f.inject(Message::new(NodeId(node), NodeId(15 - node), 20, 0u32));
        }
        assert!(f.run_until_idle(100_000).unwrap());
    }

    #[test]
    fn flit_conservation() {
        let mut f = fabric();
        let t = f.topology().as_torus().clone();
        for (i, node) in t.node_ids().enumerate() {
            let dst = NodeId((node.0 * 7 + 3) % t.nodes());
            f.inject(Message::new(node, dst, 4 + (i as u32 % 9), 0u32));
        }
        assert!(f.run_until_idle(100_000).unwrap());
        assert_eq!(f.buffered_flits(), 0);
        let s = f.stats();
        assert_eq!(s.delivered_messages, 64);
        // Every injected flit was delivered (loopbacks inject none).
        assert_eq!(s.delivered_flits, s.injected_flits + loopback_flits(&t));
    }

    fn loopback_flits(t: &Torus) -> u64 {
        // Messages whose computed destination equals the source.
        t.node_ids()
            .enumerate()
            .filter(|(_, node)| (node.0 * 7 + 3) % t.nodes() == node.0)
            .map(|(i, _)| 4 + (i as u64 % 9))
            .sum()
    }

    #[test]
    fn backlog_and_in_flight_reporting() {
        let mut f = fabric();
        for i in 0..5u32 {
            f.inject(Message::new(NodeId(0), NodeId(1), 12, i));
        }
        assert_eq!(f.in_flight(), 5);
        assert_eq!(f.injection_backlog(NodeId(0)), 5);
        assert!(f.run_until_idle(10_000).unwrap());
        assert_eq!(f.in_flight(), 0);
        assert_eq!(f.injection_backlog(NodeId(0)), 0);
    }

    #[test]
    fn stats_reset_keeps_fabric_running() {
        let mut f = fabric();
        f.inject(Message::new(NodeId(0), NodeId(9), 12, 0u32));
        for _ in 0..3 {
            f.step().unwrap();
        }
        f.reset_stats();
        assert_eq!(f.stats().cycles, 0);
        assert!(f.run_until_idle(1000).unwrap());
        assert_eq!(f.stats().delivered_messages, 1);
    }

    #[test]
    fn occupancy_counters_track_buffered_flits() {
        let mut f = fabric();
        for i in 0..10u32 {
            f.inject(Message::new(
                NodeId(i as usize),
                NodeId(40 + i as usize),
                6,
                i,
            ));
        }
        for _ in 0..30 {
            f.step().unwrap();
            let occ = f.router_occupancy();
            assert_eq!(occ.iter().sum::<usize>(), f.buffered_flits());
        }
        assert!(f.run_until_idle(10_000).unwrap());
        assert!(f.router_occupancy().iter().all(|&c| c == 0));
    }

    #[test]
    fn fast_forward_refuses_while_traffic_in_flight() {
        let mut f = fabric();
        f.inject(Message::new(NodeId(0), NodeId(9), 12, 0u32));
        assert_eq!(f.fast_forward(100), 0, "must not skip live traffic");
        assert_eq!(f.cycle(), 0);
    }

    #[test]
    fn fast_forward_advances_idle_clock_and_stats() {
        let mut f = fabric();
        f.inject(Message::new(NodeId(0), NodeId(9), 12, 0u32));
        assert!(f.run_until_idle(1_000).unwrap());
        let drained_at = f.cycle();
        assert_eq!(f.fast_forward(5_000), 5_000);
        assert_eq!(f.cycle(), drained_at + 5_000);
        assert_eq!(f.stats().cycles, f.cycle());
        // The fabric still works normally afterwards.
        f.inject(Message::new(NodeId(0), NodeId(9), 12, 1u32));
        assert!(f.run_until_idle(1_000).unwrap());
        assert_eq!(f.stats().delivered_messages, 2);
    }

    #[test]
    fn slab_slots_are_reused() {
        let mut f = fabric();
        for round in 0..50u32 {
            f.inject(Message::new(NodeId(0), NodeId(1), 4, round));
            assert!(f.run_until_idle(1_000).unwrap());
        }
        // Sequential traffic keeps the slab at its high-water mark instead
        // of growing per message.
        assert!(f.slots.len() <= 4, "slab grew to {}", f.slots.len());
        assert_eq!(f.total_injected(), 50);
    }
}

#[cfg(test)]
mod multi_vc_tests {
    use super::*;
    use crate::topology::Torus;

    #[test]
    #[should_panic(expected = "split evenly")]
    fn odd_vc_count_rejected() {
        let cfg = FabricConfig {
            link_vcs: 3,
            ..FabricConfig::default()
        };
        let _ = Fabric::<()>::new(Torus::new(2, 4), cfg);
    }

    #[test]
    fn four_vcs_deliver_under_pressure() {
        let mut f: Fabric<u32> = Fabric::new(
            Torus::new(2, 8),
            FabricConfig {
                link_vcs: 4,
                vc_buffer_capacity: 4,
                injection_buffer_capacity: 8,
                ..FabricConfig::default()
            },
        );
        let t = f.topology().as_torus().clone();
        for round in 0..20u32 {
            for node in t.node_ids().collect::<Vec<_>>() {
                let dst = NodeId((node.0 + 27) % t.nodes());
                if dst != node {
                    f.inject(Message::new(node, dst, 12, round));
                }
            }
        }
        assert!(f.run_until_idle(500_000).unwrap(), "4-VC fabric stalled");
        assert_eq!(f.stats().delivered_messages, 20 * 64);
    }

    #[test]
    fn four_vc_wraparound_ring_no_deadlock() {
        let mut f: Fabric<u32> = Fabric::new(
            Torus::new(1, 8),
            FabricConfig {
                link_vcs: 4,
                vc_buffer_capacity: 2,
                injection_buffer_capacity: 2,
                ..FabricConfig::default()
            },
        );
        for round in 0..10u32 {
            for node in 0..8usize {
                f.inject(Message::new(
                    NodeId(node),
                    NodeId((node + 4) % 8),
                    12,
                    round,
                ));
            }
        }
        assert!(f.run_until_idle(300_000).unwrap(), "4-VC ring deadlocked");
    }
}

#[cfg(test)]
mod shard_tests {
    use super::*;
    use crate::topology::Torus;

    /// Contiguous near-equal split of `nodes` into `k` ranges.
    fn split(nodes: usize, k: usize) -> Vec<(usize, usize)> {
        let size = nodes / k;
        let rem = nodes % k;
        let mut out = Vec::new();
        let mut base = 0;
        for i in 0..k {
            let owned = size + usize::from(i < rem);
            out.push((base, owned));
            base += owned;
        }
        out
    }

    fn owner(shards: &[Fabric<u32>], node: usize) -> usize {
        shards
            .iter()
            .position(|f| node >= f.shard_base() && node < f.shard_base() + f.shard_owned())
            .expect("node not owned by any shard")
    }

    /// Runs the same injection schedule through a monolithic fabric and a
    /// `k`-shard lockstep ensemble, then asserts bit-exact equivalence of
    /// merged stats, per-node delivery streams, latency breakdowns,
    /// merged fault logs, and message conservation. Returns the shards.
    fn compare_sharded(
        torus: Torus,
        config: FabricConfig,
        plan: Option<FaultPlan>,
        k: usize,
        schedule: &[(u64, NodeId, NodeId, u32)],
    ) -> Vec<Fabric<u32>> {
        let mut mono = match plan.clone() {
            Some(p) => Fabric::with_fault_plan(torus.clone(), config, p),
            None => Fabric::new(torus.clone(), config),
        };
        let mut shards: Vec<Fabric<u32>> = split(torus.nodes(), k)
            .into_iter()
            .map(|(base, owned)| match plan.clone() {
                Some(p) => Fabric::with_fault_plan_shard(
                    torus.clone(),
                    config,
                    base,
                    owned,
                    p.restrict(base, owned),
                ),
                None => Fabric::new_shard(torus.clone(), config, base, owned),
            })
            .collect();
        let mut next = 0usize;
        let mut next_id = 0u64;
        let mut payload = 0u32;
        let mut items: Vec<BoundaryItem<u32>> = Vec::new();
        loop {
            while next < schedule.len() && schedule[next].0 == mono.cycle() {
                let (_, src, dst, len) = schedule[next];
                mono.inject(Message::new(src, dst, len, payload));
                let s = owner(&shards, src.0);
                shards[s].inject_with_id(MessageId(next_id), Message::new(src, dst, len, payload));
                next_id += 1;
                payload += 1;
                next += 1;
            }
            if next >= schedule.len()
                && mono.in_flight() == 0
                && shards.iter().all(Fabric::is_quiescent)
            {
                break;
            }
            mono.step().unwrap();
            for f in shards.iter_mut() {
                f.step().unwrap();
            }
            for f in shards.iter_mut() {
                f.take_boundary(&mut items);
            }
            for item in items.drain(..) {
                let s = owner(&shards, item.dst_node());
                shards[s].ingest_boundary(item);
            }
            mono.audit_worklists();
            for f in &shards {
                f.audit_worklists();
            }
            assert!(mono.cycle() < 500_000, "traffic did not drain");
        }
        assert_eq!(mono.cycle(), shards[0].cycle());
        let merged = FabricStats::merged(shards.iter().map(Fabric::stats));
        assert_eq!(&merged, mono.stats(), "merged shard stats diverged");
        let mut breakdown = LatencyBreakdown::default();
        for f in &shards {
            breakdown.absorb(f.breakdown());
        }
        assert_eq!(&breakdown, mono.breakdown(), "merged breakdown diverged");
        for node in 0..torus.nodes() {
            let s = owner(&shards, node);
            loop {
                let m = mono.poll_delivery(NodeId(node));
                let sh = shards[s].poll_delivery(NodeId(node));
                assert_eq!(m, sh, "delivery stream diverged at node {node}");
                if m.is_none() {
                    break;
                }
            }
        }
        let merged_log = FaultLog::merge(shards.iter().filter_map(Fabric::fault_log));
        assert_eq!(merged_log.as_ref(), mono.fault_log(), "fault logs diverged");
        let total: u64 = shards.iter().map(Fabric::total_injected).sum();
        assert_eq!(total, mono.total_injected());
        let s = mono.stats();
        assert_eq!(s.delivered_messages + s.dropped_messages, total);
        shards
    }

    /// Scattered many-to-many traffic injected in waves, plus a couple of
    /// loopbacks; lengths vary so heads, bodies, and head-tails all cross
    /// shard boundaries at some point.
    fn scatter_schedule(nodes: usize, rounds: u64) -> Vec<(u64, NodeId, NodeId, u32)> {
        let mut schedule = Vec::new();
        for round in 0..rounds {
            for node in 0..nodes {
                let dst = (node * 13 + 5 + round as usize) % nodes;
                let len = 1 + ((node + round as usize) % 9) as u32;
                schedule.push((round * 7, NodeId(node), NodeId(dst), len));
            }
            schedule.push((
                round * 7,
                NodeId(round as usize % nodes),
                NodeId(round as usize % nodes),
                4,
            ));
        }
        schedule
    }

    #[test]
    fn two_shard_lockstep_matches_monolithic() {
        let torus = Torus::new(2, 8);
        let schedule = scatter_schedule(torus.nodes(), 6);
        compare_sharded(torus, FabricConfig::default(), None, 2, &schedule);
    }

    #[test]
    fn odd_shard_counts_match_monolithic() {
        let torus = Torus::new(2, 8);
        let schedule = scatter_schedule(torus.nodes(), 4);
        for k in [3, 7] {
            compare_sharded(torus.clone(), FabricConfig::default(), None, k, &schedule);
        }
    }

    #[test]
    fn wraparound_ring_two_shards() {
        // Halfway-around traffic on a 1D ring saturates the wrap links,
        // so worms cross both shard boundaries in both directions.
        let torus = Torus::new(1, 8);
        let mut schedule = Vec::new();
        for round in 0..10u64 {
            for node in 0..8usize {
                schedule.push((round * 3, NodeId(node), NodeId((node + 4) % 8), 12));
            }
        }
        let config = FabricConfig {
            vc_buffer_capacity: 2,
            injection_buffer_capacity: 2,
            ..FabricConfig::default()
        };
        compare_sharded(torus, config, None, 2, &schedule);
    }

    #[test]
    fn four_vc_three_d_torus_four_shards() {
        let torus = Torus::new(3, 4);
        let schedule = scatter_schedule(torus.nodes(), 3);
        let config = FabricConfig {
            link_vcs: 4,
            vc_buffer_capacity: 4,
            ..FabricConfig::default()
        };
        compare_sharded(torus, config, None, 4, &schedule);
    }

    /// A wrapping e-cube route can leave a shard and re-enter it at a
    /// different link: on a 5x5 torus cut into three 8-or-9-node ranges,
    /// 8 -> 10 routes 8 -> 9 -> 5 -> 10, crossing shard 0 -> shard 1
    /// twice. A worm long enough to span the whole path streams across
    /// both crossings concurrently, so the tail passing the first must
    /// not tear down the remap entry the second still needs (found by
    /// the machine-level fuzzer; message-id-keyed remap broke here).
    #[test]
    fn worm_reentering_shard_through_second_crossing() {
        let torus = Torus::new(2, 5);
        let mut schedule = vec![(0, NodeId(8), NodeId(10), 24)];
        // Pile on neighbours so freed slab slots get reused, which is
        // what turns a stale remap into a visible wrong-slot ejection.
        for n in 0..torus.nodes() {
            schedule.push((1, NodeId(n), NodeId((n + 7) % torus.nodes()), 16));
        }
        for k in [2, 3, 4] {
            compare_sharded(torus.clone(), FabricConfig::default(), None, k, &schedule);
        }
    }

    #[test]
    fn sharded_fault_rolls_replay_bit_exact() {
        let torus = Torus::new(2, 8);
        let schedule = scatter_schedule(torus.nodes(), 5);
        let plan = FaultPlan::new(77)
            .with_drop_rate(0.08)
            .with_corrupt_rate(0.08)
            .with_stall_rate(0.02, 40);
        for k in [2, 3] {
            compare_sharded(
                torus.clone(),
                FabricConfig::default(),
                Some(plan.clone()),
                k,
                &schedule,
            );
        }
    }

    #[test]
    fn idle_shard_ticks_beside_a_busy_one() {
        // Traffic only among rows 0-3 of an 8x8 torus: every route is at
        // most three hops in Y, so it never leaves shard 0 (nodes 0-31)
        // and shard 1 ticks idle throughout, while scheduled stalls fire
        // in it, one mid-run. Rolled stalls and drops keep shard 0's
        // plan busy. The pair must match the monolithic fabric.
        let torus = Torus::new(2, 8);
        let mut schedule = Vec::new();
        for round in 0..6u64 {
            for node in 0..32usize {
                let dst = (node * 11 + 3 + round as usize) % 32;
                schedule.push((round * 20, NodeId(node), NodeId(dst), 1 + (node % 6) as u32));
            }
        }
        let plan = FaultPlan::new(13)
            .with_drop_rate(0.03)
            .with_stall_rate(0.03, 25)
            .stall_router_at(40, 45, 90)
            .stall_link_at(70, 50, 0, crate::Direction::Plus, 30);
        let shards = compare_sharded(torus, FabricConfig::default(), Some(plan), 2, &schedule);
        assert_eq!(shards[1].activity(), 0, "shard 1 moved a flit");
        assert!(shards[0].activity() > 0);
        assert_eq!(
            shards[1].fault_log().unwrap().len(),
            2,
            "both scheduled stalls fire in the idle shard"
        );
        assert!(shards[1].stats().cycles > 100);
    }

    #[test]
    fn sharded_scheduled_stalls_replay_bit_exact() {
        let torus = Torus::new(2, 8);
        let schedule = scatter_schedule(torus.nodes(), 4);
        let plan = FaultPlan::new(9)
            .stall_router_at(5, 27, 120)
            .stall_router_at(40, 9, 60);
        compare_sharded(torus, FabricConfig::default(), Some(plan), 3, &schedule);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::topology::{Direction, Torus};

    /// Injects one message per node to a scattered destination.
    fn load(f: &mut Fabric<u32>) {
        let t = f.topology().as_torus().clone();
        for node in t.node_ids() {
            let dst = NodeId((node.0 * 13 + 5) % t.nodes());
            if dst != node {
                f.inject(Message::new(node, dst, 8, node.0 as u32));
            }
        }
    }

    fn drain(f: &mut Fabric<u32>) -> u64 {
        assert!(f.run_until_idle(200_000).unwrap(), "faulted fabric wedged");
        let mut delivered = 0;
        for node in f.topology().as_torus().node_ids().collect::<Vec<_>>() {
            while f.poll_delivery(node).is_some() {
                delivered += 1;
            }
        }
        delivered
    }

    #[test]
    fn drops_conserve_messages_and_flow_control() {
        let plan = FaultPlan::new(77).with_drop_rate(0.05);
        let mut f: Fabric<u32> =
            Fabric::with_fault_plan(Torus::new(2, 8), FabricConfig::default(), plan);
        for _ in 0..5 {
            load(&mut f);
        }
        let delivered = drain(&mut f);
        let s = f.stats().clone();
        assert!(s.dropped_messages > 0, "5% drop rate over ~320 messages");
        // Conservation: every injected message either delivered or was
        // logged as dropped; buffers and credits fully drained.
        assert_eq!(delivered + s.dropped_messages, f.total_injected());
        assert_eq!(
            f.fault_log().unwrap().dropped_messages(),
            s.dropped_messages
        );
        assert_eq!(f.buffered_flits(), 0);
        // A second identical run replays the identical fault log.
        let plan2 = FaultPlan::new(77).with_drop_rate(0.05);
        let mut g: Fabric<u32> =
            Fabric::with_fault_plan(Torus::new(2, 8), FabricConfig::default(), plan2);
        for _ in 0..5 {
            load(&mut g);
        }
        drain(&mut g);
        assert_eq!(f.fault_log(), g.fault_log());
    }

    #[test]
    fn corruption_flags_deliveries_via_checksum() {
        let plan = FaultPlan::new(3).with_corrupt_rate(0.2);
        let mut f: Fabric<u32> =
            Fabric::with_fault_plan(Torus::new(2, 8), FabricConfig::default(), plan);
        load(&mut f);
        assert!(f.run_until_idle(100_000).unwrap());
        let mut corrupt = 0;
        for node in f.topology().as_torus().node_ids().collect::<Vec<_>>() {
            while let Some(d) = f.poll_delivery(node) {
                if d.is_corrupt() {
                    corrupt += 1;
                }
            }
        }
        assert_eq!(corrupt, f.stats().corrupted_messages);
        assert!(corrupt > 0, "20% corruption rate over ~64 messages");
    }

    #[test]
    fn transient_router_stall_delays_but_delivers() {
        let plan = FaultPlan::new(1).stall_router_at(2, 9, 400);
        let mut f: Fabric<u32> =
            Fabric::with_fault_plan(Torus::new(2, 8), FabricConfig::default(), plan);
        // Route through the stalled node: 0 -> 18 crosses node 9's column.
        f.inject(Message::new(NodeId(8), NodeId(10), 8, 0u32));
        assert!(f.run_until_idle(10_000).unwrap());
        let d = f.poll_delivery(NodeId(10)).expect("delivered after stall");
        assert!(
            d.total_latency() > 400,
            "stall should dominate latency, got {}",
            d.total_latency()
        );
        assert_eq!(f.fault_log().unwrap().len(), 1);
    }

    #[test]
    fn killed_link_wedges_traffic_without_panicking() {
        let plan = FaultPlan::new(2).kill_link_at(1, 0, 0, Direction::Plus);
        let mut f: Fabric<u32> =
            Fabric::with_fault_plan(Torus::new(2, 8), FabricConfig::default(), plan);
        // E-cube routes 0 -> 2 through node 0's +X link: it can never
        // arrive, but stepping must neither panic nor error.
        f.inject(Message::new(NodeId(0), NodeId(2), 8, 0u32));
        assert!(
            !f.run_until_idle(5_000).unwrap(),
            "message cannot pass a dead link"
        );
        assert_eq!(f.in_flight(), 1);
        let before = f.activity();
        for _ in 0..100 {
            f.step().unwrap();
        }
        assert_eq!(f.activity(), before, "wedged fabric shows no activity");
        assert!(f.fault_plan().unwrap().has_permanent_faults());
    }
}
