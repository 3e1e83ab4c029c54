//! The full-system machine: processors + coherence controllers + fabric.
//!
//! A [`Machine`] wires one Alewife-like node (a block-multithreaded
//! processor and a memory/coherence controller) to each router of a torus
//! fabric and advances everything on a common clock: the fabric ticks
//! every **network cycle**; processors and controllers tick once every
//! `clock_ratio` network cycles (2 in the paper's architecture — network
//! switches are clocked twice as fast as processors).
//!
//! The machine also performs the paper's measurements: average
//! inter-transaction issue time `t_t`, transaction latency `T_t`,
//! inter-message injection time `t_m`, message latency `T_m`, per-hop
//! latency `T_h`, channel utilization, communication distance `d`, and
//! the per-transaction message statistics `g` and `B`.
//!
//! # One step over 1..K shards and any worker count
//!
//! The machine's nodes are partitioned into `K` contiguous shards
//! (DESIGN.md §4.11); [`Machine::new`] is the one-shard case of
//! [`Machine::with_shards`]. Each shard owns a fabric slice and the
//! processors, controllers, worklist, timers, window counters and span
//! log of its nodes. The driver owns everything global — the clock, the
//! measurement window start, the progress watchdog, the protocol-message
//! id counter, and the worker count. Every network cycle runs one step
//! body: each shard steps its fabric and, on a processor-clock boundary,
//! its nodes — inline with one worker, on scoped threads over contiguous
//! shard chunks with more ([`Machine::set_jobs`]) — and then the calling
//! thread exchanges boundary traffic, injects staged messages in id
//! order, runs migrations ([`Machine::set_migration`]) over every shard,
//! and feeds the watchdog. The readers merge the shards' records in shard
//! (ascending node) order by one rule: counters sum, per-node vectors
//! concatenate, and the fault log, flit trace and span log are
//! stable-sorted by cycle (then fault class or fabric phase), so ties
//! keep shard order. A sharded run is therefore bit-exact with the
//! one-shard machine at every worker count, traced or not, with or
//! without a migration policy; only the reference engine
//! ([`Machine::new_reference`]) stays one-shard.
//!
//! # The active-node engine
//!
//! Stepping is built around an **active-node worklist with cross-layer
//! next-event horizons** (DESIGN.md §4.9). Each processor boundary visits
//! only the nodes that can possibly act — a node sleeps through compute
//! runs, context switches, memory waits and controller occupancy, and is
//! enqueued when the fabric delivers to it or when its timer fires (the
//! end of the shorter of its two layers' pure-tick spans, which a retry
//! deadline caps) — and when every worklist is empty and every fabric is
//! drained, [`Machine::run_network_cycles`] fast-forwards the whole
//! machine to the earliest next event (`min` of the run target, the first
//! timer wake, and the watchdog trip cycle). Each layer contributes its
//! horizon: `Processor::next_wake`, `Controller::next_wake`, and
//! `Fabric::fast_forward`. The previous exhaustive every-node-every-cycle
//! loop is retained as a reference stepping mode
//! ([`Machine::new_reference`]) and the differential fuzzer asserts
//! bit-identical behavior between the two across random scenarios.
//!
//! A context blocks on one transaction at a time, so its slot is the one
//! record of that transaction and its issue cycle. A per-shard issue
//! queue, compacted against the slots, gives the watchdog the oldest
//! outstanding issue in O(1) amortized.

use crate::breakdown::{SpanEvent, SpanLog, TransactionBreakdown};
use crate::error::{SimError, StallCause, StallKind, StallReport};
use crate::mapping::Mapping;
use crate::parallel::{claim_extra_workers, try_for_each_chunk, WorkerClaim};
use crate::resilience::{MigrationRecord, MigrationView, WorkStealingPolicy};
use crate::workload::{workload_home_map, Workload};
use commloc_mem::{Controller, HomeMap, MemConfig, MemOp, ProtocolMsg, TxnId};
use commloc_net::{
    shard_ranges, ActiveSet, BoundaryItem, Fabric, FabricConfig, FabricStats, FaultEvent, FaultLog,
    FaultPlan, LatencyBreakdown, Message, MessageId, NodeId, Topology, TraceBuffer, TraceEvent,
};
use commloc_proc::{Processor, ReissueProgram, ThreadOp, ThreadProgram};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashSet, VecDeque};
use std::sync::Arc;

/// A node's armed wake when it has none: it sleeps until a delivery, or
/// it is awake.
const NO_WAKE: u64 = u64::MAX;

/// Full-system simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Torus dimensions (the paper's machine: 2).
    pub dims: u32,
    /// Torus radix (the paper's machine: 8, i.e. 64 nodes).
    pub radix: usize,
    /// Hardware contexts per processor (1, 2, or 4 in the paper).
    pub contexts: usize,
    /// Network cycles per processor cycle (2 = network twice as fast).
    pub clock_ratio: u32,
    /// Context-switch time in processor cycles (Sparcle: 11).
    pub switch_cycles: u32,
    /// Computation cycles preceding each memory access ("trivial
    /// computation", small grain).
    pub work: u32,
    /// Memory-system configuration.
    pub mem: MemConfig,
    /// Fabric buffering configuration.
    pub fabric: FabricConfig,
    /// Progress-watchdog window in network cycles: if no flit moves and
    /// no transaction retires for this long, stepping returns
    /// [`SimError::Stalled`] with a diagnostic dump. `0` disables the
    /// watchdog. A healthy machine makes progress every handful of
    /// cycles, so the default window is far above any legitimate quiet
    /// period yet small enough to fail fast under a wedged fabric.
    pub watchdog_cycles: u64,
    /// Fault plan installed into the fabric at construction (`None` = the
    /// perfect network of the paper's calibrated experiments).
    pub fault_plan: Option<FaultPlan>,
    /// Fabric topology. `None` selects the k-ary n-cube torus described
    /// by `dims`/`radix` (the paper's machine); an explicit topology
    /// overrides both.
    pub topology: Option<Topology>,
    /// The workload the processors run (the paper's neighbour
    /// application by default).
    pub workload: Workload,
}

impl SimConfig {
    /// The topology this configuration describes: the explicit
    /// [`SimConfig::topology`], or the torus built from `dims`/`radix`.
    pub fn resolved_topology(&self) -> Topology {
        self.topology
            .clone()
            .unwrap_or_else(|| Topology::cube(self.dims, self.radix))
    }
}

impl Default for SimConfig {
    /// The paper's Section 3 architecture.
    fn default() -> Self {
        Self {
            dims: 2,
            radix: 8,
            contexts: 1,
            clock_ratio: 2,
            switch_cycles: 11,
            work: 10,
            mem: MemConfig::default(),
            fabric: FabricConfig {
                link_vcs: 4,
                vc_buffer_capacity: 16,
                injection_buffer_capacity: 16,
                ..FabricConfig::default()
            },
            watchdog_cycles: 20_000,
            fault_plan: None,
            topology: None,
            workload: Workload::Neighbor,
        }
    }
}

/// One node: processor + controller + transaction bookkeeping.
#[derive(Debug, Clone)]
struct NodeSim {
    cpu: Processor,
    ctrl: Controller,
    /// The transaction each hardware context waits on and its issue
    /// cycle: the machine's one record of an outstanding transaction.
    ctx_txn: Vec<Option<(TxnId, u64)>>,
    next_txn: u64,
}

/// An issue-queue entry: a transaction, its local node and its context.
type Issue = (TxnId, u32, u32);

/// The issue cycle of `(txn, n, ctx)` while its context slot holds it.
fn held_issue(nodes: &[NodeSim], (txn, n, ctx): Issue) -> Option<u64> {
    match nodes[n as usize].ctx_txn[ctx as usize] {
        Some((held, issued)) if held == txn => Some(issued),
        _ => None,
    }
}

/// A migrating thread in flight to its destination node.
#[derive(Debug, Clone)]
struct StolenThread {
    to: usize,
    program: Box<dyn ThreadProgram>,
}

/// Measurement-window counters for transaction-level statistics.
#[derive(Debug, Clone, Copy, Default)]
struct Window {
    misses: u64,
    sum_txn_latency: u64,
    hits: u64,
}

impl Window {
    /// Component-wise sum, for merging shard windows.
    fn absorb(&mut self, other: &Window) {
        self.misses += other.misses;
        self.sum_txn_latency += other.sum_txn_latency;
        self.hits += other.hits;
    }
}

/// The quantities the paper's validation experiments measure, all in
/// network cycles (rates per network cycle per node).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurements {
    /// Network cycles in the measurement window.
    pub net_cycles: u64,
    /// Machine size `N`.
    pub nodes: usize,
    /// Measured average communication distance `d` (hops).
    pub distance: f64,
    /// Per-node message injection rate `r_m`.
    pub message_rate: f64,
    /// Average inter-message injection time `t_m = 1 / r_m`.
    pub message_interval: f64,
    /// Average message latency `T_m` (enqueue to delivery).
    pub message_latency: f64,
    /// Average per-hop head latency `T_h`.
    pub per_hop_latency: f64,
    /// Mean network channel utilization `rho`.
    pub channel_utilization: f64,
    /// Mean injection-channel utilization.
    pub injection_utilization: f64,
    /// Per-node communication-transaction (miss) rate `r_t`.
    pub transaction_rate: f64,
    /// Average inter-transaction issue time `t_t = 1 / r_t`.
    pub issue_interval: f64,
    /// Average transaction latency `T_t` (issue to completion).
    pub transaction_latency: f64,
    /// Messages per transaction `g`.
    pub messages_per_transaction: f64,
    /// Average message size `B` (flits).
    pub avg_message_size: f64,
    /// Residual-service message size `E[B^2]/E[B]` (flits).
    pub residual_message_size: f64,
    /// Measured computation run length per transaction (`T_r`), in
    /// network cycles. `0.0` is the sentinel for a window with no
    /// misses, in which a run length is undefined.
    pub run_length: f64,
    /// Cache hit fraction among all accesses (diagnostic).
    pub hit_fraction: f64,
}

/// The progress watchdog: the `(fabric activity, completions)` marker
/// at the last cycle that showed progress, and that cycle.
#[derive(Debug, Clone, Copy, Default)]
struct Watchdog {
    marker: (u64, u64),
    progress_cycle: u64,
}

impl Watchdog {
    /// Records the machine-wide progress `marker` at `cycle` and returns
    /// how long the machine has been stalled once that reaches `window`
    /// (`0` disables tripping). Two trip conditions:
    ///
    /// * **Global stall** — the fabric's activity counter stopped
    ///   advancing (no flit moved) and no transaction retired for a full
    ///   window: total deadlock.
    /// * **Stuck transaction** — the `oldest` outstanding transaction was
    ///   issued more than a full window ago. A healthy transaction
    ///   completes in tens-to-hundreds of network cycles even under
    ///   congestion, so an aged one is wedged (e.g. behind a killed link)
    ///   even while the rest of the machine retires normally.
    fn check(
        &mut self,
        cycle: u64,
        marker: (u64, u64),
        oldest: Option<u64>,
        window: u64,
    ) -> Option<u64> {
        if marker != self.marker {
            self.marker = marker;
            self.progress_cycle = cycle;
        }
        if window == 0 {
            return None;
        }
        let oldest_age = oldest.map_or(0, |issued| cycle - issued);
        let stalled_for = (cycle - self.progress_cycle).max(oldest_age);
        (stalled_for >= window).then_some(stalled_for)
    }

    /// The cycle at which [`Watchdog::check`] trips if nothing
    /// progresses: `max(cycle - progress_cycle, oldest age)` reaches the
    /// window at exactly `min(progress_cycle, oldest issue) + window`.
    fn trip_cycle(&self, oldest: Option<u64>, window: u64) -> u64 {
        oldest.map_or(self.progress_cycle, |issued| {
            issued.min(self.progress_cycle)
        }) + window
    }
}

/// One contiguous range of global nodes `[base, base + owned)`: its
/// fabric slice plus the processors, controllers, and bookkeeping of its
/// compute nodes. Per-node vectors are local-indexed; node-facing APIs
/// and fabric calls use global ids (`base + local`).
#[derive(Debug, Clone)]
struct Shard {
    fabric: Fabric<ProtocolMsg>,
    base: usize,
    nodes: Vec<NodeSim>,
    /// Protocol messages issued at the current processor boundary. The
    /// driver injects them afterwards with globally sequential ids in
    /// shard order — the ascending-node order the ids follow at every
    /// shard count (fault rolls hash over message ids).
    staged: Vec<Message<ProtocolMsg>>,
    window: Window,
    /// Transactions in issue order. An entry whose slot no longer holds
    /// it completed or was abandoned; issue cycles are monotone, so the
    /// first entry still held is the oldest outstanding transaction.
    issues: VecDeque<Issue>,
    /// The length at which [`Shard::queue_issue`] compacts: twice the
    /// shard's contexts, or twice what a compaction kept, if more.
    issue_bound: usize,
    /// Total transaction completions ever (never reset — watchdog input).
    completed: u64,
    completed_per_node: Vec<u64>,
    /// Transaction-level span ring, present iff tracing is enabled
    /// (`config.fabric.trace_capacity > 0`).
    spans: Option<SpanLog>,
    /// Nodes with possible work at the next processor boundary (the
    /// active-node worklist).
    active: ActiveSet,
    /// Processor-boundary index at which each node's processor and
    /// controller clocks were last advanced. A sleeping node accrues
    /// "debt" settled lazily on its next visit (or when a stepping call
    /// returns), since each boundary it sleeps through is a pure tick of
    /// both layers: `Processor::advance` and `Controller::advance`.
    last_stepped: Vec<u64>,
    /// The boundary each sleeping node is armed to wake at, or
    /// [`NO_WAKE`].
    wake_at: Vec<u64>,
    /// Min-heap of `(boundary, node)` timer wakes. An entry that no
    /// longer matches its node's `wake_at` is stale and skipped (a visit
    /// with nothing due would be a reference step anyway); the heap is
    /// rebuilt from `wake_at` once it holds twice the node count, so
    /// stale entries stay bounded.
    wakes: BinaryHeap<Reverse<(u64, u32)>>,
    /// Scratch: snapshot of the active set being visited.
    node_scratch: Vec<u32>,
    /// Scratch: drained fabric delivery events.
    event_scratch: Vec<u32>,
    /// Raw ids of abandoned transactions whose (already unreachable)
    /// completions must be swallowed rather than reported as
    /// [`SimError::UnknownCompletion`].
    abandoned: HashSet<u64>,
}

impl Shard {
    /// Builds the shard owning global nodes `[base, base + owned)`: a
    /// fabric slice, which restricts the fault plan to those nodes (so
    /// merged logs reconstruct the one-shard record exactly), and a node
    /// sim per owned compute node.
    fn new(
        config: &SimConfig,
        topology: &Topology,
        fault_plan: Option<&FaultPlan>,
        thread_at: &[usize],
        home: &Arc<HomeMap>,
        (base, owned): (usize, usize),
    ) -> Self {
        // Only fabric routers that host compute get a node sim; fat-tree
        // switches (ids >= compute) relay traffic but run no threads and
        // home no data. Compute nodes always occupy the id prefix, so an
        // owned range's compute portion stays contiguous at its front.
        let compute = topology.compute_nodes();
        let owned_compute = (base + owned)
            .min(compute)
            .saturating_sub(base.min(compute));
        let nodes: Vec<NodeSim> = (base..base + owned_compute)
            .map(|n| {
                let programs: Vec<Box<dyn ThreadProgram>> = (0..config.contexts)
                    .map(|instance| {
                        config
                            .workload
                            .program(topology, instance, thread_at[n], config.work)
                    })
                    .collect();
                NodeSim {
                    cpu: Processor::new(programs, config.switch_cycles),
                    ctrl: Controller::new(NodeId(n), Arc::clone(home), config.mem),
                    ctx_txn: vec![None; config.contexts],
                    next_txn: 0,
                }
            })
            .collect();
        let fabric = Fabric::new_shard(topology.clone(), config.fabric, fault_plan, (base, owned));
        // Every node starts with runnable processor work, so the active
        // set begins full.
        let mut active = ActiveSet::new(owned_compute);
        for n in 0..owned_compute {
            active.insert(n);
        }
        Self {
            fabric,
            base,
            nodes,
            staged: Vec::new(),
            window: Window::default(),
            issues: VecDeque::new(),
            issue_bound: 2 * owned_compute * config.contexts,
            completed: 0,
            completed_per_node: vec![0; owned_compute],
            spans: (config.fabric.trace_capacity > 0)
                .then(|| SpanLog::new(config.fabric.trace_capacity)),
            active,
            last_stepped: vec![0; owned_compute],
            wake_at: vec![NO_WAKE; owned_compute],
            wakes: BinaryHeap::new(),
            node_scratch: Vec::new(),
            event_scratch: Vec::new(),
            abandoned: HashSet::new(),
        }
    }

    /// Issue cycle of the oldest outstanding transaction: drops the
    /// entries no slot holds from the front of the issue queue and reads
    /// the first survivor's slot (O(1) amortized).
    fn oldest_outstanding_issue(&mut self) -> Option<u64> {
        while let Some(&front) = self.issues.front() {
            if let Some(issued) = held_issue(&self.nodes, front) {
                return Some(issued);
            }
            self.issues.pop_front();
        }
        None
    }

    /// Queues a transaction whose slot was just filled, first dropping
    /// every entry no slot holds once the queue reaches its bound.
    fn queue_issue(&mut self, issue: Issue) {
        if self.issues.len() >= self.issue_bound {
            let nodes = &self.nodes;
            self.issues.retain(|&e| held_issue(nodes, e).is_some());
            self.issue_bound = self.issue_bound.max(2 * self.issues.len());
        }
        self.issues.push_back(issue);
    }

    /// Nodes with outstanding controller transactions, by global id —
    /// the stall report's dump.
    fn outstanding_transactions(&self) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, node)| node.ctrl.outstanding_transactions() > 0)
            .map(|(n, node)| (NodeId(self.base + n), node.ctrl.outstanding_transactions()))
    }

    /// Injects the staged messages with sequential ids starting at `id`
    /// and returns the next unused id.
    fn flush_staged(&mut self, mut id: u64) -> u64 {
        for message in self.staged.drain(..) {
            self.fabric.inject_with_id(MessageId(id), message);
            id += 1;
        }
        id
    }

    /// Folds the fabric's pending delivery events into the worklist.
    fn fold_delivery_events(&mut self) {
        self.fabric.take_delivery_events(&mut self.event_scratch);
        for i in 0..self.event_scratch.len() {
            // Delivery events carry global node ids; the worklist is
            // local-indexed.
            self.active
                .insert(self.event_scratch[i] as usize - self.base);
        }
    }

    /// Settles node `n`'s debt up to processor boundary `boundary`:
    /// advances its processor and controller clocks exactly as the
    /// skipped boundaries would have (each is a pure tick of a sleeping
    /// node). Active engine only — the reference engine never maintains
    /// `last_stepped`.
    fn settle_debt(&mut self, n: usize, boundary: u64) {
        let debt = boundary - self.last_stepped[n];
        if debt > 0 {
            self.nodes[n].cpu.advance(debt);
            self.nodes[n].ctrl.advance(debt);
            self.last_stepped[n] = boundary;
        }
    }

    /// Settles every sleeping node up to processor boundary `boundary`,
    /// the last one stepped. Awake nodes owe nothing after a complete
    /// step, and one an interrupted step did not reach keeps its debt.
    fn settle_sleepers(&mut self, boundary: u64) {
        for n in 0..self.nodes.len() {
            if self.last_stepped[n] < boundary && !self.active.contains(n) {
                self.settle_debt(n, boundary);
            }
        }
    }

    /// The earliest armed timer wake, dropping stale entries off the top
    /// of the heap first.
    fn next_timer_wake(&mut self) -> Option<u64> {
        while let Some(&Reverse((wake, n))) = self.wakes.peek() {
            if self.wake_at[n as usize] == wake {
                return Some(wake);
            }
            self.wakes.pop();
        }
        None
    }

    /// Arms node `n`'s timer wake at `wake` ([`NO_WAKE`] disarms it).
    /// The entry it replaces turns stale in the heap.
    fn arm_wake(&mut self, n: usize, wake: u64) {
        if self.wake_at[n] == wake {
            return;
        }
        self.wake_at[n] = wake;
        if wake == NO_WAKE {
            return;
        }
        if self.wakes.len() >= 2 * self.nodes.len() {
            let armed = self.wake_at.iter().enumerate();
            self.wakes = armed
                .filter(|&(_, &w)| w != NO_WAKE)
                .map(|(m, &w)| Reverse((w, m as u32)))
                .collect();
        } else {
            self.wakes.push(Reverse((wake, n as u32)));
        }
    }

    /// Resets the shard's statistics windows (fabric, controllers,
    /// processors, and transaction counters).
    fn reset_stats(&mut self) {
        self.fabric.reset_stats();
        for node in &mut self.nodes {
            node.ctrl.reset_stats();
            node.cpu.reset_stats();
        }
        self.window = Window::default();
    }

    /// The retained exhaustive stepping loop: every node, every boundary,
    /// in ascending order. The active-node engine must be bit-identical
    /// to this (asserted by the golden-equivalence tests and the
    /// `--machine` differential fuzzer).
    fn step_nodes_reference(&mut self, config: &SimConfig, now: u64) -> Result<(), SimError> {
        for n in 0..self.nodes.len() {
            self.visit_node(config, n, now)?;
        }
        Ok(())
    }

    /// The active-node engine's boundary: folds fabric delivery events
    /// and due timer wakes into the worklist, visits only the listed
    /// nodes (ascending, like the exhaustive loop), settles each node's
    /// lazy debt before its real step, and updates residency — a node
    /// sleeps while its processor and its controller both have only pure
    /// ticks ahead, waking on a delivery or timer.
    fn step_nodes_active(&mut self, config: &SimConfig, now: u64) -> Result<(), SimError> {
        let boundary = now / u64::from(config.clock_ratio);
        self.fold_delivery_events();
        while self.next_timer_wake().is_some_and(|wake| wake <= boundary) {
            if let Some(Reverse((_, n))) = self.wakes.pop() {
                self.wake_at[n as usize] = NO_WAKE;
                self.active.insert(n as usize);
            }
        }
        let mut worklist = std::mem::take(&mut self.node_scratch);
        self.active.collect_into(&mut worklist);
        let mut result = Ok(());
        for &n in &worklist {
            let n = n as usize;
            if let Err(e) = self.visit_active_node(config, n, boundary, now) {
                result = Err(e);
                break;
            }
            self.update_residency(n, boundary);
        }
        self.node_scratch = worklist;
        result
    }

    /// Visits node `n` at processor boundary `boundary`, first applying
    /// in bulk the pure ticks of the boundaries it skipped.
    fn visit_active_node(
        &mut self,
        config: &SimConfig,
        n: usize,
        boundary: u64,
        now: u64,
    ) -> Result<(), SimError> {
        self.settle_debt(n, boundary - 1);
        self.last_stepped[n] = boundary;
        self.visit_node(config, n, now)
    }

    /// Puts node `n`, stepped up to `boundary`, to sleep when the next
    /// steps of both its layers are pure ticks, armed to wake at the
    /// first boundary after the shorter span (`None`, unbounded, on
    /// both: only a delivery wakes it); keeps it awake otherwise.
    fn update_residency(&mut self, n: usize, boundary: u64) {
        let node = &self.nodes[n];
        let span = match node.cpu.next_wake() {
            Some(0) => Some(0),
            // `None` is unbounded, so the shorter span is the least bound.
            cpu => cpu.into_iter().chain(node.ctrl.next_wake()).min(),
        };
        if span == Some(0) {
            self.active.insert(n);
            self.arm_wake(n, NO_WAKE);
            return;
        }
        self.active.remove(n);
        self.arm_wake(n, span.map_or(NO_WAKE, |k| boundary.saturating_add(k + 1)));
    }

    /// One node's processor boundary: the five phases of the stepping
    /// contract, shared verbatim by both engines.
    fn visit_node(&mut self, config: &SimConfig, n: usize, now: u64) -> Result<(), SimError> {
        // `n` is the local index; everything node-facing (deliveries,
        // span events, transaction ids, message sources) uses the global
        // node id so every shard count replays the same decisions.
        let g = self.base + n;
        // 1. Network deliveries reach the controller.
        while let Some(delivery) = self.fabric.poll_delivery(NodeId(g)) {
            if let Some(spans) = self.spans.as_mut() {
                spans.push(SpanEvent::MsgIn {
                    cycle: now,
                    node: NodeId(g),
                    kind: delivery.message.payload.kind_name(),
                });
            }
            self.nodes[n].ctrl.deliver(delivery.message.payload);
        }
        // 2. The controller works.
        self.nodes[n].ctrl.step();
        // 3. Completions unblock contexts.
        while let Some(done) = self.nodes[n].ctrl.poll_completion() {
            let node = &mut self.nodes[n];
            let waiting = node.ctx_txn.iter().enumerate().find_map(|(ctx, slot)| {
                slot.filter(|&(txn, _)| txn == done.txn)
                    .map(|(_, issued)| (ctx, issued))
            });
            let Some((ctx, issued)) = waiting else {
                // A completion raced a migration: the thread is gone
                // and the value will be re-fetched from its new node.
                if self.abandoned.remove(&done.txn.0) {
                    continue;
                }
                return Err(SimError::UnknownCompletion {
                    node: NodeId(g),
                    txn: done.txn.0,
                });
            };
            node.ctx_txn[ctx] = None;
            node.cpu.complete(ctx, done.value);
            self.completed += 1;
            self.completed_per_node[n] += 1;
            if done.miss {
                self.window.misses += 1;
                self.window.sum_txn_latency += now - issued;
            } else {
                self.window.hits += 1;
            }
            if let Some(spans) = self.spans.as_mut() {
                spans.push(SpanEvent::Complete {
                    cycle: now,
                    node: NodeId(g),
                    txn: done.txn.0,
                    miss: done.miss,
                    latency: now - issued,
                });
            }
        }
        // 4. The processor runs; issues go to the controller.
        let node = &mut self.nodes[n];
        if let Some(req) = node.cpu.step() {
            let txn = TxnId(((g as u64) << 32) | node.next_txn);
            node.next_txn += 1;
            node.ctx_txn[req.context] = Some((txn, now));
            self.queue_issue((txn, n as u32, req.context as u32));
            if let Some(spans) = self.spans.as_mut() {
                spans.push(SpanEvent::Issue {
                    cycle: now,
                    node: NodeId(g),
                    txn: txn.0,
                });
            }
            self.nodes[n].ctrl.request(txn, req.op);
        }
        // 5. Outgoing protocol messages are staged for the driver's
        // id-ordered injection.
        while let Some((dst, msg)) = self.nodes[n].ctrl.take_outgoing() {
            let flits = msg.flits(&config.mem);
            if let Some(spans) = self.spans.as_mut() {
                spans.push(SpanEvent::MsgOut {
                    cycle: now,
                    node: NodeId(g),
                    dst,
                    kind: msg.kind_name(),
                });
            }
            self.staged.push(Message::new(NodeId(g), dst, flits, msg));
        }
        Ok(())
    }
}

/// A complete simulated multiprocessor running the torus-neighbour
/// workload.
///
/// # Examples
///
/// ```no_run
/// use commloc_sim::{Machine, Mapping, SimConfig};
///
/// let config = SimConfig::default();
/// let mapping = Mapping::identity(64);
/// let mut machine = Machine::new(&config, &mapping);
/// machine.run_network_cycles(20_000).unwrap(); // warmup
/// machine.reset_measurements();
/// machine.run_network_cycles(50_000).unwrap();
/// let m = machine.measure();
/// assert!(m.distance > 0.9 && m.distance < 1.1);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    config: SimConfig,
    /// Contiguous node ranges in ascending node order (one for
    /// [`Machine::new`]).
    shards: Vec<Shard>,
    net_cycle: u64,
    window_start: u64,
    /// Next global protocol-message id, assigned in shard (= ascending
    /// node) order at every processor boundary.
    next_msg_id: u64,
    watchdog: Watchdog,
    /// Scratch: boundary items in transit between shards.
    boundary_scratch: Vec<BoundaryItem<ProtocolMsg>>,
    /// Worker threads used by [`Machine::run_network_cycles`] (1 =
    /// serial in the calling thread).
    jobs: usize,
    /// Network cycles skipped by machine-level fast-forward jumps
    /// (diagnostic: lets tests and benches assert the quiescent path
    /// actually fired, since its whole point is being unobservable).
    fast_forwarded: u64,
    /// Step with the retained exhaustive every-node loop instead of the
    /// active-node engine (differential testing only).
    reference: bool,
    /// Dynamic re-mapping policy, consulted at every processor boundary
    /// (`None` = the static machine).
    policy: Option<WorkStealingPolicy>,
    /// Migrations the policy may still perform.
    migrations_left: u64,
    /// Migrating threads keyed by the network cycle their steal latency
    /// elapses; each is adopted at the first processor boundary at or
    /// after that cycle.
    arrivals: BTreeMap<u64, Vec<StolenThread>>,
    /// Every migration performed, in decision order.
    migrations: Vec<MigrationRecord>,
    /// Nodes a thread has ever migrated away from (sticky; feeds the
    /// stall report and degradation accounting).
    migrated_from: Vec<bool>,
    /// Threads currently assigned to each node (in-flight migrations
    /// count at their destination) — the policy's load view.
    live_threads: Vec<usize>,
}

impl Machine {
    /// Builds the machine for the given mapping, placing one thread of
    /// each of `contexts` application instances on every processor and
    /// homing each thread's state line at its own processor.
    ///
    /// # Panics
    ///
    /// Panics if the mapping size does not match the torus.
    pub fn new(config: &SimConfig, mapping: &Mapping) -> Self {
        Self::with_shards(config, mapping, 1)
    }

    /// Builds the machine partitioned into `shards` contiguous node
    /// ranges (DESIGN.md §4.11), bit-exact with [`Machine::new`] at every
    /// shard count; [`Machine::set_jobs`] then steps the shards on worker
    /// threads.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is 0 or exceeds the node count, or if the
    /// mapping does not cover the torus.
    pub fn with_shards(config: &SimConfig, mapping: &Mapping, shards: usize) -> Self {
        Self::build(config, mapping, shards, false)
    }

    /// Builds a machine that steps with the retained exhaustive
    /// every-node-every-boundary loop instead of the active-node engine.
    /// Differential-testing surface only: the two engines are asserted
    /// bit-identical by the golden-equivalence tests and
    /// `commloc fuzz --machine`.
    pub fn new_reference(config: &SimConfig, mapping: &Mapping) -> Self {
        Self::build(config, mapping, 1, true)
    }

    fn build(config: &SimConfig, mapping: &Mapping, shards: usize, reference: bool) -> Self {
        let mut config = config.clone();
        let topology = config.resolved_topology();
        let fault_plan = config.fault_plan.take();
        let nodes = topology.nodes();
        let compute = topology.compute_nodes();
        assert!(
            shards >= 1 && shards <= nodes,
            "shard count {shards} not in 1..={nodes}"
        );
        assert_eq!(
            mapping.threads(),
            compute,
            "mapping must cover every compute node"
        );
        // Invert the mapping: which thread runs on each processor.
        let mut thread_at = vec![usize::MAX; compute];
        for thread in 0..compute {
            thread_at[mapping.processor(thread).0] = thread;
        }
        // One home map shared by every controller through an `Arc`.
        let home = Arc::new(workload_home_map(&topology, mapping, config.contexts));
        let shards = shard_ranges(nodes, shards)
            .into_iter()
            .map(|range| {
                Shard::new(
                    &config,
                    &topology,
                    fault_plan.as_ref(),
                    &thread_at,
                    &home,
                    range,
                )
            })
            .collect();
        let contexts = config.contexts;
        Self {
            config,
            shards,
            net_cycle: 0,
            window_start: 0,
            next_msg_id: 0,
            watchdog: Watchdog::default(),
            boundary_scratch: Vec::new(),
            jobs: 1,
            fast_forwarded: 0,
            reference,
            policy: None,
            migrations_left: 0,
            arrivals: BTreeMap::new(),
            migrations: Vec::new(),
            migrated_from: vec![false; compute],
            live_threads: vec![contexts; compute],
        }
    }

    /// Sets the worker-thread count for subsequent runs (clamped to
    /// `1..=shards`). The result is identical for every job count; jobs
    /// only change wall-clock time.
    pub fn set_jobs(&mut self, jobs: usize) {
        self.jobs = jobs.clamp(1, self.shards.len());
    }

    /// Installs a migration policy (DESIGN.md §4.10): wedged threads
    /// migrate to other nodes instead of tripping the watchdog, at most
    /// `policy.max_migrations` times over the machine's life. Works on
    /// every machine this type builds — any shard count, worker count
    /// and topology, and the reference engine — and a sharded machine
    /// migrates bit-exactly as the one-shard one does.
    pub fn set_migration(&mut self, policy: WorkStealingPolicy) {
        self.migrations_left = policy.max_migrations;
        self.policy = Some(WorkStealingPolicy {
            wedge_threshold: policy.wedge_threshold.max(1),
            ..policy
        });
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The machine's fabric topology.
    pub fn topology(&self) -> &Topology {
        self.shards[0].fabric.topology()
    }

    /// Elapsed network cycles.
    pub fn net_cycle(&self) -> u64 {
        self.net_cycle
    }

    /// The one step body. A shard's fabric step and node step touch only
    /// that shard, so they fan out over `workers` threads with no
    /// synchronization; everything that crosses shards runs afterwards on
    /// the calling thread. The boundary ingest still precedes the flush,
    /// since both take slab slots in the destination fabric.
    fn step_on(&mut self, workers: usize) -> Result<(), SimError> {
        self.net_cycle += 1;
        let now = self.net_cycle;
        let boundary = now.is_multiple_of(u64::from(self.config.clock_ratio));
        let (config, reference) = (&self.config, self.reference);
        try_for_each_chunk(&mut self.shards, workers, |shard| {
            shard.fabric.step()?;
            match (boundary, reference) {
                (false, _) => Ok(()),
                (true, false) => shard.step_nodes_active(config, now),
                (true, true) => shard.step_nodes_reference(config, now),
            }
        })?;
        if self.shards.len() > 1 {
            self.exchange_boundary();
        }
        if boundary {
            // Shard order is ascending-node order: the order the ids
            // follow at every shard count (fault rolls hash over them).
            for shard in &mut self.shards {
                self.next_msg_id = shard.flush_staged(self.next_msg_id);
            }
            if let Some(policy) = self.policy {
                self.process_migrations(policy);
            }
        }
        self.check_watchdog()
    }

    /// Delivers the flits and credits that crossed shard boundaries in
    /// the last fabric step to their owning shards, collected in shard
    /// order so the ingest order is deterministic. Every link has a
    /// one-cycle latency, so each item lands exactly where the one-shard
    /// fabric's next delivery phase would have placed it.
    fn exchange_boundary(&mut self) {
        let mut items = std::mem::take(&mut self.boundary_scratch);
        for shard in &mut self.shards {
            shard.fabric.take_boundary(&mut items);
        }
        for item in items.drain(..) {
            let (owner, _) = self.owner_mut(item.dst_node());
            owner.fabric.ingest_boundary(item);
        }
        self.boundary_scratch = items;
    }

    /// The shard owning global node `node`, and the node's local index
    /// there.
    fn owner_mut(&mut self, node: usize) -> (&mut Shard, usize) {
        let owner = self.shards.partition_point(|s| s.base <= node) - 1;
        let shard = &mut self.shards[owner];
        let local = node - shard.base;
        (shard, local)
    }

    /// Advances `cycles` network cycles, fanning each cycle's shard work
    /// out over the worker threads set by [`Machine::set_jobs`] when the
    /// process job budget grants them (bit-identical either way).
    ///
    /// With the active-node engine, fully quiescent stretches — no
    /// messages in flight, every node asleep, in every shard — are
    /// fast-forwarded to the earliest next-event horizon in O(active
    /// components) instead of being stepped cycle by cycle; the
    /// observable behavior (stats, fault log, watchdog trips,
    /// measurements) is bit-identical to per-cycle stepping.
    ///
    /// # Errors
    ///
    /// [`SimError::ClockOverflow`] when the clock cannot count to the
    /// end of the run, [`SimError::Fabric`] on a fabric inconsistency,
    /// [`SimError::UnknownCompletion`] if a controller completes a
    /// transaction no context was waiting on, and [`SimError::Stalled`]
    /// when the progress watchdog fires (see
    /// [`SimConfig::watchdog_cycles`]); the run stops at the cycle of the
    /// first error.
    pub fn run_network_cycles(&mut self, cycles: u64) -> Result<(), SimError> {
        let target = self
            .net_cycle
            .checked_add(cycles)
            .ok_or(SimError::ClockOverflow {
                cycle: self.net_cycle,
                cycles,
            })?;
        // Extra worker threads come out of the process-wide job budget
        // shared with sweep-level `parallel_map`, so a sweep of sharded
        // simulations never oversubscribes the configured job count.
        let claim = (self.jobs > 1).then(|| claim_extra_workers(self.jobs - 1));
        let workers = 1 + claim.as_ref().map_or(0, WorkerClaim::granted);
        let mut result = Ok(());
        while self.net_cycle < target && result.is_ok() {
            if !self.reference {
                self.try_fast_forward(target);
            }
            result = self.step_on(workers);
        }
        self.settle();
        result
    }

    /// Settles every sleeping node's clocks to the last processor
    /// boundary, so every reader between stepping calls — measurements,
    /// resets, snapshots — sees what exhaustive stepping would hold.
    fn settle(&mut self) {
        if self.reference {
            return;
        }
        let boundary = self.net_cycle / u64::from(self.config.clock_ratio);
        for shard in &mut self.shards {
            shard.settle_sleepers(boundary);
        }
    }

    /// When the whole machine is quiescent, jumps the clock to one cycle
    /// before the earliest next-event horizon; the ordinary step that
    /// follows then lands exactly on the horizon cycle and performs
    /// full boundary and watchdog processing there.
    ///
    /// Quiescence means: every fabric is drained (no queued, streaming,
    /// in-network, or boundary-crossing message — scheduled faults
    /// inside the gap are still fired at their exact cycles by
    /// [`Fabric::fast_forward`]) and every node is asleep. The skipped
    /// cycles are provably no-ops: a sleeping node's boundary is a pure
    /// tick its debt settles later, and the watchdog's progress marker
    /// cannot change while nothing moves, so intermediate checks only
    /// re-derive `stalled_for` values below the trip threshold.
    ///
    /// The horizon is `min` of the run target, the first timer wake in
    /// any shard (the end of a node's pure ticks, [`Processor::next_wake`]
    /// and [`Controller::next_wake`]), and the watchdog trip cycle.
    fn try_fast_forward(&mut self, target: u64) {
        if !self
            .shards
            .iter()
            .all(|s| s.fabric.is_quiescent() && s.active.is_empty())
        {
            return;
        }
        // Deliveries pushed but not yet polled mean node work at the next
        // boundary: fold the pending events into the worklists first. A
        // fold only adds nodes, so a machine with an awake node returned
        // above without paying for one.
        for shard in &mut self.shards {
            shard.fold_delivery_events();
            if !shard.active.is_empty() {
                return;
            }
        }
        let ratio = u64::from(self.config.clock_ratio);
        let mut horizon = target;
        if let Some(wake) = self
            .shards
            .iter_mut()
            .filter_map(Shard::next_timer_wake)
            .min()
        {
            horizon = horizon.min(wake.saturating_mul(ratio));
        }
        let (_, oldest) = self.progress();
        if self.config.watchdog_cycles > 0 {
            horizon = horizon.min(
                self.watchdog
                    .trip_cycle(oldest, self.config.watchdog_cycles),
            );
        }
        if let Some(policy) = self.policy {
            // Migration events happen at processor boundaries: the first
            // boundary at or after a steal arrival, and the boundary at
            // which the oldest outstanding transaction's age reaches the
            // wedge threshold. Land on (one cycle before) those exactly.
            let next_boundary = |cycle: u64| cycle.div_ceil(ratio).saturating_mul(ratio);
            if let Some((&due, _)) = self.arrivals.first_key_value() {
                horizon = horizon.min(next_boundary(due.max(self.net_cycle + 1)));
            }
            if let Some(issued) = oldest {
                let wedge = issued.saturating_add(policy.wedge_threshold);
                horizon = horizon.min(next_boundary(wedge));
            }
        }
        if horizon.saturating_sub(1) <= self.net_cycle {
            return;
        }
        let mut jumped = 0;
        for shard in &mut self.shards {
            jumped = shard.fabric.fast_forward_to(horizon - 1);
        }
        self.net_cycle += jumped;
        self.fast_forwarded += jumped;
    }

    /// Total network cycles skipped by quiescent fast-forward jumps —
    /// always 0 for the reference engine, and the same at every shard and
    /// worker count. Diagnostic only: the jumps are behaviorally
    /// invisible by construction.
    pub fn fast_forwarded_cycles(&self) -> u64 {
        self.fast_forwarded
    }

    /// Feeds the watchdog the machine-wide progress marker and returns
    /// the stall report if it trips.
    fn check_watchdog(&mut self) -> Result<(), SimError> {
        let (marker, oldest) = self.progress();
        match self
            .watchdog
            .check(self.net_cycle, marker, oldest, self.config.watchdog_cycles)
        {
            Some(stalled_for) => Err(self.stall_report(stalled_for)),
            None => Ok(()),
        }
    }

    /// The watchdog's inputs summed over shards in one pass: the
    /// `(fabric activity, completions)` progress marker and the issue
    /// cycle of the oldest outstanding transaction.
    fn progress(&mut self) -> ((u64, u64), Option<u64>) {
        let mut marker = (0, 0);
        let mut oldest: Option<u64> = None;
        for shard in &mut self.shards {
            marker.0 += shard.fabric.activity();
            marker.1 += shard.completed;
            if let Some(issued) = shard.oldest_outstanding_issue() {
                oldest = Some(oldest.map_or(issued, |o| o.min(issued)));
            }
        }
        (marker, oldest)
    }

    /// The watchdog's diagnostic dump at the current cycle, merged across
    /// shards in shard (= global node) order. The cause is a global stall
    /// when nothing progressed for the whole window, else the oldest
    /// outstanding transaction, ties going to the lowest transaction id —
    /// the same at every shard count and on every engine.
    fn stall_report(&self, stalled_for: u64) -> SimError {
        let cycle = self.net_cycle;
        let oldest = self
            .shards
            .iter()
            .flat_map(|s| &s.nodes)
            .flat_map(|node| node.ctx_txn.iter().flatten())
            .map(|&(txn, issued)| (issued, txn.0))
            .min();
        let cause = match oldest {
            Some((issued, txn))
                if cycle - self.watchdog.progress_cycle < self.config.watchdog_cycles =>
            {
                StallCause::AgedTransaction {
                    node: NodeId((txn >> 32) as usize),
                    txn,
                    issued,
                }
            }
            _ => StallCause::Global,
        };
        // A transient fault still in force (or scheduled) explains the
        // quiet period as backpressure; without one, this is a deadlock
        // the machine cannot leave by waiting.
        let backpressure = self.shards.iter().any(|s| {
            matches!(s.fabric.fault_plan(),
                     Some(plan) if plan.transient_stall_active(cycle))
        });
        SimError::Stalled(Box::new(StallReport {
            cycle,
            stalled_for,
            cause,
            kind: if backpressure {
                StallKind::Backpressure
            } else {
                StallKind::Deadlock
            },
            in_flight: self.shards.iter().map(|s| s.fabric.in_flight()).sum(),
            buffered_flits: self.shards.iter().map(|s| s.fabric.buffered_flits()).sum(),
            router_occupancy: self
                .shards
                .iter()
                .flat_map(|s| s.fabric.router_occupancy())
                .collect(),
            outstanding: self
                .shards
                .iter()
                .flat_map(Shard::outstanding_transactions)
                .collect(),
            fault_log_tail: self
                .fault_log()
                .map(|log| log.tail(16).to_vec())
                .unwrap_or_default(),
            migrated_from: self.migrated_from_nodes(),
        }))
    }

    /// Resets every statistics window (fabric, controllers, processors,
    /// and transaction counters) — call after warmup.
    pub fn reset_measurements(&mut self) {
        // The stepping calls return with every node settled, so the
        // per-node counters the new window starts from match exhaustive
        // stepping exactly.
        for shard in &mut self.shards {
            shard.reset_stats();
        }
        self.window_start = self.net_cycle;
    }

    /// The migration layer's boundary work (runs right after the node
    /// boundary, only when a policy is installed): adopt arriving stolen
    /// threads, then offer wedged contexts to the policy. Parking
    /// abandons the context's outstanding memory operation at its
    /// controller (any in-flight grant is later dropped as stale) and
    /// re-issues it from the destination via a
    /// [`ReissueProgram`] wrapper, so no work is lost or duplicated.
    ///
    /// It runs on the calling thread after every shard has stepped, so it
    /// reaches each node through its owning shard and needs no hand-off:
    /// victims are scanned in shard order, which is ascending
    /// `(node, context)` order at every shard count.
    fn process_migrations(&mut self, policy: WorkStealingPolicy) {
        let now = self.net_cycle;
        let boundary = now / u64::from(self.config.clock_ratio);
        let reference = self.reference;
        // 1. Adopt threads whose steal latency has elapsed. The migration
        // layer mutates processors and controllers outside the node
        // visits, so each node's clocks first reach the current boundary
        // exactly as exhaustive stepping would have them, and the node
        // then wakes or sleeps as a visit would leave it.
        while let Some((&due, _)) = self.arrivals.first_key_value() {
            if due > now {
                break;
            }
            let (_, batch) = self.arrivals.pop_first().expect("peeked entry");
            for stolen in batch {
                let (shard, n) = self.owner_mut(stolen.to);
                if !reference {
                    shard.settle_debt(n, boundary);
                }
                let node = &mut shard.nodes[n];
                node.cpu.adopt(stolen.program);
                node.ctx_txn.push(None);
                if !reference {
                    shard.update_residency(n, boundary);
                }
            }
        }
        // 2. Wedge scan, gated on a cheap oldest-transaction age check
        // so the per-context sweep only runs when something is actually
        // wedged.
        let threshold = policy.wedge_threshold;
        match self.progress().1 {
            Some(issued) if now - issued >= threshold => {}
            _ => return,
        }
        let mut victims: Vec<(usize, usize, TxnId)> = Vec::new();
        for shard in &self.shards {
            for (n, node) in shard.nodes.iter().enumerate() {
                for (ctx, &slot) in node.ctx_txn.iter().enumerate() {
                    if let Some((txn, _)) = slot.filter(|&(_, issued)| now - issued >= threshold) {
                        victims.push((shard.base + n, ctx, txn));
                    }
                }
            }
        }
        if victims.is_empty() {
            return;
        }
        let compute = self.live_threads.len();
        let mut wedged = vec![false; compute];
        for &(n, ..) in &victims {
            wedged[n] = true;
        }
        let mut killed = vec![false; compute];
        for log in self.shards.iter().filter_map(|s| s.fabric.fault_log()) {
            for event in log.events() {
                // A killed switch link (ids past the compute prefix) has
                // no node to exclude.
                if let FaultEvent::LinkKilled { node, .. } = event {
                    if let Some(k) = killed.get_mut(node.0) {
                        *k = true;
                    }
                }
            }
        }
        let topology = self.topology().clone();
        for (victim, ctx, txn) in victims {
            if self.migrations_left == 0 {
                break;
            }
            let view = MigrationView {
                victim,
                topology: &topology,
                wedged: &wedged,
                load: &self.live_threads,
                killed: &killed,
            };
            let Some(dst) = policy.choose_destination(&view) else {
                continue;
            };
            // The budget pays for a placement even when the controller
            // below refuses to give the transaction up.
            self.migrations_left -= 1;
            let (shard, n) = self.owner_mut(victim);
            if !reference {
                shard.settle_debt(n, boundary);
            }
            let Some(op) = shard.nodes[n].ctrl.abandon(txn) else {
                continue;
            };
            let program = shard.nodes[n].cpu.park(ctx);
            shard.nodes[n].ctx_txn[ctx] = None;
            shard.abandoned.insert(txn.0);
            if !reference {
                shard.update_residency(n, boundary);
            }
            self.migrated_from[victim] = true;
            self.live_threads[victim] -= 1;
            self.live_threads[dst.0] += 1;
            let reissue = match op {
                MemOp::Read(addr) => ThreadOp::Read(addr),
                MemOp::Write(addr, value) => ThreadOp::Write(addr, value),
            };
            let due = now.saturating_add(policy.steal_latency);
            self.arrivals.entry(due).or_default().push(StolenThread {
                to: dst.0,
                program: Box::new(ReissueProgram::new(reissue, program)),
            });
            self.migrations.push(MigrationRecord {
                cycle: now,
                from: NodeId(victim),
                to: dst,
                context: ctx,
                txn: txn.0,
            });
        }
    }

    /// Every migration performed so far, in decision order.
    pub fn migrations(&self) -> &[MigrationRecord] {
        &self.migrations
    }

    /// Nodes a thread has ever migrated away from, ascending. Sticky by
    /// design: degradation accounting counts a node as a casualty even
    /// if another thread later lands on it.
    pub fn migrated_from_nodes(&self) -> Vec<NodeId> {
        self.migrated_from
            .iter()
            .enumerate()
            .filter(|&(_, &migrated)| migrated)
            .map(|(n, _)| NodeId(n))
            .collect()
    }

    /// Produces the measurement record for the current window.
    pub fn measure(&self) -> Measurements {
        let mut window = Window::default();
        let mut total_busy = 0u64;
        let mut nodes = 0;
        for shard in &self.shards {
            window.absorb(&shard.window);
            total_busy += shard
                .nodes
                .iter()
                .map(|n| n.cpu.stats().busy_cycles)
                .sum::<u64>();
            nodes += shard.nodes.len();
        }
        let fs = FabricStats::merged(self.shards.iter().map(|s| s.fabric.stats()));
        build_measurements(
            self.net_cycle - self.window_start,
            nodes,
            &fs,
            &window,
            total_busy,
            self.config.clock_ratio,
        )
    }

    /// Total completed workload iterations across all threads
    /// (diagnostic).
    pub fn total_iterations(&self) -> u64 {
        // Iterations are not directly exposed through the trait object;
        // approximate from per-node write transactions: one write per
        // iteration per thread.
        self.shards
            .iter()
            .flat_map(|s| &s.nodes)
            .map(|n| {
                let s = n.ctrl.stats();
                s.write_misses + s.write_hits
            })
            .sum()
    }

    /// The fabric's per-message latency component sums and histograms for
    /// the current measurement window, merged across shards.
    pub fn latency_breakdown(&self) -> LatencyBreakdown {
        let mut merged = self.shards[0].fabric.breakdown().clone();
        for shard in &self.shards[1..] {
            merged.absorb(shard.fabric.breakdown());
        }
        merged
    }

    /// Captures the machine's complete state. Restoring the snapshot
    /// yields a machine that continues bit-identically to this one —
    /// every layer (programs, caches, directories, in-flight worms,
    /// fault-plan state, migration policy and budget) is deep-copied, so
    /// a settled post-warmup machine can be snapshotted once and re-run
    /// over many measurement windows (the `commloc serve` warm-start
    /// path).
    pub fn snapshot(&self) -> MachineSnapshot {
        MachineSnapshot {
            machine: self.clone(),
        }
    }

    /// The fabric's flit-level trace ring (`None` when
    /// [`FabricConfig::trace_capacity`](commloc_net::FabricConfig) is 0):
    /// the shards' rings merged by [`TraceBuffer::merge`] on
    /// [`TraceEvent::order_key`] into the ring one shard would hold.
    pub fn trace(&self) -> Option<TraceBuffer> {
        TraceBuffer::merge(
            self.shards.iter().filter_map(|s| s.fabric.trace()),
            TraceEvent::order_key,
        )
    }

    /// The transaction-level span log (`None` when tracing is off): the
    /// shards' logs merged on the cycle alone, since nodes push spans
    /// only while they step, in ascending node order.
    pub fn spans(&self) -> Option<SpanLog> {
        TraceBuffer::merge(
            self.shards.iter().filter_map(|s| s.spans.as_ref()),
            SpanEvent::cycle,
        )
    }

    /// Maps the current window's measurements onto the paper's
    /// `T_t = c * T_m + T_f` decomposition, with the measured `T_m`
    /// split into the fabric's six per-message components.
    ///
    /// `critical_path_messages` is the paper's `c` (2 for the
    /// request–reply protocol of the modeled architecture; the model
    /// crate's machine configuration carries the calibrated value).
    pub fn breakdown(&self, critical_path_messages: f64) -> TransactionBreakdown {
        build_breakdown(
            &self.measure(),
            &self.latency_breakdown(),
            critical_path_messages,
        )
    }

    /// The fault log of the installed fault plan, if any, merged across
    /// shards into the one-shard event order.
    pub fn fault_log(&self) -> Option<FaultLog> {
        FaultLog::merge(self.shards.iter().filter_map(|s| s.fabric.fault_log()))
    }

    /// Total transaction completions since construction (never reset).
    pub fn completions(&self) -> u64 {
        self.shards.iter().map(|s| s.completed).sum()
    }

    /// Per-node transaction completions since construction (never reset)
    /// in global node order — the disturbance experiments difference
    /// these against a baseline run to localize a fault's impact.
    pub fn completions_per_node(&self) -> Vec<u64> {
        self.shards
            .iter()
            .flat_map(|s| s.completed_per_node.iter().copied())
            .collect()
    }
}

/// Builds the paper's measurement record from the machine's summed
/// counters.
fn build_measurements(
    net_cycles: u64,
    nodes: usize,
    fs: &FabricStats,
    window: &Window,
    total_busy: u64,
    clock_ratio: u32,
) -> Measurements {
    let misses = window.misses.max(1);
    let messages = fs.injected_messages.max(1);
    let hits = window.hits;
    let node_cycles = (net_cycles * nodes as u64).max(1);
    Measurements {
        net_cycles,
        nodes,
        distance: fs.avg_distance(),
        message_rate: fs.injected_messages as f64 / node_cycles as f64,
        message_interval: node_cycles as f64 / messages as f64,
        message_latency: fs.avg_message_latency(),
        per_hop_latency: fs.avg_per_hop_latency(),
        channel_utilization: fs.channel_utilization(),
        injection_utilization: fs.injection_utilization(),
        transaction_rate: window.misses as f64 / node_cycles as f64,
        issue_interval: node_cycles as f64 / misses as f64,
        transaction_latency: window.sum_txn_latency as f64 / misses as f64,
        messages_per_transaction: fs.injected_messages as f64 / misses as f64,
        avg_message_size: fs.avg_message_size(),
        residual_message_size: fs.residual_message_size(),
        // A miss-free window has no defined run length; report the
        // documented `0.0` sentinel instead of dividing the busy
        // cycles by the clamped miss count (which fabricated an
        // enormous bogus value).
        run_length: if window.misses == 0 {
            0.0
        } else {
            total_busy as f64 * f64::from(clock_ratio) / window.misses as f64
        },
        hit_fraction: hits as f64 / (hits + window.misses).max(1) as f64,
    }
}

/// Maps measurements onto the paper's `T_t = c * T_m + T_f`
/// decomposition.
fn build_breakdown(
    m: &Measurements,
    lb: &LatencyBreakdown,
    critical_path_messages: f64,
) -> TransactionBreakdown {
    let n = lb.deliveries.max(1) as f64;
    let message_path = critical_path_messages * m.message_latency;
    TransactionBreakdown {
        transaction_latency: m.transaction_latency,
        message_latency: m.message_latency,
        critical_path_messages,
        message_path,
        fixed_overhead: m.transaction_latency - message_path,
        queue: lb.queue as f64 / n,
        injection: lb.injection as f64 / n,
        free_hop: lb.free_hop as f64 / n,
        contended_hop: lb.contended_hop as f64 / n,
        drain: lb.drain as f64 / n,
        protocol: lb.ejection as f64 / n,
        deliveries: lb.deliveries,
    }
}

/// A frozen copy of a [`Machine`]'s complete state, taken by
/// [`Machine::snapshot`]. Restoring yields an independent machine that
/// runs bit-identically to the original from the capture point; one
/// snapshot can be restored any number of times.
#[derive(Debug, Clone)]
pub struct MachineSnapshot {
    machine: Machine,
}

impl MachineSnapshot {
    /// Materializes an independent machine at the captured state.
    pub fn restore(&self) -> Machine {
        self.machine.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::Mapping;
    use crate::scenario::Scenario;
    use commloc_net::Torus;

    fn run(config: &SimConfig, mapping: &Mapping, warmup: u64, window: u64) -> Measurements {
        let scenario = Scenario::new(config.clone(), warmup, window);
        scenario.run(mapping).expect("experiment ran").measure()
    }

    fn quick(config: &SimConfig, mapping: &Mapping) -> Measurements {
        run(config, mapping, 10_000, 30_000)
    }

    /// Asserts every shard's issue queue stays within its bound, and the
    /// bound within twice the shard's contexts, and that the oldest
    /// outstanding issue equals the minimum over the context slots, so an
    /// issue the queue lost or misordered fails on the cycle it happens.
    fn audit_oldest_issue(machine: &mut Machine) {
        let cycle = machine.net_cycle;
        for shard in &mut machine.shards {
            let slots = shard.nodes.iter().flat_map(|node| node.ctx_txn.iter());
            let contexts = slots.clone().count();
            let (len, bound) = (shard.issues.len(), shard.issue_bound);
            assert!(
                len <= bound && bound <= 2 * contexts,
                "{len} queued, bound {bound}, {contexts} contexts by cycle {cycle}"
            );
            let oldest = slots.flatten().map(|&(_, issued)| issued).min();
            assert_eq!(
                shard.oldest_outstanding_issue(),
                oldest,
                "oldest issue drifted by cycle {cycle}"
            );
        }
    }

    /// Asserts that every shard's wake heap holds an entry for each armed
    /// node and stays within twice the node count — no sleeper's wake is
    /// lost, and stale entries stay bounded — and that no awake node could
    /// sleep: each node on a worklist has a zero span in one layer, or a
    /// delivery waiting for it.
    fn audit_wakes(machine: &Machine) {
        for shard in &machine.shards {
            let mut fabric = shard.fabric.clone();
            for (n, node) in shard.nodes.iter().enumerate() {
                let g = shard.base + n;
                assert!(
                    !shard.active.contains(n)
                        || node.cpu.next_wake() == Some(0)
                        || node.ctrl.next_wake() == Some(0)
                        || fabric.poll_delivery(NodeId(g)).is_some(),
                    "node {g} is awake with only pure ticks ahead by cycle {}",
                    machine.net_cycle
                );
            }
            assert!(
                shard.wakes.len() <= 2 * shard.nodes.len(),
                "wake heap of {} entries for {} nodes by cycle {}",
                shard.wakes.len(),
                shard.nodes.len(),
                machine.net_cycle
            );
            for (n, &wake) in shard.wake_at.iter().enumerate() {
                let entry = Reverse((wake, n as u32));
                assert!(
                    wake == NO_WAKE || shard.wakes.iter().any(|&e| e == entry),
                    "node {n}'s wake at boundary {wake} is missing from the heap by cycle {}",
                    machine.net_cycle
                );
            }
        }
    }

    #[test]
    fn identity_mapping_measures_one_hop() {
        let m = quick(&SimConfig::default(), &Mapping::identity(64));
        assert!(
            (m.distance - 1.0).abs() < 0.05,
            "identity distance {}",
            m.distance
        );
    }

    #[test]
    fn measured_distance_tracks_mapping() {
        let torus = Torus::new(2, 8);
        for seed in [1, 2] {
            let mapping = Mapping::random(64, seed);
            let expected = mapping.average_neighbor_distance(&torus);
            let m = quick(&SimConfig::default(), &mapping);
            assert!(
                (m.distance - expected).abs() / expected < 0.08,
                "seed {seed}: measured {} expected {expected}",
                m.distance
            );
        }
    }

    #[test]
    fn g_and_b_match_section_3_2() {
        let m = quick(&SimConfig::default(), &Mapping::identity(64));
        // Paper: g = 3.2 messages per transaction, B = 12 flits.
        assert!(
            (m.messages_per_transaction - 3.2).abs() < 0.4,
            "g = {}",
            m.messages_per_transaction
        );
        assert!(
            (m.avg_message_size - 12.0).abs() < 1.5,
            "B = {}",
            m.avg_message_size
        );
    }

    #[test]
    fn rates_and_intervals_are_reciprocal() {
        let m = quick(&SimConfig::default(), &Mapping::identity(64));
        assert!((m.message_rate * m.message_interval - 1.0).abs() < 1e-9);
        assert!((m.transaction_rate * m.issue_interval - 1.0).abs() < 1e-9);
    }

    #[test]
    fn farther_mappings_are_slower() {
        let cfg = SimConfig::default();
        let near = quick(&cfg, &Mapping::identity(64));
        let far = quick(&cfg, &Mapping::random(64, 9));
        assert!(far.distance > near.distance + 2.0);
        assert!(
            far.transaction_rate < near.transaction_rate,
            "far {} !< near {}",
            far.transaction_rate,
            near.transaction_rate
        );
        assert!(far.message_latency > near.message_latency);
    }

    #[test]
    fn more_contexts_issue_faster() {
        let near = Mapping::random(64, 5);
        let base = SimConfig::default();
        let p1 = quick(&base, &near);
        let p2 = quick(
            &SimConfig {
                contexts: 2,
                ..base
            },
            &near,
        );
        assert!(
            p2.transaction_rate > p1.transaction_rate * 1.25,
            "p2 rate {} vs p1 {}",
            p2.transaction_rate,
            p1.transaction_rate
        );
    }

    #[test]
    fn slower_network_hurts_performance() {
        // Table 1's mechanism, observed in the full simulator: halving
        // the network clock (relative to the processors) raises message
        // latencies in processor terms and lowers the transaction rate
        // per processor cycle.
        let mapping = Mapping::random(64, 3);
        let fast = run(&SimConfig::default(), &mapping, 8_000, 24_000);
        let slow_cfg = SimConfig {
            clock_ratio: 1, // network at processor speed (2x slower than base)
            ..SimConfig::default()
        };
        let slow = run(&slow_cfg, &mapping, 8_000, 24_000);
        // Rates are per network cycle; convert to per processor cycle.
        let fast_per_proc = fast.transaction_rate * 2.0;
        let slow_per_proc = slow.transaction_rate * 1.0;
        assert!(
            slow_per_proc < fast_per_proc,
            "slow {slow_per_proc} !< fast {fast_per_proc}"
        );
    }

    #[test]
    fn workload_makes_steady_progress() {
        let mapping = Mapping::identity(64);
        let mut machine = Machine::new(&SimConfig::default(), &mapping);
        machine.run_network_cycles(40_000).unwrap();
        let writes = machine.total_iterations();
        // 64 threads iterating continually: at least a handful each.
        assert!(writes > 64 * 5, "only {writes} iterations in 40k cycles");
        assert!(machine.completions() > 0);
    }

    #[test]
    fn killed_link_trips_the_watchdog_with_diagnostics() {
        use commloc_net::{Direction, FaultPlan};
        let mapping = Mapping::identity(64);
        let config = SimConfig {
            watchdog_cycles: 3_000,
            fault_plan: Some(FaultPlan::new(7).kill_link_at(2_000, 0, 0, Direction::Plus)),
            ..SimConfig::default()
        };
        let mut machine = Machine::new(&config, &mapping);
        let err = machine
            .run_network_cycles(400_000)
            .expect_err("a killed link must wedge the workload");
        let SimError::Stalled(report) = err else {
            panic!("expected a stall, got {err}");
        };
        assert_eq!(report.kind, StallKind::Deadlock);
        assert!(report.stalled_for >= 3_000);
        assert!(!report.outstanding.is_empty(), "no stuck transactions?");
        // Other nodes keep completing up to the trip, so what tripped is
        // a transaction stranded behind the dead link, not a global stall.
        assert!(
            matches!(report.cause, StallCause::AgedTransaction { issued, .. } if issued >= 2_000),
            "{report}"
        );
        assert!(
            report
                .fault_log_tail
                .iter()
                .any(|e| matches!(e, commloc_net::FaultEvent::LinkKilled { .. })),
            "fault log tail should show the kill: {:?}",
            report.fault_log_tail
        );
    }

    #[test]
    fn transient_stall_classifies_as_backpressure() {
        use commloc_net::FaultPlan;
        let mapping = Mapping::identity(64);
        // Stall the router far longer than the watchdog window: the
        // watchdog fires mid-stall and must blame backpressure.
        let config = SimConfig {
            watchdog_cycles: 2_000,
            fault_plan: Some(FaultPlan::new(3).stall_router_at(1_000, 27, 50_000)),
            ..SimConfig::default()
        };
        let mut machine = Machine::new(&config, &mapping);
        match machine.run_network_cycles(60_000) {
            Err(SimError::Stalled(report)) => {
                assert_eq!(report.kind, StallKind::Backpressure);
            }
            Err(other) => panic!("unexpected error: {other}"),
            // A single stalled router need not halt *global* progress —
            // but with the whole machine's traffic pattern it should.
            Ok(()) => panic!("expected the stalled router to halt progress"),
        }
    }

    #[test]
    fn miss_free_window_reports_zero_run_length() {
        // A machine that has not stepped has an empty window: no misses,
        // so the run length must be the documented 0.0 sentinel, not a
        // fabricated busy/1 ratio.
        let machine = Machine::new(&SimConfig::default(), &Mapping::identity(64));
        let m = machine.measure();
        assert_eq!(m.run_length, 0.0);
        assert!(m.run_length.is_finite());
    }

    #[test]
    fn breakdown_components_sum_to_measured_latency() {
        let mapping = Mapping::identity(64);
        let mut machine = Machine::new(&SimConfig::default(), &mapping);
        machine.run_network_cycles(5_000).unwrap();
        machine.reset_measurements();
        machine.run_network_cycles(15_000).unwrap();
        let m = machine.measure();
        let b = machine.breakdown(2.0);
        assert!(b.deliveries > 0);
        assert!(
            (b.components_total() - m.message_latency).abs() < 1e-9,
            "components {} != T_m {}",
            b.components_total(),
            m.message_latency
        );
        assert!((b.message_path + b.fixed_overhead - b.transaction_latency).abs() < 1e-9);
        assert!(b.queue >= 0.0 && b.contended_hop >= 0.0);
        // Tracing is off by default: zero overhead, no rings.
        assert!(machine.trace().is_none());
        assert!(machine.spans().is_none());
    }

    #[test]
    fn tracing_records_bounded_spans_and_flit_events() {
        use crate::breakdown::SpanEvent;
        let config = SimConfig {
            fabric: FabricConfig {
                trace_capacity: 512,
                ..SimConfig::default().fabric
            },
            ..SimConfig::default()
        };
        let mut machine = Machine::new(&config, &Mapping::identity(64));
        machine.run_network_cycles(5_000).unwrap();
        let spans = machine.spans().expect("tracing enabled");
        assert!(spans.recorded() > 0);
        assert!(spans.len() <= 512);
        assert!(spans
            .iter()
            .any(|e| matches!(e, SpanEvent::Complete { .. })));
        assert!(spans.iter().any(|e| matches!(e, SpanEvent::MsgOut { .. })));
        let trace = machine.trace().expect("tracing enabled");
        assert!(trace.recorded() > 0);
        assert!(trace.len() <= 512);
    }

    #[test]
    fn same_seed_same_fault_log_and_measurements() {
        use commloc_net::{FaultConfig, FaultPlan};
        let mapping = Mapping::identity(64);
        let run = || {
            let config = SimConfig {
                fault_plan: Some(FaultPlan::new(11).with_config(FaultConfig {
                    drop_rate: 0.0005,
                    corrupt_rate: 0.0005,
                    ..FaultConfig::default()
                })),
                mem: MemConfig {
                    timeout_cycles: 2_000,
                    ..MemConfig::default()
                },
                ..SimConfig::default()
            };
            let mut machine = Machine::new(&config, &mapping);
            machine
                .run_network_cycles(30_000)
                .expect("run survives light faults");
            (machine.fault_log().unwrap(), machine.measure())
        };
        let (log_a, m_a) = run();
        let (log_b, m_b) = run();
        assert_eq!(log_a, log_b, "fault logs diverged for identical seeds");
        assert_eq!(m_a, m_b, "measurements diverged for identical seeds");
        assert!(!log_a.is_empty(), "no faults injected; test is vacuous");
    }

    /// A small machine for engine-equivalence tests: the reference engine
    /// is O(nodes) per boundary, so 16 nodes keep the lockstep runs fast.
    fn small_config() -> SimConfig {
        SimConfig {
            dims: 2,
            radix: 4,
            ..SimConfig::default()
        }
    }

    #[test]
    fn watchdog_trips_identically_across_engines_on_killed_link() {
        use commloc_net::{Direction, FaultPlan};
        // A killed link wedges transactions routed over it; the fabric
        // never drains, so the active engine cannot fast-forward — the
        // watchdog must still trip at the exact same cycle with the exact
        // same diagnostics as exhaustive stepping.
        let config = SimConfig {
            watchdog_cycles: 3_000,
            fault_plan: Some(FaultPlan::new(7).kill_link_at(1_000, 0, 0, Direction::Plus)),
            ..small_config()
        };
        let mapping = Mapping::identity(16);
        let mut active = Machine::new(&config, &mapping);
        let mut reference = Machine::new_reference(&config, &mapping);
        let ea = active
            .run_network_cycles(200_000)
            .expect_err("killed link must wedge the workload");
        let eb = reference
            .run_network_cycles(200_000)
            .expect_err("killed link must wedge the workload");
        assert_eq!(ea, eb, "stall reports must be bit-identical");
        assert_eq!(active.net_cycle(), reference.net_cycle());
        let SimError::Stalled(report) = ea else {
            panic!("expected a stall, got {ea}");
        };
        assert_eq!(report.kind, StallKind::Deadlock);
    }

    #[test]
    fn watchdog_backpressure_classification_matches_across_engines() {
        use commloc_net::FaultPlan;
        let config = SimConfig {
            watchdog_cycles: 2_000,
            fault_plan: Some(FaultPlan::new(3).stall_router_at(1_000, 5, 50_000)),
            ..small_config()
        };
        let mapping = Mapping::identity(16);
        let mut active = Machine::new(&config, &mapping);
        let mut reference = Machine::new_reference(&config, &mapping);
        let ra = active.run_network_cycles(60_000);
        let rb = reference.run_network_cycles(60_000);
        assert_eq!(ra, rb, "transient-stall outcomes must match");
        assert_eq!(active.net_cycle(), reference.net_cycle());
        if let Err(SimError::Stalled(report)) = ra {
            assert_eq!(report.kind, StallKind::Backpressure);
        }
    }

    #[test]
    fn fast_forward_through_retry_gaps_is_invisible_and_does_not_false_trip() {
        use commloc_net::{FaultConfig, FaultPlan};
        // Heavy drops + a long retry timeout carve genuine idle gaps: all
        // processors blocked, the fabric drained, the next event a retry
        // deadline. The active engine must jump those gaps (asserted via
        // the diagnostic counter) while the watchdog — window larger than
        // any gap — stays quiet, and every observable stays bit-identical
        // to exhaustive stepping.
        let config = SimConfig {
            mem: MemConfig {
                timeout_cycles: 3_000,
                max_retries: 30,
                ..MemConfig::default()
            },
            watchdog_cycles: 40_000,
            fault_plan: Some(FaultPlan::new(23).with_config(FaultConfig {
                drop_rate: 0.15,
                ..FaultConfig::default()
            })),
            ..small_config()
        };
        let mapping = Mapping::identity(16);
        let mut active = Machine::new(&config, &mapping);
        let mut reference = Machine::new_reference(&config, &mapping);
        let ra = active.run_network_cycles(60_000);
        let rb = reference.run_network_cycles(60_000);
        assert_eq!(ra, rb, "retry-gap runs must agree");
        assert!(
            ra.is_ok(),
            "watchdog must not trip inside retry gaps: {ra:?}"
        );
        assert_eq!(active.net_cycle(), reference.net_cycle());
        assert_eq!(active.measure(), reference.measure());
        assert_eq!(active.fault_log(), reference.fault_log());
        assert_eq!(
            active.completions_per_node(),
            reference.completions_per_node()
        );
        assert!(
            active.fast_forwarded_cycles() > 0,
            "no quiescent gap was jumped; the scenario does not exercise fast-forward"
        );
        assert_eq!(reference.fast_forwarded_cycles(), 0);
    }

    #[test]
    fn sleeping_nodes_are_invisible_to_every_stepping_call() {
        use commloc_net::{DetRng, FaultConfig, FaultPlan};
        // Nodes sleep through compute runs, context switches and
        // controller occupancy, and settle lazily. One machine steps one
        // cycle per `run_network_cycles(1)` call, another runs drawn
        // chunks in one call each (fast-forward included); after every chunk
        // both must read what the reference engine reads: measurements
        // (busy cycles feed the run length), per-node completions and the
        // breakdown. A reset midway checks that the window starts from
        // settled counters, and the wake heap and the worklist are
        // audited after every chunk. Long controller occupancy stretches
        // the controllers' spans.
        let occupied = SimConfig {
            mem: MemConfig {
                processing_cycles: 5,
                memory_cycles: 11,
                ..MemConfig::default()
            },
            ..small_config()
        };
        let lossy = SimConfig {
            mem: MemConfig {
                timeout_cycles: 400,
                max_retries: 30,
                ..MemConfig::default()
            },
            fault_plan: Some(FaultPlan::new(5).with_config(FaultConfig {
                drop_rate: 0.05,
                ..FaultConfig::default()
            })),
            ..small_config()
        };
        let mut rng = DetRng::new(22);
        let mut jumped = 0;
        for (contexts, base) in [
            (2, small_config()),
            (4, small_config()),
            (2, occupied),
            (2, lossy),
        ] {
            let config = SimConfig {
                contexts,
                switch_cycles: 11,
                ..base
            };
            let mapping = Mapping::random(16, 3);
            let mut stepped = Machine::new(&config, &mapping);
            let mut chunked = Machine::new(&config, &mapping);
            let mut reference = Machine::new_reference(&config, &mapping);
            let mut reset = false;
            while reference.net_cycle() < 8_000 {
                let chunk = rng.range_u64(1, 500);
                for _ in 0..chunk {
                    stepped.run_network_cycles(1).expect("steps");
                }
                chunked.run_network_cycles(chunk).expect("runs");
                reference.run_network_cycles(chunk).expect("runs");
                if !reset && reference.net_cycle() >= 3_000 {
                    for m in [&mut stepped, &mut chunked, &mut reference] {
                        m.reset_measurements();
                    }
                    reset = true;
                }
                let cycle = reference.net_cycle();
                for m in [&stepped, &chunked] {
                    audit_wakes(m);
                    let what = format!("contexts {contexts}, cycle {cycle}");
                    assert_eq!(m.measure(), reference.measure(), "{what}");
                    assert_eq!(
                        m.completions_per_node(),
                        reference.completions_per_node(),
                        "{what}"
                    );
                    assert_eq!(m.breakdown(2.0), reference.breakdown(2.0), "{what}");
                }
            }
            jumped += chunked.fast_forwarded_cycles();
        }
        assert!(jumped > 0, "no chunked run fast-forwarded");
    }

    #[test]
    fn fast_forward_lands_watchdog_trips_on_the_exact_cycle() {
        use commloc_net::{FaultConfig, FaultPlan};
        // With retries disabled, every dropped message permanently wedges
        // one thread. At a 5% drop rate all 16 single-context nodes wedge
        // within a few thousand cycles — long before the oldest stuck
        // transaction ages past the window — leaving the machine fully
        // quiescent with the watchdog trip as the only future event. The
        // active engine fast-forwards straight to that horizon — and must
        // report the identical cycle and diagnostics as the reference
        // engine grinding through the gap cycle by cycle.
        let config = SimConfig {
            mem: MemConfig {
                timeout_cycles: 0,
                ..MemConfig::default()
            },
            watchdog_cycles: 30_000,
            fault_plan: Some(FaultPlan::new(41).with_config(FaultConfig {
                drop_rate: 0.15,
                ..FaultConfig::default()
            })),
            ..small_config()
        };
        let mapping = Mapping::identity(16);
        let mut active = Machine::new(&config, &mapping);
        let mut reference = Machine::new_reference(&config, &mapping);
        let ea = active
            .run_network_cycles(400_000)
            .expect_err("an unretried drop must wedge the machine");
        let eb = reference
            .run_network_cycles(400_000)
            .expect_err("an unretried drop must wedge the machine");
        assert_eq!(ea, eb, "trip cycle and diagnostics must be bit-identical");
        assert_eq!(active.net_cycle(), reference.net_cycle());
        assert!(
            active.fast_forwarded_cycles() > 0,
            "the wedge gap should have been jumped"
        );
    }

    /// Unretried drops on the small machine: every dropped message
    /// permanently wedges one thread, so without migration the watchdog
    /// trips (see `fast_forward_lands_watchdog_trips_on_the_exact_cycle`).
    fn wedging_config(topology: Option<Topology>) -> SimConfig {
        use commloc_net::{FaultConfig, FaultPlan};
        SimConfig {
            mem: MemConfig {
                timeout_cycles: 0,
                ..MemConfig::default()
            },
            watchdog_cycles: 30_000,
            fault_plan: Some(FaultPlan::new(41).with_config(FaultConfig {
                drop_rate: 0.05,
                ..FaultConfig::default()
            })),
            topology,
            ..small_config()
        }
    }

    const STEALING: WorkStealingPolicy = WorkStealingPolicy {
        steal_latency: 300,
        wedge_threshold: 2_000,
        max_migrations: 10_000,
    };

    #[test]
    fn wedged_node_with_migration_does_not_trip_the_watchdog() {
        // With work stealing enabled, each wedged thread is offered to
        // the policy at age `wedge_threshold` — far below the watchdog
        // window — and re-issues its abandoned operation from a new
        // node, so the machine keeps retiring transactions.
        let config = wedging_config(None);
        let mapping = Mapping::identity(16);
        let mut active = Machine::new(&config, &mapping);
        let mut reference = Machine::new_reference(&config, &mapping);
        active.set_migration(STEALING);
        reference.set_migration(STEALING);
        let ra = active.run_network_cycles(60_000);
        let rb = reference.run_network_cycles(60_000);
        assert_eq!(ra, rb, "migration runs must agree across engines");
        assert!(
            ra.is_ok(),
            "migration should keep the wedged machine alive: {ra:?}"
        );
        assert!(
            !active.migrations().is_empty(),
            "the unretried drops should have forced at least one migration"
        );
        assert_eq!(active.migrations(), reference.migrations());
        assert_eq!(active.net_cycle(), reference.net_cycle());
        assert_eq!(active.measure(), reference.measure());
        assert_eq!(
            active.completions_per_node(),
            reference.completions_per_node()
        );
        assert_eq!(
            active.migrated_from_nodes(),
            reference.migrated_from_nodes()
        );
    }

    #[test]
    fn sharded_migration_is_bit_exact_with_one_shard() {
        // The wedging scenario at 2, 3 and 4 shards, on one and two
        // workers: migrations reach each node through its owning shard
        // after every shard has stepped, so nothing may differ.
        let config = wedging_config(None);
        let mapping = Mapping::identity(16);
        let run = |shards: usize, jobs: usize| {
            let mut machine = Machine::with_shards(&config, &mapping, shards);
            machine.set_jobs(jobs);
            machine.set_migration(STEALING);
            let result = machine.run_network_cycles(60_000);
            (result, machine)
        };
        let (r1, one) = run(1, 1);
        assert!(r1.is_ok(), "{r1:?}");
        assert!(!one.migrations().is_empty(), "the scenario must migrate");
        for shards in 2..=4 {
            for jobs in 1..=2 {
                let (r, sharded) = run(shards, jobs);
                let at = format!("{shards} shards, {jobs} jobs");
                assert_eq!(r, r1, "{at}");
                assert_eq!(sharded.net_cycle(), one.net_cycle(), "{at}");
                assert_eq!(sharded.migrations(), one.migrations(), "{at}");
                assert_eq!(
                    sharded.migrated_from_nodes(),
                    one.migrated_from_nodes(),
                    "{at}"
                );
                assert_eq!(
                    sharded.completions_per_node(),
                    one.completions_per_node(),
                    "{at}"
                );
                assert_eq!(sharded.measure(), one.measure(), "{at}");
                assert_eq!(sharded.fault_log(), one.fault_log(), "{at}");
                assert_eq!(
                    sharded.fast_forwarded_cycles(),
                    one.fast_forwarded_cycles(),
                    "{at}"
                );
            }
        }
    }

    #[test]
    fn migration_on_every_fabric_matches_the_reference_engine() {
        // The policy reads distances from the topology, so it places
        // threads on any fabric; each must migrate at least once and
        // agree with exhaustive stepping.
        for topology in [
            Topology::mesh(4, 4),
            Topology::fat_tree(2, 4),
            Topology::dragonfly(2, 2),
        ] {
            let config = wedging_config(Some(topology.clone()));
            let mapping = Mapping::identity(topology.compute_nodes());
            let mut active = Machine::new(&config, &mapping);
            let mut reference = Machine::new_reference(&config, &mapping);
            active.set_migration(STEALING);
            reference.set_migration(STEALING);
            let ra = active.run_network_cycles(40_000);
            let rb = reference.run_network_cycles(40_000);
            let name = topology.canonical();
            assert_eq!(ra, rb, "{name}");
            assert!(
                !active.migrations().is_empty(),
                "{name}: the unretried drops should force a migration"
            );
            assert_eq!(active.migrations(), reference.migrations(), "{name}");
            assert_eq!(active.net_cycle(), reference.net_cycle(), "{name}");
            assert_eq!(active.measure(), reference.measure(), "{name}");
            assert_eq!(
                active.completions_per_node(),
                reference.completions_per_node(),
                "{name}"
            );
        }
    }

    #[test]
    fn exhausted_migration_budget_trips_and_names_the_migrated_nodes() {
        use commloc_net::{FaultConfig, FaultPlan};
        // A budget of one move: the first wedged context migrates, the
        // next wedged context has no budget left and ages out, and the
        // resulting stall report must name where threads already fled.
        let config = SimConfig {
            mem: MemConfig {
                timeout_cycles: 0,
                ..MemConfig::default()
            },
            watchdog_cycles: 20_000,
            fault_plan: Some(FaultPlan::new(41).with_config(FaultConfig {
                drop_rate: 0.05,
                ..FaultConfig::default()
            })),
            ..small_config()
        };
        let mapping = Mapping::identity(16);
        let mut machine = Machine::new(&config, &mapping);
        machine.set_migration(WorkStealingPolicy {
            max_migrations: 1,
            ..STEALING
        });
        let err = machine
            .run_network_cycles(400_000)
            .expect_err("budget exhaustion must leave a wedged thread");
        let SimError::Stalled(report) = err else {
            panic!("expected a stall, got {err}");
        };
        assert_eq!(machine.migrations().len(), 1);
        assert_eq!(
            report.migrated_from,
            vec![machine.migrations()[0].from],
            "the report must name the migrated-from node"
        );
    }

    #[test]
    fn a_stranded_transaction_trips_as_aged_while_the_machine_completes() {
        use commloc_net::{FaultConfig, FaultPlan};
        // Two retries against 5% drops strand a transaction at cycle 1,684
        // while every other node keeps completing: the trip at 1,684 +
        // 20,000 names that transaction, not a global stall, and every
        // engine and shard count names the same one.
        let config = SimConfig {
            mem: MemConfig {
                timeout_cycles: 400,
                max_retries: 2,
                ..MemConfig::default()
            },
            watchdog_cycles: 20_000,
            fault_plan: Some(FaultPlan::new(5).with_config(FaultConfig {
                drop_rate: 0.05,
                ..FaultConfig::default()
            })),
            ..small_config()
        };
        let mapping = Mapping::identity(16);
        let policy = WorkStealingPolicy {
            max_migrations: 2,
            ..STEALING
        };
        let mut reports = Vec::new();
        for mut machine in [
            Machine::new(&config, &mapping),
            Machine::new_reference(&config, &mapping),
            Machine::with_shards(&config, &mapping, 4),
        ] {
            machine.set_migration(policy);
            let mut completions = Vec::new();
            let err = loop {
                match machine.run_network_cycles(1_000) {
                    Ok(()) => completions.push(machine.completions()),
                    Err(err) => break err,
                }
            };
            // Completions rise through every thousand-cycle slice.
            assert!(
                completions.windows(2).all(|w| w[0] < w[1]),
                "{completions:?}"
            );
            let SimError::Stalled(report) = err else {
                panic!("expected a stall, got {err}");
            };
            reports.push(report);
        }
        let report = &reports[0];
        assert_eq!(report.cycle, 21_684);
        let StallCause::AgedTransaction { node, txn, issued } = report.cause else {
            panic!("expected an aged transaction: {report}");
        };
        assert_eq!(issued, 1_684);
        assert_eq!(node, NodeId((txn >> 32) as usize));
        assert!(
            format!("{report}").contains("issued at cycle 1684"),
            "{report}"
        );
        assert!(reports.iter().all(|r| r == report), "{reports:?}");
    }

    #[test]
    fn a_quiet_machine_trips_as_a_global_stall() {
        // A grain longer than the window: no thread reaches its first
        // access, so nothing is outstanding and nothing moves.
        let config = SimConfig {
            work: 5_000,
            watchdog_cycles: 2_000,
            ..small_config()
        };
        let mut machine = Machine::new(&config, &Mapping::identity(16));
        let err = machine.run_network_cycles(10_000).unwrap_err();
        let SimError::Stalled(report) = err else {
            panic!("expected a stall, got {err}");
        };
        assert_eq!(report.cause, StallCause::Global);
        assert!(
            format!("{report}").contains("no progress for 2000 cycles"),
            "{report}"
        );
    }

    #[test]
    fn migration_layer_conserves_completions_on_fault_free_runs() {
        // Property: on a fault-free machine the stealing policy's wedge
        // threshold (far above any healthy transaction latency) never
        // fires, so a policy-carrying machine must complete exactly the
        // same transactions as the static machine.
        for (mapping, contexts) in [(Mapping::identity(16), 1), (Mapping::random(16, 3), 2)] {
            let config = SimConfig {
                contexts,
                ..small_config()
            };
            let mut dynamic = Machine::new(&config, &mapping);
            dynamic.set_migration(WorkStealingPolicy {
                steal_latency: 200,
                wedge_threshold: 3_000,
                max_migrations: 1_000,
            });
            let mut static_run = Machine::new(&config, &mapping);
            dynamic.run_network_cycles(30_000).unwrap();
            static_run.run_network_cycles(30_000).unwrap();
            assert!(dynamic.migrations().is_empty(), "no faults, no moves");
            assert_eq!(dynamic.completions(), static_run.completions());
            assert_eq!(
                dynamic.completions_per_node(),
                static_run.completions_per_node()
            );
            assert_eq!(dynamic.measure(), static_run.measure());
        }
    }

    #[test]
    fn null_policy_is_bit_exact_with_the_static_machine() {
        use commloc_net::{FaultConfig, FaultPlan};
        // Even under an eventful fault plan, a policy whose threshold
        // never fires must leave no trace: identical cycles,
        // measurements, and fault log.
        let config = SimConfig {
            mem: MemConfig {
                timeout_cycles: 2_000,
                ..MemConfig::default()
            },
            fault_plan: Some(FaultPlan::new(19).with_config(FaultConfig {
                drop_rate: 0.002,
                corrupt_rate: 0.001,
                ..FaultConfig::default()
            })),
            ..small_config()
        };
        let mapping = Mapping::identity(16);
        let mut with_null = Machine::new(&config, &mapping);
        with_null.set_migration(WorkStealingPolicy {
            wedge_threshold: u64::MAX,
            ..STEALING
        });
        let mut without = Machine::new(&config, &mapping);
        let ra = with_null.run_network_cycles(30_000);
        let rb = without.run_network_cycles(30_000);
        assert_eq!(ra, rb);
        assert_eq!(with_null.net_cycle(), without.net_cycle());
        assert_eq!(with_null.measure(), without.measure());
        assert_eq!(with_null.fault_log(), without.fault_log());
        assert!(with_null.migrations().is_empty());
        assert!(with_null.migrated_from_nodes().is_empty());
    }

    #[test]
    fn oldest_issue_tracks_the_outstanding_transactions() {
        use commloc_net::{FaultConfig, FaultPlan};
        // Lossy retries strand transactions once their two retries are
        // spent; the policy migrates the first two, and the next one ages
        // past the watchdog window. Completions, abandons and issues into
        // an empty shard all change the context slots, and the oldest
        // issue the queue reports must equal the minimum over the slots
        // after every cycle.
        let config = SimConfig {
            mem: MemConfig {
                timeout_cycles: 400,
                max_retries: 2,
                ..MemConfig::default()
            },
            watchdog_cycles: 20_000,
            fault_plan: Some(FaultPlan::new(41).with_config(FaultConfig {
                drop_rate: 0.05,
                ..FaultConfig::default()
            })),
            ..small_config()
        };
        let mapping = Mapping::identity(16);
        let mut trips = Vec::new();
        for shards in [1, 3] {
            let mut machine = Machine::with_shards(&config, &mapping, shards);
            machine.set_migration(WorkStealingPolicy {
                max_migrations: 2,
                ..STEALING
            });
            let err = loop {
                if let Err(err) = machine.run_network_cycles(1) {
                    break err;
                }
                audit_oldest_issue(&mut machine);
                assert!(machine.net_cycle() < 2_000_000, "no watchdog trip");
            };
            audit_oldest_issue(&mut machine);
            assert!(matches!(err, SimError::Stalled(_)), "{err}");
            assert_eq!(machine.migrations().len(), 2, "{shards} shards");
            trips.push((machine.net_cycle(), err));
        }
        assert_eq!(trips[0], trips[1], "1 and 3 shards trip alike");
    }

    #[test]
    fn the_issue_queue_stays_bounded_behind_stranded_transactions() {
        use commloc_net::{FaultConfig, FaultPlan};
        // Without retries a dropped message strands its transaction for
        // good, while the node's other context keeps issuing behind it.
        // Every shard's queue must stay within its bound, where a log
        // pruned only at its front keeps every issue behind the first
        // stranded one.
        let config = SimConfig {
            contexts: 2,
            mem: MemConfig {
                timeout_cycles: 0,
                ..MemConfig::default()
            },
            watchdog_cycles: 0,
            fault_plan: Some(FaultPlan::new(3).with_config(FaultConfig {
                drop_rate: 0.01,
                ..FaultConfig::default()
            })),
            ..small_config()
        };
        let mapping = Mapping::identity(16);
        let mut completions = Vec::new();
        for shards in [1, 3] {
            let mut machine = Machine::with_shards(&config, &mapping, shards);
            for _ in 0..100 {
                machine.run_network_cycles(2_000).expect("runs");
                audit_oldest_issue(&mut machine);
            }
            let oldest = machine.progress().1.expect("a transaction is stranded");
            assert!(oldest < 100_000, "stranded at cycle {oldest}");
            completions.push(machine.completions());
        }
        assert_eq!(
            completions[0], completions[1],
            "1 and 3 shards complete alike"
        );
    }

    #[test]
    fn engines_agree_across_random_fault_plans() {
        use commloc_net::{DetRng, FaultConfig, FaultPlan};
        // Property check over DetRng-drawn fault plans (the machine
        // fuzzer sweeps far wider ranges; this is the always-on slice).
        for seed in 0..4u64 {
            let mut rng = DetRng::new(seed ^ 0xD06_F00D);
            let config = SimConfig {
                mem: MemConfig {
                    timeout_cycles: if rng.chance(0.5) {
                        1_000 + rng.range_u64(0, 2_000) as u32
                    } else {
                        0
                    },
                    max_retries: 1 + rng.range_u64(0, 6) as u32,
                    ..MemConfig::default()
                },
                watchdog_cycles: 30_000,
                fault_plan: Some(FaultPlan::new(seed).with_config(FaultConfig {
                    drop_rate: rng.range_f64(0.0, 0.01),
                    corrupt_rate: rng.range_f64(0.0, 0.005),
                    ..FaultConfig::default()
                })),
                ..small_config()
            };
            let mapping = Mapping::identity(16);
            let mut active = Machine::new(&config, &mapping);
            let mut reference = Machine::new_reference(&config, &mapping);
            let ra = active.run_network_cycles(25_000);
            let rb = reference.run_network_cycles(25_000);
            assert_eq!(ra, rb, "seed {seed}: outcomes diverged");
            assert_eq!(active.net_cycle(), reference.net_cycle(), "seed {seed}");
            assert_eq!(active.measure(), reference.measure(), "seed {seed}");
            assert_eq!(active.fault_log(), reference.fault_log(), "seed {seed}");
        }
    }
}
