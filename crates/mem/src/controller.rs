//! The per-node memory/coherence controller.
//!
//! Each node's controller plays three roles, exactly as Alewife's
//! memory/network interface does:
//!
//! * **cache controller** — serves processor loads/stores from the local
//!   cache, and on misses initiates coherence transactions toward the
//!   line's home node (MSHR-tracked, one outstanding transaction per
//!   line with same-line requests queued behind it);
//! * **home/directory controller** — serializes coherence requests for
//!   lines homed at this node, issuing invalidations and fetches and
//!   collecting acknowledgements;
//! * **network interface glue** — turns protocol actions into messages
//!   (local ones short-circuit through the controller's own inbox and
//!   never touch the network).
//!
//! The controller processes one work item per processor cycle while idle;
//! each item occupies it for a configurable number of cycles
//! ([`MemConfig::processing_cycles`], plus [`MemConfig::memory_cycles`]
//! for DRAM touches). This occupancy is a real contributor to the paper's
//! fixed transaction overhead `T_f`.

use crate::addr::{Addr, LineAddr, LineData};
use crate::cache::{Cache, CacheState};
use crate::directory::{DirState, Directory, QueuedRequest};
use crate::home::HomeMap;
use crate::msg::{MemConfig, ProtocolMsg};
use commloc_net::NodeId;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Cap on the exponential-backoff shift so deadlines stay bounded.
const MAX_BACKOFF_SHIFT: u32 = 6;

/// Identifier the processor attaches to a memory transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

/// A processor-issued memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOp {
    /// Load a word.
    Read(Addr),
    /// Store a word.
    Write(Addr, u64),
}

impl MemOp {
    /// The word this operation touches.
    pub fn addr(&self) -> Addr {
        match *self {
            MemOp::Read(a) | MemOp::Write(a, _) => a,
        }
    }

    /// Whether this operation requires exclusivity.
    pub fn is_write(&self) -> bool {
        matches!(self, MemOp::Write(..))
    }
}

/// Completion notice for a processor transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The transaction that finished.
    pub txn: TxnId,
    /// The operation it performed.
    pub op: MemOp,
    /// The value read (for reads) or written (for writes).
    pub value: u64,
    /// Whether the operation required a coherence transaction (a miss) —
    /// the paper's notion of a *communication transaction*. Hits served
    /// from the local cache are not transactions.
    pub miss: bool,
}

/// Counters the full-system simulator uses to measure `g`, `B`, and the
/// hit/miss structure of the workload.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Processor transactions accepted.
    pub transactions: u64,
    /// Transactions completed.
    pub completions: u64,
    /// Loads served from the local cache.
    pub read_hits: u64,
    /// Loads that required a coherence transaction.
    pub read_misses: u64,
    /// Stores served from the local cache (already Modified).
    pub write_hits: u64,
    /// Stores that required a coherence transaction.
    pub write_misses: u64,
    /// Protocol messages handed to the network (src != dst).
    pub network_messages: u64,
    /// Flits of those messages.
    pub network_flits: u64,
    /// Protocol messages short-circuited locally.
    pub local_messages: u64,
    /// Invalidations issued by the home role.
    pub invalidations_sent: u64,
    /// Writebacks issued by evictions.
    pub writebacks: u64,
    /// Transaction timeouts that fired (each may trigger a retry).
    pub timeouts: u64,
    /// Requests retransmitted after a timeout.
    pub retries: u64,
    /// Transactions whose retry budget ran out (left to the watchdog).
    pub retries_exhausted: u64,
    /// Grants that arrived for a line with no outstanding MSHR — a
    /// duplicate reply from a retransmitted request, dropped harmlessly.
    pub stale_grants: u64,
    /// Duplicate requests the home detected and answered idempotently.
    pub duplicate_requests: u64,
    /// Fetch negative-acknowledgements received by the home role.
    pub fetch_nacks: u64,
    /// Protocol messages that arrived in a directory state that cannot
    /// consume them (late duplicates); ignored rather than asserted on.
    pub protocol_surprises: u64,
    /// Transactions abandoned because their thread migrated to another
    /// node (the operation is re-issued there).
    pub abandoned: u64,
}

/// Outstanding-transaction record for one line: the head of `pending` is
/// in flight; the rest wait for the fill.
#[derive(Debug, Clone)]
struct Mshr {
    pending: VecDeque<(TxnId, MemOp)>,
    /// Retransmissions already performed for the in-flight request.
    attempts: u32,
    /// Local cycle at which the in-flight request times out (`None` when
    /// timeouts are disabled or the retry budget is exhausted).
    deadline: Option<u64>,
}

impl Mshr {
    fn new(config: &MemConfig, now: u64) -> Self {
        Self {
            pending: VecDeque::new(),
            attempts: 0,
            deadline: initial_deadline(config, now),
        }
    }
}

/// The first-timeout deadline, or `None` when timeouts are disabled.
fn initial_deadline(config: &MemConfig, now: u64) -> Option<u64> {
    (config.timeout_cycles > 0).then(|| now + u64::from(config.timeout_cycles))
}

/// Work accepted by the controller, processed one per idle cycle.
#[derive(Debug, Clone)]
enum WorkItem {
    Proc { txn: TxnId, op: MemOp },
    Msg(ProtocolMsg),
}

/// A per-node memory/coherence controller.
///
/// # Examples
///
/// Driving a single node's controller by hand (local line, so every
/// protocol step short-circuits):
///
/// ```
/// use commloc_mem::{Addr, Controller, HomeMap, MemConfig, MemOp, TxnId};
/// use commloc_net::NodeId;
///
/// let mut ctrl = Controller::new(NodeId(0), HomeMap::interleaved(1), MemConfig::default());
/// ctrl.request(TxnId(1), MemOp::Write(Addr(0), 99));
/// for _ in 0..100 {
///     ctrl.step();
/// }
/// let done = ctrl.poll_completion().expect("write completed");
/// assert_eq!(done.value, 99);
/// ```
#[derive(Debug, Clone)]
pub struct Controller {
    node: NodeId,
    config: MemConfig,
    cache: Cache,
    directory: Directory,
    memory: HashMap<LineAddr, LineData>,
    /// Shared line-placement map. Every controller of a machine sees the
    /// same placement, so they share one `Arc` instead of cloning the map
    /// per node.
    home: Arc<HomeMap>,
    work: VecDeque<WorkItem>,
    busy: u32,
    outbox: VecDeque<(NodeId, ProtocolMsg)>,
    completions: VecDeque<Completion>,
    mshr: HashMap<LineAddr, Mshr>,
    stats: MemStats,
    /// Local cycle counter driving transaction timeouts.
    cycle: u64,
}

impl Controller {
    /// Creates the controller for `node`. Accepts either an owned
    /// [`HomeMap`] or an `Arc<HomeMap>` shared across the machine's
    /// controllers.
    pub fn new(node: NodeId, home: impl Into<Arc<HomeMap>>, config: MemConfig) -> Self {
        Self {
            node,
            cache: Cache::new(config.cache_lines),
            config,
            directory: Directory::new(),
            memory: HashMap::new(),
            home: home.into(),
            work: VecDeque::new(),
            busy: 0,
            outbox: VecDeque::new(),
            completions: VecDeque::new(),
            mshr: HashMap::new(),
            stats: MemStats::default(),
            cycle: 0,
        }
    }

    /// The node this controller belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Resets the statistics counters (measurement windows).
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::default();
    }

    /// Accepts a processor memory operation. The processor learns of its
    /// completion through [`Controller::poll_completion`].
    pub fn request(&mut self, txn: TxnId, op: MemOp) {
        self.stats.transactions += 1;
        self.work.push_back(WorkItem::Proc { txn, op });
    }

    /// Accepts a protocol message delivered by the network.
    pub fn deliver(&mut self, msg: ProtocolMsg) {
        self.work.push_back(WorkItem::Msg(msg));
    }

    /// Takes the next outgoing network message, if any.
    pub fn take_outgoing(&mut self) -> Option<(NodeId, ProtocolMsg)> {
        self.outbox.pop_front()
    }

    /// Takes the next transaction completion, if any.
    pub fn poll_completion(&mut self) -> Option<Completion> {
        self.completions.pop_front()
    }

    /// Abandons a processor transaction whose thread is migrating to
    /// another node: removes it from its line's MSHR queue (or from the
    /// not-yet-processed work queue) and returns its operation so the
    /// migrated thread can re-issue it elsewhere. The coherence request
    /// itself may still be in flight — a late grant then finds no
    /// matching MSHR and is dropped through the existing stale-grant
    /// path, exactly like a duplicate reply after a retransmit.
    ///
    /// Returns `None` if the transaction is not queued here (it already
    /// completed, or never reached this controller).
    pub fn abandon(&mut self, txn: TxnId) -> Option<MemOp> {
        // Still sitting unprocessed in the work queue.
        if let Some(pos) = self
            .work
            .iter()
            .position(|item| matches!(item, WorkItem::Proc { txn: t, .. } if *t == txn))
        {
            let Some(WorkItem::Proc { op, .. }) = self.work.remove(pos) else {
                unreachable!("position matched a Proc item");
            };
            self.stats.abandoned += 1;
            return Some(op);
        }
        // Tracked by an MSHR: the in-flight head or queued behind it. A
        // transaction lives in at most one MSHR, so the map's iteration
        // order cannot affect the outcome.
        let mut found: Option<(LineAddr, MemOp)> = None;
        for (&line, entry) in self.mshr.iter_mut() {
            if let Some(pos) = entry.pending.iter().position(|&(t, _)| t == txn) {
                let (_, op) = entry.pending.remove(pos).expect("position exists");
                found = Some((line, op));
                break;
            }
        }
        let (line, op) = found?;
        if self.mshr[&line].pending.is_empty() {
            self.mshr.remove(&line);
        }
        self.stats.abandoned += 1;
        Some(op)
    }

    /// Whether the controller has no queued work, no occupancy, and no
    /// outstanding transactions.
    pub fn is_idle(&self) -> bool {
        self.busy == 0 && self.work.is_empty() && self.mshr.is_empty() && self.outbox.is_empty()
    }

    /// Read-only view of the cache (tests and invariant checks).
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Read-only view of the directory (tests and invariant checks).
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// The backing-memory contents of a line homed here (zeros if never
    /// written).
    pub fn memory_line(&self, line: LineAddr) -> LineData {
        self.memory.get(&line).copied().unwrap_or_default()
    }

    /// Number of outstanding coherence transactions (lines with an active
    /// MSHR) — surfaced in watchdog stall diagnostics.
    pub fn outstanding_transactions(&self) -> usize {
        self.mshr.len()
    }

    /// The controller's local cycle counter, advanced once per
    /// [`Controller::step`] and in bulk by [`Controller::advance`].
    pub fn local_cycle(&self) -> u64 {
        self.cycle
    }

    /// The earliest local cycle at which a retry/backoff timer fires, or
    /// `None` if no deadline is armed.
    pub fn next_deadline(&self) -> Option<u64> {
        if self.config.timeout_cycles == 0 {
            return None;
        }
        self.mshr.values().filter_map(|m| m.deadline).min()
    }

    /// Horizon contract for the machine-level active-node engine, the
    /// one the processor gives too: how many upcoming
    /// [`Controller::step`] calls are *pure ticks* — steps that advance
    /// the local clock and count the occupancy down, but pop no work item
    /// and fire no retry timeout.
    ///
    /// * `Some(0)` — the next step pops a work item, or the outgoing or
    ///   completion queue holds items the caller has not drained.
    /// * `Some(k)` — work waits behind an occupancy countdown of `k`
    ///   cycles; step `k + 1` pops it.
    /// * `None` — nothing is queued: the countdown ends and dormant steps
    ///   follow until a request or delivery arrives.
    ///
    /// An armed retry deadline `d` caps each case at `d - cycle - 1`,
    /// since the step that reaches `d` fires the timeout.
    /// [`Controller::advance`] applies any prefix of the span at once.
    pub fn next_wake(&self) -> Option<u64> {
        let queued = !self.work.is_empty();
        if (queued && self.busy == 0) || !self.outbox.is_empty() || !self.completions.is_empty() {
            return Some(0);
        }
        let countdown = queued.then_some(u64::from(self.busy));
        let Some(deadline) = self.next_deadline() else {
            return countdown;
        };
        let cap = deadline.saturating_sub(self.cycle + 1);
        Some(countdown.map_or(cap, |k| k.min(cap)))
    }

    /// Applies `cycles` pure ticks in O(1), bit-identical to `cycles`
    /// calls to [`Controller::step`]: the local clock moves on and the
    /// occupancy counts down, stopping at zero when nothing is queued.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` exceeds the span [`Controller::next_wake`]
    /// reports.
    pub fn advance(&mut self, cycles: u64) {
        if cycles == 0 {
            return;
        }
        let span = self.next_wake();
        assert!(
            span.is_none_or(|k| cycles <= k),
            "advance by {cycles} cycles past a pure-tick span of {span:?}"
        );
        self.cycle += cycles;
        self.busy -= u64::from(self.busy).min(cycles) as u32;
    }

    /// Advances the controller by one processor cycle.
    pub fn step(&mut self) {
        self.cycle += 1;
        if self.config.timeout_cycles > 0 {
            self.check_timeouts();
        }
        if self.busy > 0 {
            self.busy -= 1;
            return;
        }
        let Some(item) = self.work.pop_front() else {
            return;
        };
        let cost = match item {
            WorkItem::Proc { txn, op } => self.handle_proc(txn, op),
            WorkItem::Msg(msg) => self.handle_msg(msg),
        };
        self.busy = cost.saturating_sub(1);
    }

    /// Retransmits requests whose replies are overdue, with bounded
    /// exponential backoff: the n-th retry waits `timeout_cycles << n`
    /// (shift capped) before the next. When the retry budget runs out the
    /// transaction is left for the machine-level watchdog to report.
    fn check_timeouts(&mut self) {
        let now = self.cycle;
        let mut resend = Vec::new();
        for (&line, entry) in self.mshr.iter_mut() {
            let Some(deadline) = entry.deadline else {
                continue;
            };
            if now < deadline {
                continue;
            }
            self.stats.timeouts += 1;
            if entry.attempts >= self.config.max_retries {
                self.stats.retries_exhausted += 1;
                entry.deadline = None;
                continue;
            }
            entry.attempts += 1;
            let backoff =
                u64::from(self.config.timeout_cycles) << entry.attempts.min(MAX_BACKOFF_SHIFT);
            entry.deadline = Some(now + backoff);
            let write = entry.pending.front().is_some_and(|(_, op)| op.is_write());
            resend.push((line, write));
        }
        // `mshr` is a HashMap, so two controllers in lockstep could
        // otherwise fire same-cycle retries in different orders; sorting
        // by line makes the resend (and thus outbox) order deterministic.
        resend.sort_unstable_by_key(|&(line, _)| line);
        for (line, write) in resend {
            self.stats.retries += 1;
            let home = self.home.home(line);
            let requester = self.node;
            let msg = if write {
                ProtocolMsg::WriteReq { line, requester }
            } else {
                ProtocolMsg::ReadReq { line, requester }
            };
            self.send(home, msg);
        }
    }

    /// Sends a protocol message, short-circuiting local destinations.
    fn send(&mut self, dst: NodeId, msg: ProtocolMsg) {
        if dst == self.node {
            self.stats.local_messages += 1;
            self.work.push_back(WorkItem::Msg(msg));
        } else {
            self.stats.network_messages += 1;
            self.stats.network_flits += u64::from(msg.flits(&self.config));
            self.outbox.push_back((dst, msg));
        }
    }

    fn complete(&mut self, txn: TxnId, op: MemOp, value: u64, miss: bool) {
        self.stats.completions += 1;
        self.completions.push_back(Completion {
            txn,
            op,
            value,
            miss,
        });
    }

    /// Handles a processor operation; returns occupancy cycles.
    fn handle_proc(&mut self, txn: TxnId, op: MemOp) -> u32 {
        let line = op.addr().line();
        if let Some(entry) = self.mshr.get_mut(&line) {
            // A transaction for this line is already in flight; queue
            // behind it.
            entry.pending.push_back((txn, op));
            return self.config.processing_cycles;
        }
        match op {
            MemOp::Read(addr) => {
                if let Some(value) = self.cache.read_word(addr) {
                    self.stats.read_hits += 1;
                    self.complete(txn, op, value, false);
                    return self.config.processing_cycles;
                }
                self.stats.read_misses += 1;
                self.start_miss(line, txn, op, false);
            }
            MemOp::Write(addr, value) => {
                if self.cache.write_word(addr, value) {
                    self.stats.write_hits += 1;
                    self.complete(txn, op, value, false);
                    return self.config.processing_cycles;
                }
                self.stats.write_misses += 1;
                self.start_miss(line, txn, op, true);
            }
        }
        self.config.processing_cycles
    }

    fn start_miss(&mut self, line: LineAddr, txn: TxnId, op: MemOp, write: bool) {
        let mut entry = Mshr::new(&self.config, self.cycle);
        entry.pending.push_back((txn, op));
        self.mshr.insert(line, entry);
        let home = self.home.home(line);
        let requester = self.node;
        let msg = if write {
            ProtocolMsg::WriteReq { line, requester }
        } else {
            ProtocolMsg::ReadReq { line, requester }
        };
        self.send(home, msg);
    }

    /// Handles a protocol message; returns occupancy cycles.
    fn handle_msg(&mut self, msg: ProtocolMsg) -> u32 {
        let base = self.config.processing_cycles;
        match msg {
            // ---- Home role -------------------------------------------
            ProtocolMsg::ReadReq { line, requester } => {
                self.home_request(line, requester, false);
                base + self.config.memory_cycles
            }
            ProtocolMsg::WriteReq { line, requester } => {
                self.home_request(line, requester, true);
                base + self.config.memory_cycles
            }
            ProtocolMsg::InvAck { line, from } => {
                self.home_inv_ack(line, from);
                base
            }
            ProtocolMsg::OwnerData { line, data, from } => {
                self.home_owner_data(line, data, Some(from));
                base + self.config.memory_cycles
            }
            ProtocolMsg::Writeback { line, data, from } => {
                self.home_writeback(line, data, from);
                base + self.config.memory_cycles
            }
            ProtocolMsg::FetchNack { line, from } => {
                self.stats.fetch_nacks += 1;
                if matches!(
                    self.directory.entry(line).state,
                    DirState::PendingData { owner, .. } if owner == from
                ) {
                    // Point-to-point FIFO means a writeback that crossed
                    // our fetch would have arrived (and resolved the
                    // pending grant) before this nack. Still pending *on
                    // this owner*, the owner's data return was lost in the
                    // network: recover with memory's copy so the requester
                    // is not wedged. A nack from any other node answers a
                    // duplicate fetch of an older grant chain and must not
                    // short-circuit the current one.
                    let data = self.memory_line(line);
                    self.home_owner_data(line, data, None);
                }
                // In the ordinary crossing case the writeback already
                // completed the grant; nothing to do.
                base
            }
            // ---- Cache role ------------------------------------------
            ProtocolMsg::Invalidate { line } => {
                // Sharers drop silently-held state; acknowledging absent
                // lines is harmless (silent S eviction).
                let _ = self.cache.invalidate(line);
                let home = self.home.home(line);
                let from = self.node;
                self.send(home, ProtocolMsg::InvAck { line, from });
                base
            }
            ProtocolMsg::Fetch { line } => {
                match self.cache.downgrade(line) {
                    Some(data) => {
                        let home = self.home.home(line);
                        let from = self.node;
                        self.send(home, ProtocolMsg::OwnerData { line, data, from });
                    }
                    None => {
                        // Eviction writeback crossed the fetch in flight.
                        let home = self.home.home(line);
                        let from = self.node;
                        self.send(home, ProtocolMsg::FetchNack { line, from });
                    }
                }
                base
            }
            ProtocolMsg::FetchInv { line } => {
                match self.cache.invalidate(line) {
                    Some(data) => {
                        let home = self.home.home(line);
                        let from = self.node;
                        self.send(home, ProtocolMsg::OwnerData { line, data, from });
                    }
                    None => {
                        let home = self.home.home(line);
                        let from = self.node;
                        self.send(home, ProtocolMsg::FetchNack { line, from });
                    }
                }
                base
            }
            ProtocolMsg::ReadReply { line, data } => {
                self.fill_and_drain(line, CacheState::Shared, data, false);
                base
            }
            ProtocolMsg::WriteReply { line, data } => {
                self.fill_and_drain(line, CacheState::Modified, data, true);
                base
            }
        }
    }

    // ---- Home-role helpers -------------------------------------------

    /// Serializes a read/write request for a line homed here. The line's
    /// state is taken out of its entry and each arm hands back the state
    /// it decides (an arm that changes nothing, the one it took), so no
    /// sharer set is cloned per message.
    fn home_request(&mut self, line: LineAddr, requester: NodeId, write: bool) {
        debug_assert_eq!(self.home.home(line), self.node, "request at wrong home");
        let state = std::mem::replace(&mut self.directory.entry(line).state, DirState::Uncached);
        let next = match state {
            DirState::Uncached => {
                let data = self.memory_line(line);
                if write {
                    self.send(requester, ProtocolMsg::WriteReply { line, data });
                    DirState::Exclusive(requester)
                } else {
                    self.send(requester, ProtocolMsg::ReadReply { line, data });
                    DirState::Shared([requester].into_iter().collect())
                }
            }
            DirState::Shared(mut sharers) => {
                if write {
                    sharers.remove(&requester);
                    if sharers.is_empty() {
                        let data = self.memory_line(line);
                        self.send(requester, ProtocolMsg::WriteReply { line, data });
                        DirState::Exclusive(requester)
                    } else {
                        for &sharer in &sharers {
                            self.stats.invalidations_sent += 1;
                            self.send(sharer, ProtocolMsg::Invalidate { line });
                        }
                        DirState::PendingAcks {
                            requester,
                            waiting_acks: sharers,
                        }
                    }
                } else {
                    let data = self.memory_line(line);
                    sharers.insert(requester);
                    self.send(requester, ProtocolMsg::ReadReply { line, data });
                    DirState::Shared(sharers)
                }
            }
            DirState::Exclusive(owner) if owner == requester => {
                self.stats.duplicate_requests += 1;
                if write {
                    // The owner's WriteReply was lost (we recorded the
                    // grant; it never arrived). Re-grant idempotently from
                    // memory rather than fetching from the requester
                    // itself.
                    let data = self.memory_line(line);
                    self.send(requester, ProtocolMsg::WriteReply { line, data });
                } else {
                    // A *read* from the recorded owner can only be the
                    // stale duplicate of an older, completed transaction:
                    // per-pair FIFO delivers a writeback before any later
                    // request from the same node, so a live read miss at
                    // the owner implies we would no longer record it as
                    // owner. Demoting to Shared here would strand the
                    // owner's Modified copy outside the directory's view —
                    // ignore the duplicate instead.
                }
                DirState::Exclusive(owner)
            }
            DirState::Exclusive(owner) => {
                let msg = if write {
                    ProtocolMsg::FetchInv { line }
                } else {
                    ProtocolMsg::Fetch { line }
                };
                self.send(owner, msg);
                DirState::PendingData {
                    requester,
                    for_write: write,
                    owner,
                }
            }
            DirState::PendingData {
                requester: pending_for,
                for_write,
                owner,
            } => {
                if (pending_for == requester && for_write == write)
                    || self.queue_waiting(line, requester, write)
                {
                    // A retransmission reached us — either the duplicate
                    // of the grant in progress, or of a request already
                    // queued behind it. Either way the requester is still
                    // waiting, which means the transient chain may have
                    // stalled on a lost fetch (or data return): nudge the
                    // owner again.
                    self.stats.duplicate_requests += 1;
                    let msg = if for_write {
                        ProtocolMsg::FetchInv { line }
                    } else {
                        ProtocolMsg::Fetch { line }
                    };
                    self.send(owner, msg);
                }
                DirState::PendingData {
                    requester: pending_for,
                    for_write,
                    owner,
                }
            }
            DirState::PendingAcks {
                requester: pending_for,
                waiting_acks,
            } => {
                if (pending_for == requester && write) || self.queue_waiting(line, requester, write)
                {
                    // Same reasoning as the PendingData arm: any
                    // retransmission on this line re-invalidates exactly
                    // the sharers that have not acknowledged yet, in case
                    // an invalidation (or its ack) was lost.
                    self.stats.duplicate_requests += 1;
                    for &sharer in &waiting_acks {
                        self.send(sharer, ProtocolMsg::Invalidate { line });
                    }
                }
                DirState::PendingAcks {
                    requester: pending_for,
                    waiting_acks,
                }
            }
        };
        self.directory.entry(line).state = next;
    }

    /// Defers a request on a transient line. Exact duplicates are dropped
    /// (retransmissions must not inflate the queue); returns whether the
    /// request was such a duplicate, so callers can re-drive the transient
    /// chain the duplicate proves someone is still waiting on.
    fn queue_waiting(&mut self, line: LineAddr, requester: NodeId, write: bool) -> bool {
        let entry = self.directory.entry(line);
        let req = QueuedRequest { requester, write };
        if entry.waiting.contains(&req) {
            return true;
        }
        entry.waiting.push_back(req);
        false
    }

    fn home_inv_ack(&mut self, line: LineAddr, from: NodeId) {
        let state = &mut self.directory.entry(line).state;
        let DirState::PendingAcks {
            requester,
            waiting_acks,
        } = state
        else {
            // A late or duplicate acknowledgement after the grant already
            // completed; harmless.
            self.stats.protocol_surprises += 1;
            return;
        };
        if !waiting_acks.remove(&from) {
            // Duplicate ack from a sharer that already acknowledged.
            self.stats.protocol_surprises += 1;
            return;
        }
        if !waiting_acks.is_empty() {
            return;
        }
        let requester = *requester;
        *state = DirState::Exclusive(requester);
        let data = self.memory_line(line);
        self.send(requester, ProtocolMsg::WriteReply { line, data });
        self.drain_waiting(line);
    }

    /// Completes a pending grant with data returned by the previous owner.
    /// `still_shared` carries the downgraded owner for read grants;
    /// `None` means the owner surrendered the line entirely (fetch-
    /// invalidate, or a writeback that crossed the fetch).
    fn home_owner_data(&mut self, line: LineAddr, data: LineData, still_shared: Option<NodeId>) {
        let DirState::PendingData {
            requester,
            for_write,
            owner: _,
        } = self.directory.entry(line).state
        else {
            // A duplicate data return after the grant already completed
            // (the owner answered both the original fetch and a retried
            // one). Memory is NOT refreshed: a newer writeback may already
            // have superseded this copy.
            self.stats.protocol_surprises += 1;
            return;
        };
        self.memory.insert(line, data);
        if for_write {
            self.directory.entry(line).state = DirState::Exclusive(requester);
            self.send(requester, ProtocolMsg::WriteReply { line, data });
        } else {
            let mut sharers: std::collections::BTreeSet<NodeId> = [requester].into_iter().collect();
            if let Some(owner) = still_shared {
                sharers.insert(owner);
            }
            self.directory.entry(line).state = DirState::Shared(sharers);
            self.send(requester, ProtocolMsg::ReadReply { line, data });
        }
        self.drain_waiting(line);
    }

    fn home_writeback(&mut self, line: LineAddr, data: LineData, from: NodeId) {
        match self.directory.entry(line).state {
            DirState::Exclusive(owner) if owner == from => {
                self.memory.insert(line, data);
                self.directory.entry(line).state = DirState::Uncached;
                self.drain_waiting(line);
            }
            DirState::PendingData { .. } => {
                // The writeback crossed a fetch we sent to `from`; it
                // serves as the owner's data return, with the owner's copy
                // gone. A FetchInv for a read grant thus degenerates to a
                // fresh shared grant.
                self.home_owner_data(line, data, None);
            }
            _ => {
                // A writeback for a line we no longer consider owned by
                // `from` cannot occur under this protocol's orderings on a
                // perfect network — under retries it shows up as a late
                // duplicate. Memory is NOT overwritten (the current grant
                // chain is authoritative); just count it.
                self.stats.protocol_surprises += 1;
            }
        }
        self.stats.writebacks += 1;
    }

    /// Serves deferred requests now that the line is stable again. Each
    /// call serves at most the prefix that keeps the line stable; the rest
    /// continue to wait.
    fn drain_waiting(&mut self, line: LineAddr) {
        loop {
            if !self.directory.entry(line).state.is_stable() {
                return;
            }
            let Some(req) = self.directory.entry(line).waiting.pop_front() else {
                return;
            };
            self.home_request(line, req.requester, req.write);
        }
    }

    // ---- Cache-role helpers ------------------------------------------

    /// Fills a granted line, performs the waiting operations it enables,
    /// and re-issues any queued write that still needs exclusivity.
    ///
    /// `exclusive_grant` says which reply kind delivered the fill. A read
    /// request only ever elicits `ReadReply` and a write request only
    /// `WriteReply`, so a reply whose kind does not match the MSHR's head
    /// operation can only be the duplicate of an *earlier, completed*
    /// transaction's retransmitted request — filling from it would plant a
    /// cache state the directory no longer accounts for (e.g. Modified
    /// here while another node legitimately holds the line Shared).
    fn fill_and_drain(
        &mut self,
        line: LineAddr,
        state: CacheState,
        data: LineData,
        exclusive_grant: bool,
    ) {
        let head_is_write = self
            .mshr
            .get(&line)
            .is_some_and(|e| matches!(e.pending.front(), Some((_, MemOp::Write(..)))));
        let Some(mut entry) = (head_is_write == exclusive_grant)
            .then(|| self.mshr.remove(&line))
            .flatten()
        else {
            // A grant we no longer wait for: the duplicate reply of a
            // retransmitted request (no MSHR, or one of the wrong kind).
            // The cache's (possibly newer) copy must not be clobbered
            // with this stale data — drop it.
            self.stats.stale_grants += 1;
            return;
        };
        if let Some(eviction) = self.cache.fill(line, state, data) {
            if let Some(dirty) = eviction.writeback {
                let home = self.home.home(eviction.line);
                let from = self.node;
                self.send(
                    home,
                    ProtocolMsg::Writeback {
                        line: eviction.line,
                        data: dirty,
                        from,
                    },
                );
            }
        }
        while let Some((txn, op)) = entry.pending.pop_front() {
            match op {
                MemOp::Read(addr) => {
                    let value = self
                        .cache
                        .read_word(addr)
                        .expect("line just filled must hit");
                    self.complete(txn, op, value, true);
                }
                MemOp::Write(addr, value) => {
                    if self.cache.write_word(addr, value) {
                        self.complete(txn, op, value, true);
                    } else {
                        // Shared fill cannot satisfy a write: re-issue an
                        // upgrade with this op at the head and keep the
                        // rest queued behind it. The upgrade is a fresh
                        // request, so its timeout clock starts over.
                        entry.pending.push_front((txn, op));
                        entry.attempts = 0;
                        entry.deadline = initial_deadline(&self.config, self.cycle);
                        let home = self.home.home(line);
                        let requester = self.node;
                        self.mshr.insert(line, entry);
                        self.send(home, ProtocolMsg::WriteReq { line, requester });
                        return;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Steps `ctrl` until its outbox yields a message or `budget` cycles
    /// pass, returning the message with the cycle it appeared on.
    fn next_outgoing(ctrl: &mut Controller, budget: u64) -> Option<(u64, NodeId, ProtocolMsg)> {
        for i in 0..budget {
            if let Some((dst, msg)) = ctrl.take_outgoing() {
                return Some((i, dst, msg));
            }
            ctrl.step();
        }
        ctrl.take_outgoing().map(|(dst, msg)| (budget, dst, msg))
    }

    #[test]
    fn abandon_recovers_the_op_and_drops_the_late_grant() {
        // Two-node home map so the miss leaves a request in flight; the
        // abandoned transaction's MSHR disappears, and a later grant for
        // the line is dropped through the stale-grant path.
        let mut ctrl = Controller::new(NodeId(0), HomeMap::interleaved(2), MemConfig::default());
        let addr = LineAddr(1).base(); // homed at node 1: a remote miss
        ctrl.request(TxnId(7), MemOp::Read(addr));
        let (_, dst, _) = next_outgoing(&mut ctrl, 100).expect("request leaves");
        assert_eq!(dst, NodeId(1));
        assert_eq!(ctrl.outstanding_transactions(), 1);
        let op = ctrl.abandon(TxnId(7)).expect("transaction is in flight");
        assert_eq!(op, MemOp::Read(addr));
        assert_eq!(ctrl.outstanding_transactions(), 0);
        assert_eq!(ctrl.stats().abandoned, 1);
        assert_eq!(ctrl.abandon(TxnId(7)), None, "second abandon finds nothing");
        // A grant now arriving for that line must be swallowed as stale.
        ctrl.deliver(ProtocolMsg::ReadReply {
            line: addr.line(),
            data: LineData::default(),
        });
        for _ in 0..100 {
            ctrl.step();
        }
        assert!(
            ctrl.poll_completion().is_none(),
            "no completion may surface"
        );
        assert_eq!(ctrl.stats().stale_grants, 1);
    }

    #[test]
    fn abandon_of_a_queued_follower_keeps_the_head_in_flight() {
        let mut ctrl = Controller::new(NodeId(0), HomeMap::interleaved(2), MemConfig::default());
        let addr = LineAddr(1).base();
        ctrl.request(TxnId(1), MemOp::Read(addr));
        ctrl.request(TxnId(2), MemOp::Read(addr));
        for _ in 0..100 {
            ctrl.step();
        }
        assert_eq!(ctrl.outstanding_transactions(), 1);
        assert_eq!(ctrl.abandon(TxnId(2)), Some(MemOp::Read(addr)));
        assert_eq!(
            ctrl.outstanding_transactions(),
            1,
            "the in-flight head must stay tracked"
        );
        ctrl.deliver(ProtocolMsg::ReadReply {
            line: addr.line(),
            data: LineData::default(),
        });
        for _ in 0..100 {
            ctrl.step();
        }
        let done = ctrl.poll_completion().expect("head completes");
        assert_eq!(done.txn, TxnId(1));
        assert!(ctrl.poll_completion().is_none(), "follower was abandoned");
    }

    #[test]
    fn local_write_makes_line_modified_and_reads_hit() {
        let mut ctrl = Controller::new(NodeId(0), HomeMap::interleaved(1), MemConfig::default());
        let addr = LineAddr(0).base();
        ctrl.request(TxnId(1), MemOp::Write(addr, 42));
        for _ in 0..100 {
            ctrl.step();
        }
        let done = ctrl.poll_completion().expect("write completed");
        assert!(done.miss, "cold write is a communication transaction");
        assert_eq!(ctrl.cache().state(LineAddr(0)), Some(CacheState::Modified));
        ctrl.request(TxnId(2), MemOp::Read(addr));
        for _ in 0..100 {
            ctrl.step();
        }
        let read = ctrl.poll_completion().expect("read completed");
        assert_eq!(read.value, 42);
        assert!(!read.miss, "read of a Modified line is a hit");
        assert_eq!(ctrl.stats().read_hits, 1);
        assert_eq!(ctrl.stats().write_misses, 1);
        assert_eq!(
            ctrl.stats().network_messages,
            0,
            "local home short-circuits"
        );
    }

    #[test]
    fn home_regrants_duplicate_write_request_idempotently() {
        // This controller is the home of LineAddr(0); NodeId(1) is a
        // remote requester whose WriteReply we pretend the network lost.
        let mut ctrl = Controller::new(NodeId(0), HomeMap::interleaved(2), MemConfig::default());
        let line = LineAddr(0);
        let requester = NodeId(1);
        ctrl.deliver(ProtocolMsg::WriteReq { line, requester });
        let (_, dst, msg) = next_outgoing(&mut ctrl, 100).expect("grant sent");
        assert_eq!(dst, requester);
        assert!(matches!(msg, ProtocolMsg::WriteReply { .. }));
        assert!(matches!(
            ctrl.directory().state(line),
            DirState::Exclusive(o) if o == requester
        ));
        // The retransmitted duplicate must be answered again, not treated
        // as a new transaction or asserted on.
        ctrl.deliver(ProtocolMsg::WriteReq { line, requester });
        let (_, dst, msg) = next_outgoing(&mut ctrl, 100).expect("re-grant sent");
        assert_eq!(dst, requester);
        assert!(matches!(msg, ProtocolMsg::WriteReply { .. }));
        assert_eq!(ctrl.stats().duplicate_requests, 1);
    }

    #[test]
    fn stale_grant_for_line_without_mshr_is_dropped() {
        let mut ctrl = Controller::new(NodeId(0), HomeMap::interleaved(2), MemConfig::default());
        // No request outstanding: this reply is the duplicate of an old,
        // completed transaction and must not plant cache state.
        ctrl.deliver(ProtocolMsg::ReadReply {
            line: LineAddr(1),
            data: LineData::default(),
        });
        for _ in 0..20 {
            ctrl.step();
        }
        assert_eq!(ctrl.stats().stale_grants, 1);
        assert_eq!(ctrl.cache().state(LineAddr(1)), None);
    }

    #[test]
    fn timeouts_retry_until_budget_then_leave_watchdog_to_report() {
        let config = MemConfig {
            timeout_cycles: 4,
            max_retries: 3,
            ..MemConfig::default()
        };
        // LineAddr(1) homes at the (absent) NodeId(1): the request leaves
        // through the outbox and no reply ever comes back.
        let mut ctrl = Controller::new(NodeId(0), HomeMap::interleaved(2), config);
        ctrl.request(TxnId(1), MemOp::Read(LineAddr(1).base()));
        let mut sends = Vec::new();
        for cycle in 0..10_000u64 {
            ctrl.step();
            while let Some((dst, msg)) = ctrl.take_outgoing() {
                assert_eq!(dst, NodeId(1));
                assert!(matches!(msg, ProtocolMsg::ReadReq { .. }));
                sends.push(cycle);
            }
        }
        assert_eq!(sends.len(), 4, "original send plus max_retries resends");
        assert_eq!(ctrl.stats().retries, 3);
        assert_eq!(ctrl.stats().timeouts, 4, "the exhausting timeout counts");
        assert_eq!(ctrl.stats().retries_exhausted, 1);
        assert_eq!(ctrl.outstanding_transactions(), 1, "left for the watchdog");
    }

    #[test]
    fn next_wake_and_advance_agree_with_stepping() {
        let config = MemConfig {
            timeout_cycles: 8,
            max_retries: 3,
            ..MemConfig::default()
        };
        // Two remote lines that never get a reply: the second request
        // waits behind the first one's occupancy, then the controller
        // sleeps between retries with an armed deadline.
        let run = |bulk: bool| {
            let mut ctrl = Controller::new(NodeId(0), HomeMap::interleaved(2), config);
            ctrl.request(TxnId(1), MemOp::Read(LineAddr(1).base()));
            ctrl.request(TxnId(2), MemOp::Read(LineAddr(3).base()));
            let mut sends = Vec::new();
            let mut now = 0u64;
            while now < 2_000 {
                if bulk {
                    // Jump the pure ticks ahead; the next real step then
                    // pops the waiting work or fires the deadline on
                    // time. Once the retry budget is spent the span is
                    // unbounded: nothing is left to observe.
                    let span = ctrl.next_wake().unwrap_or(u64::MAX).min(2_000 - now);
                    if span > 0 {
                        ctrl.advance(span);
                        now += span;
                        continue;
                    }
                }
                ctrl.step();
                now += 1;
                while let Some((_, msg)) = ctrl.take_outgoing() {
                    sends.push((ctrl.local_cycle(), msg));
                }
            }
            (sends, ctrl.stats().clone(), ctrl.local_cycle())
        };
        let (sends_bulk, stats_bulk, cycle_bulk) = run(true);
        let (sends_step, stats_step, cycle_step) = run(false);
        assert_eq!(cycle_bulk, cycle_step);
        assert_eq!(sends_bulk, sends_step, "resends must fire on time");
        assert_eq!(stats_bulk.retries, 2 * config.max_retries as u64);
        assert_eq!(stats_bulk, stats_step);
    }

    #[test]
    fn dormancy_predicates_track_queue_state() {
        let mut ctrl = Controller::new(NodeId(0), HomeMap::interleaved(1), MemConfig::default());
        assert_eq!(ctrl.next_wake(), None, "nothing queued");
        assert_eq!(ctrl.next_deadline(), None, "timeouts disabled by default");
        ctrl.request(TxnId(1), MemOp::Write(LineAddr(0).base(), 7));
        assert_eq!(ctrl.next_wake(), Some(0), "the next step pops the request");
        ctrl.step();
        // The local miss's request to its own home waits behind the
        // miss's `processing_cycles` of occupancy.
        assert_eq!(ctrl.next_wake(), Some(1));
        for _ in 0..100 {
            ctrl.step();
        }
        // A completion still queued keeps the controller awake.
        assert_eq!(ctrl.next_wake(), Some(0));
        ctrl.poll_completion().expect("write completed");
        assert_eq!(ctrl.next_wake(), None);
    }

    #[test]
    #[should_panic(expected = "past a pure-tick span")]
    fn advance_with_queued_work_panics() {
        let mut ctrl = Controller::new(NodeId(0), HomeMap::interleaved(1), MemConfig::default());
        ctrl.request(TxnId(1), MemOp::Read(LineAddr(0).base()));
        ctrl.advance(5);
    }

    #[test]
    fn advance_through_any_pure_span_matches_stepping() {
        use commloc_net::DetRng;
        // Drawn occupancy (processing 1-6, memory 0-12 cycles), timeouts
        // on or off, on a rig of two or three controllers whose transport
        // has a drawn latency and, with timeouts, drops messages. At
        // drawn cycles one controller forks: for every j within the span
        // `next_wake` reports, `advance(j)` must leave the state `j` steps
        // leave, and both forks, fed the same deliveries and requests,
        // must then emit the same messages and completions for 50 steps.
        let mut forks = [0u32; 4];
        for seed in 0..120u64 {
            let mut rng = DetRng::new(seed);
            let timeouts = rng.chance(0.5);
            let config = MemConfig {
                processing_cycles: 1 + rng.index(6) as u32,
                memory_cycles: rng.index(13) as u32,
                cache_lines: 2 + rng.index(4),
                timeout_cycles: if timeouts {
                    5 + rng.index(40) as u32
                } else {
                    0
                },
                max_retries: rng.index(4) as u32,
                ..MemConfig::default()
            };
            let drop_rate = if timeouts { 0.1 } else { 0.0 };
            let latency = rng.range_u64(1, 13);
            let nodes = 2 + rng.index(2);
            let home = Arc::new(HomeMap::interleaved(nodes));
            let mut ctrls: Vec<Controller> = (0..nodes)
                .map(|n| Controller::new(NodeId(n), Arc::clone(&home), config))
                .collect();
            let mut in_flight: Vec<(u64, NodeId, ProtocolMsg)> = Vec::new();
            let mut next_txn = 0u64;
            for now in 0..300u64 {
                deliver_due(&mut ctrls, &mut in_flight, now);
                for (n, ctrl) in ctrls.iter_mut().enumerate() {
                    if rng.chance(0.08) {
                        ctrl.request(TxnId(next_txn), drawn_op(&mut rng, n as u64));
                        next_txn += 1;
                    }
                    ctrl.step();
                    while let Some((dst, msg)) = ctrl.take_outgoing() {
                        if !rng.chance(drop_rate) {
                            in_flight.push((now + latency, dst, msg));
                        }
                    }
                    while ctrl.poll_completion().is_some() {}
                }
                if !rng.chance(0.1) {
                    continue;
                }
                let n = rng.index(nodes);
                let ctrl = &ctrls[n];
                let span = ctrl.next_wake();
                let capped = ctrl
                    .next_deadline()
                    .is_some_and(|d| span == Some(d.saturating_sub(ctrl.cycle + 1)));
                forks[match span {
                    None => 0,
                    Some(0) => 1,
                    Some(_) if capped => 2,
                    Some(_) => 3,
                }] += 1;
                // Spans are cut where the test stops looking.
                for j in 1..=span.unwrap_or(u64::MAX).min(24) {
                    let (mut bulk, mut stepped) = (ctrl.clone(), ctrl.clone());
                    bulk.advance(j);
                    for _ in 0..j {
                        stepped.step();
                        assert!(
                            stepped.take_outgoing().is_none() && stepped.completions.is_empty(),
                            "seed {seed}: a pure tick acted"
                        );
                    }
                    assert_eq!(
                        format!("{bulk:?}"),
                        format!("{stepped:?}"),
                        "seed {seed} cycle {now}: advance({j}) of a {span:?}-tick span"
                    );
                    // Later inputs: the messages in flight to this node,
                    // held back to the end of the span, and fresh requests.
                    let mut inputs: Vec<(u64, NodeId, ProtocolMsg)> = in_flight
                        .iter()
                        .filter(|&&(_, dst, _)| dst.0 == n)
                        .map(|&(due, dst, msg)| (due.max(now + j + 1), dst, msg))
                        .collect();
                    let mut pair = [bulk, stepped];
                    let mut fresh = DetRng::new(seed ^ now);
                    for later in now + j + 1..now + j + 51 {
                        let op = fresh.chance(0.2).then(|| drawn_op(&mut fresh, n as u64));
                        let emitted = pair.each_mut().map(|fork| {
                            let mut feed = inputs.clone();
                            deliver_due(std::slice::from_mut(fork), &mut feed, later);
                            if let Some(op) = op {
                                fork.request(TxnId(u64::MAX - later), op);
                            }
                            fork.step();
                            let sent: Vec<_> =
                                std::iter::from_fn(|| fork.take_outgoing()).collect();
                            let done: Vec<_> =
                                std::iter::from_fn(|| fork.poll_completion()).collect();
                            (sent, done)
                        });
                        inputs.retain(|&(due, ..)| due > later);
                        assert_eq!(
                            emitted[0], emitted[1],
                            "seed {seed}: forks diverged at cycle {later}"
                        );
                    }
                }
            }
        }
        // Every kind of span was drawn and checked.
        assert!(forks.iter().all(|&k| k > 200), "forks by span: {forks:?}");
    }

    /// A drawn read or write by node `n` on one of six lines (shared
    /// among the rig's nodes, homed across them).
    fn drawn_op(rng: &mut commloc_net::DetRng, n: u64) -> MemOp {
        let addr = LineAddr(rng.range_u64(0, 6)).base();
        if rng.chance(0.5) {
            MemOp::Read(addr)
        } else {
            MemOp::Write(addr, n)
        }
    }

    /// Delivers the messages due by `now` to their controllers (indexed
    /// from the first controller's node), in the order they were sent.
    fn deliver_due(
        ctrls: &mut [Controller],
        in_flight: &mut Vec<(u64, NodeId, ProtocolMsg)>,
        now: u64,
    ) {
        let base = ctrls[0].node.0;
        in_flight.retain(|&(due, dst, msg)| {
            if due > now {
                return true;
            }
            ctrls[dst.0 - base].deliver(msg);
            false
        });
    }

    #[test]
    fn retry_backoff_doubles_and_caps() {
        let config = MemConfig {
            timeout_cycles: 1,
            max_retries: 10,
            ..MemConfig::default()
        };
        let mut ctrl = Controller::new(NodeId(0), HomeMap::interleaved(2), config);
        ctrl.request(TxnId(1), MemOp::Read(LineAddr(1).base()));
        let mut sends = Vec::new();
        for cycle in 0..10_000u64 {
            ctrl.step();
            while ctrl.take_outgoing().is_some() {
                sends.push(cycle);
            }
        }
        assert_eq!(sends.len(), 11, "original send plus max_retries resends");
        let gaps: Vec<u64> = sends.windows(2).map(|w| w[1] - w[0]).collect();
        let cap = u64::from(config.timeout_cycles) << MAX_BACKOFF_SHIFT;
        assert!(
            gaps.windows(2).all(|w| w[0] <= w[1]),
            "backoff must not shrink: {gaps:?}"
        );
        assert!(
            gaps.iter().all(|&g| g <= cap),
            "backoff must cap at {cap}: {gaps:?}"
        );
        assert_eq!(
            *gaps.last().unwrap(),
            cap,
            "late retries run at the capped backoff"
        );
    }
}
