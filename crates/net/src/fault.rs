//! Deterministic fault injection for the fabric.
//!
//! A [`FaultPlan`] describes the disturbances a fabric run should suffer:
//!
//! * **message drops** — with probability `drop_rate`, a message whose
//!   head flit crosses a link is destroyed; the rest of its worm drains
//!   into the faulty link and evaporates (nothing reaches the
//!   destination, buffers and credits stay consistent);
//! * **payload corruption** — with probability `corrupt_rate`, a link
//!   crossing flips the message's checksum, so the delivery arrives
//!   flagged as corrupt ([`Message::is_intact`](crate::Message::is_intact)
//!   fails);
//! * **transient stalls** — a link or a whole router stops forwarding for
//!   a bounded window (a one-off delay in the sense of Afzal et al.),
//!   either at random (`stall_rate`) or at a scheduled cycle;
//! * **permanent link kills** — a link stops forwarding forever; traffic
//!   routed across it wedges and must be caught by a watchdog upstream.
//!
//! Every probabilistic roll is a **stateless** draw: the decision is a
//! pure function of `(seed, kind, cycle, node, port, message)`, hashed
//! into a one-shot [`DetRng`]. No shared generator state means the rolls
//! are independent of the order the fabric visits nodes in — which is
//! what lets the shard-parallel engine roll faults locally per shard and
//! still reproduce the single-shard run bit for bit. A given seed, plan,
//! and workload reproduce the exact same [`FaultLog`] cycle for cycle.
//! Every injected fault is recorded in the log; tests use it to assert
//! *message conservation*: no message disappears without a logged cause.

use crate::rng::DetRng;
use crate::topology::{link_to_port, port_to_link, Direction, NodeId};
use crate::MessageId;
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// Probabilistic fault rates applied to every head-flit link crossing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability that a message is dropped at a link crossing.
    pub drop_rate: f64,
    /// Probability that a link crossing corrupts the message payload.
    pub corrupt_rate: f64,
    /// Probability that a link crossing leaves the link transiently
    /// stalled.
    pub stall_rate: f64,
    /// Length (cycles) of a randomly injected link stall.
    pub stall_window: u64,
}

impl Default for FaultConfig {
    /// No probabilistic faults.
    fn default() -> Self {
        Self {
            drop_rate: 0.0,
            corrupt_rate: 0.0,
            stall_rate: 0.0,
            stall_window: 64,
        }
    }
}

/// A fault plan whose schedule cannot be honoured by the intended run:
/// events placed at or past the run horizon would silently never take
/// effect (a stall that begins on the final cycle disturbs nothing).
///
/// Returned by [`FaultPlan::validate_horizon`]; lists every offending
/// event so the caller can fix the plan (or the horizon) in one pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlanError {
    /// The run horizon (network cycles) the plan was validated against.
    pub horizon: u64,
    /// The unreachable events as `(scheduled cycle, description)` pairs,
    /// earliest first.
    pub events: Vec<(u64, String)>,
}

impl FaultPlanError {
    /// The smallest horizon under which every offending event would fire
    /// with at least one cycle left to act.
    pub fn min_horizon(&self) -> u64 {
        self.events
            .iter()
            .map(|&(cycle, _)| cycle)
            .max()
            .map_or(0, |cycle| cycle.saturating_add(1))
    }
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fault plan schedules {} event(s) at or past the run horizon of {} cycles, \
             so they would silently never take effect: ",
            self.events.len(),
            self.horizon
        )?;
        let listed: Vec<String> = self
            .events
            .iter()
            .map(|(cycle, what)| format!("{what} at cycle {cycle}"))
            .collect();
        write!(
            f,
            "{} (did you mean a horizon of at least {}?)",
            listed.join(", "),
            self.min_horizon()
        )
    }
}

impl std::error::Error for FaultPlanError {}

/// A fault scheduled for a specific cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScheduledFault {
    KillLink {
        node: usize,
        port: usize,
    },
    StallLink {
        node: usize,
        port: usize,
        window: u64,
    },
    StallRouter {
        node: usize,
        window: u64,
    },
}

/// One injected fault, as recorded in the [`FaultLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// A message was destroyed at a link crossing.
    MessageDropped {
        /// Cycle of the head-flit crossing that doomed the message.
        cycle: u64,
        /// The dropped message.
        message: MessageId,
        /// Router whose output link dropped it.
        node: NodeId,
        /// Output link port index.
        port: usize,
    },
    /// A message's payload checksum was flipped at a link crossing.
    PayloadCorrupted {
        /// Cycle of the corrupting crossing.
        cycle: u64,
        /// The corrupted message.
        message: MessageId,
        /// Router whose output link corrupted it.
        node: NodeId,
        /// Output link port index.
        port: usize,
    },
    /// A link was permanently killed.
    LinkKilled {
        /// Cycle the kill took effect.
        cycle: u64,
        /// Router owning the output link.
        node: NodeId,
        /// Output link port index.
        port: usize,
    },
    /// A link was transiently stalled.
    LinkStalled {
        /// Cycle the stall began.
        cycle: u64,
        /// Router owning the output link.
        node: NodeId,
        /// Output link port index.
        port: usize,
        /// First cycle at which the link forwards again.
        until: u64,
    },
    /// A whole router was transiently stalled.
    RouterStalled {
        /// Cycle the stall began.
        cycle: u64,
        /// The stalled router.
        node: NodeId,
        /// First cycle at which the router forwards again.
        until: u64,
    },
}

impl FaultEvent {
    /// The cycle at which the fault was injected.
    pub fn cycle(&self) -> u64 {
        match *self {
            FaultEvent::MessageDropped { cycle, .. }
            | FaultEvent::PayloadCorrupted { cycle, .. }
            | FaultEvent::LinkKilled { cycle, .. }
            | FaultEvent::LinkStalled { cycle, .. }
            | FaultEvent::RouterStalled { cycle, .. } => cycle,
        }
    }
}

/// The complete record of injected faults, in injection order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultLog {
    events: Vec<FaultEvent>,
    /// Per-event ordering class, parallel to `events`: scheduled
    /// activations sort before probabilistic rolls within a cycle. Both
    /// engines fill this identically; it exists so [`FaultLog::merge`]
    /// can interleave per-shard logs back into the exact single-shard
    /// order.
    classes: Vec<u8>,
}

/// Ordering class of a scheduled activation (fires at the top of the
/// cycle, before any switch traversal).
const CLASS_SCHEDULED: u8 = 0;
/// Ordering class of a probabilistic roll (fires during switch
/// traversal, in ascending node/port order).
const CLASS_ROLL: u8 = 1;

impl FaultLog {
    /// All events, oldest first.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of recorded faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no fault has been injected.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The most recent `n` events (diagnostic dumps).
    pub fn tail(&self, n: usize) -> &[FaultEvent] {
        &self.events[self.events.len().saturating_sub(n)..]
    }

    /// Messages dropped so far.
    pub fn dropped_messages(&self) -> u64 {
        self.count(|e| matches!(e, FaultEvent::MessageDropped { .. }))
    }

    /// Messages corrupted so far.
    pub fn corrupted_messages(&self) -> u64 {
        self.count(|e| matches!(e, FaultEvent::PayloadCorrupted { .. }))
    }

    fn count(&self, pred: impl Fn(&FaultEvent) -> bool) -> u64 {
        self.events.iter().filter(|e| pred(e)).count() as u64
    }

    fn push(&mut self, event: FaultEvent, class: u8) {
        self.events.push(event);
        self.classes.push(class);
    }

    /// The deterministic global ordering key of event `i`: within a
    /// cycle, scheduled activations come first, then rolls, both in
    /// ascending `(node, port, kind)` order — exactly the order a
    /// single-shard run logs them in.
    fn sort_key(&self, i: usize) -> (u64, u8, usize, usize, u8) {
        let (node, port, kind) = event_site(&self.events[i]);
        (self.events[i].cycle(), self.classes[i], node, port, kind)
    }

    /// Merges per-shard logs back into the order a single-shard run
    /// would have produced.
    ///
    /// Each shard rolls faults only for links it owns, so any two events
    /// with the same ordering key come from the same shard and their
    /// relative order is already correct; a stable k-way merge on the
    /// key therefore reconstructs the global log exactly (asserted by
    /// the sharded-equivalence tests).
    pub fn merge<'a>(logs: impl IntoIterator<Item = &'a FaultLog>) -> FaultLog {
        let logs: Vec<&FaultLog> = logs.into_iter().collect();
        let mut order: Vec<(usize, usize)> = Vec::new();
        for (li, log) in logs.iter().enumerate() {
            order.extend((0..log.events.len()).map(|i| (li, i)));
        }
        order.sort_by_key(|&(li, i)| logs[li].sort_key(i));
        let mut merged = FaultLog::default();
        for (li, i) in order {
            merged.push(logs[li].events[i], logs[li].classes[i]);
        }
        merged
    }
}

/// The `(node, port, kind-rank)` an event is keyed on for deterministic
/// ordering. Router-wide events use `usize::MAX` as their port so they
/// sort after that node's per-link events.
fn event_site(event: &FaultEvent) -> (usize, usize, u8) {
    match *event {
        FaultEvent::PayloadCorrupted { node, port, .. } => (node.0, port, 0),
        FaultEvent::MessageDropped { node, port, .. } => (node.0, port, 1),
        FaultEvent::LinkStalled { node, port, .. } => (node.0, port, 2),
        FaultEvent::LinkKilled { node, port, .. } => (node.0, port, 3),
        FaultEvent::RouterStalled { node, .. } => (node.0, usize::MAX, 4),
    }
}

/// A deterministic, seedable fault-injection plan for one fabric run.
///
/// Built with the fluent constructors, then handed to
/// [`Fabric::with_fault_plan`](crate::Fabric::with_fault_plan). The plan
/// owns the [`FaultLog`]; retrieve it through
/// [`Fabric::fault_log`](crate::Fabric::fault_log).
///
/// # Examples
///
/// ```
/// use commloc_net::fault::FaultPlan;
///
/// let plan = FaultPlan::new(1992)
///     .with_drop_rate(0.01)
///     .stall_router_at(5_000, 12, 300) // one-off delay at node 12
///     .kill_link_at(20_000, 3, 0, commloc_net::Direction::Plus);
/// assert_eq!(plan.seed(), 1992);
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    config: FaultConfig,
    schedule: Vec<(u64, ScheduledFault)>,
    killed: BTreeSet<(usize, usize)>,
    /// Stalled links, mapped to the first cycle they forward again.
    link_stalls: HashMap<(usize, usize), u64>,
    /// Stalled routers, mapped to the first cycle they forward again.
    router_stalls: HashMap<usize, u64>,
    log: FaultLog,
}

impl FaultPlan {
    /// Creates an empty plan (no faults) seeded for determinism.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            config: FaultConfig::default(),
            schedule: Vec::new(),
            killed: BTreeSet::new(),
            link_stalls: HashMap::new(),
            router_stalls: HashMap::new(),
            log: FaultLog::default(),
        }
    }

    /// The seed this plan was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The probabilistic fault rates.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Sets the whole probabilistic configuration.
    pub fn with_config(mut self, config: FaultConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the per-crossing message drop probability.
    pub fn with_drop_rate(mut self, rate: f64) -> Self {
        self.config.drop_rate = rate;
        self
    }

    /// Sets the per-crossing payload corruption probability.
    pub fn with_corrupt_rate(mut self, rate: f64) -> Self {
        self.config.corrupt_rate = rate;
        self
    }

    /// Sets the per-crossing transient link stall probability and window.
    pub fn with_stall_rate(mut self, rate: f64, window: u64) -> Self {
        self.config.stall_rate = rate;
        self.config.stall_window = window;
        self
    }

    /// Schedules the permanent death of the link leaving `node` in
    /// dimension `dim`, direction `dir`, at `cycle`.
    pub fn kill_link_at(mut self, cycle: u64, node: usize, dim: u32, dir: Direction) -> Self {
        let port = link_to_port(dim, dir);
        self.schedule
            .push((cycle, ScheduledFault::KillLink { node, port }));
        self
    }

    /// Schedules a transient stall of the link leaving `node` in
    /// dimension `dim`, direction `dir`: no forwarding for `window`
    /// cycles starting at `cycle`.
    pub fn stall_link_at(
        mut self,
        cycle: u64,
        node: usize,
        dim: u32,
        dir: Direction,
        window: u64,
    ) -> Self {
        let port = link_to_port(dim, dir);
        self.schedule
            .push((cycle, ScheduledFault::StallLink { node, port, window }));
        self
    }

    /// Schedules a transient stall of `node`'s entire router: no
    /// forwarding on any output for `window` cycles starting at `cycle` —
    /// the one-off injected delay of the propagation experiment.
    pub fn stall_router_at(mut self, cycle: u64, node: usize, window: u64) -> Self {
        self.schedule
            .push((cycle, ScheduledFault::StallRouter { node, window }));
        self
    }

    /// Checks that every scheduled event fires strictly before `horizon`
    /// (the number of network cycles the run will execute). Events at or
    /// past the horizon used to be dropped silently — a typoed injection
    /// cycle ran a clean experiment and reported nothing wrong.
    ///
    /// # Errors
    ///
    /// Returns a [`FaultPlanError`] listing every unreachable event,
    /// earliest first, with the minimum horizon that would cover them.
    pub fn validate_horizon(&self, horizon: u64) -> Result<(), FaultPlanError> {
        let mut events: Vec<(u64, String)> = self
            .schedule
            .iter()
            .filter(|&&(at, _)| at >= horizon)
            .map(|&(at, fault)| (at, describe(fault)))
            .collect();
        if events.is_empty() {
            return Ok(());
        }
        events.sort();
        Err(FaultPlanError { horizon, events })
    }

    /// A canonical, collision-resistant rendering of everything that
    /// determines this plan's behaviour: seed, probabilistic rates (as
    /// exact `f64` bit patterns, so `0.1` and `0.1 + 1e-18` never alias),
    /// and the scheduled events in insertion order. Two plans with equal
    /// descriptions inject bit-identical fault sequences; the `commloc
    /// serve` result cache keys on this. Runtime state (already-fired
    /// stalls, the log) is deliberately excluded — plans are canonicalized
    /// before installation.
    pub fn canonical_description(&self) -> String {
        let mut out = format!(
            "seed={};drop={:016x};corrupt={:016x};stall={:016x};stall_window={}",
            self.seed,
            self.config.drop_rate.to_bits(),
            self.config.corrupt_rate.to_bits(),
            self.config.stall_rate.to_bits(),
            self.config.stall_window,
        );
        for &(cycle, fault) in &self.schedule {
            out.push(';');
            out.push_str(&match fault {
                ScheduledFault::KillLink { node, port } => {
                    format!("kill@{cycle}:n{node}p{port}")
                }
                ScheduledFault::StallLink { node, port, window } => {
                    format!("stall-link@{cycle}:n{node}p{port}w{window}")
                }
                ScheduledFault::StallRouter { node, window } => {
                    format!("stall-router@{cycle}:n{node}w{window}")
                }
            });
        }
        out
    }

    /// The record of faults injected so far.
    pub fn log(&self) -> &FaultLog {
        &self.log
    }

    /// Whether any transient (bounded) stall is still pending or active at
    /// `cycle` — used by watchdogs to tell recoverable backpressure from
    /// true deadlock.
    pub fn transient_stall_active(&self, cycle: u64) -> bool {
        self.link_stalls.values().any(|&until| until > cycle)
            || self.router_stalls.values().any(|&until| until > cycle)
            || self.schedule.iter().any(|&(at, fault)| {
                at.saturating_add(match fault {
                    ScheduledFault::StallLink { window, .. }
                    | ScheduledFault::StallRouter { window, .. } => window,
                    ScheduledFault::KillLink { .. } => 0,
                }) > cycle
                    && matches!(
                        fault,
                        ScheduledFault::StallLink { .. } | ScheduledFault::StallRouter { .. }
                    )
            })
    }

    /// Whether the plan contains permanent faults (killed links).
    pub fn has_permanent_faults(&self) -> bool {
        !self.killed.is_empty()
            || self
                .schedule
                .iter()
                .any(|(_, f)| matches!(f, ScheduledFault::KillLink { .. }))
    }

    /// The earliest cycle strictly after `cycle` at which a scheduled
    /// fault fires, if any. The fabric's idle fast-forward uses this to
    /// land on every scheduled kill/stall at its exact cycle instead of
    /// skipping over it.
    pub(crate) fn next_scheduled(&self, cycle: u64) -> Option<u64> {
        self.schedule
            .iter()
            .map(|&(at, _)| at)
            .filter(|&at| at > cycle)
            .min()
    }

    // ---- Fabric-facing hooks -----------------------------------------

    /// Applies scheduled faults due at `cycle` and expires finished
    /// stalls. Same-cycle events fire in ascending `(node, port, kind)`
    /// order — a canonical order independent of how the schedule was
    /// built or previously filtered, so per-shard plans activate their
    /// subsets in the same relative order the whole plan would.
    ///
    /// A plan with nothing scheduled and no stall standing (a plan that
    /// only drops messages, say) has nothing to do, and returns at once:
    /// the fabric calls this on every cycle, idle ticks included.
    pub(crate) fn activate(&mut self, cycle: u64) {
        if self.schedule.is_empty() && self.link_stalls.is_empty() && self.router_stalls.is_empty()
        {
            return;
        }
        let mut due: Vec<ScheduledFault> = Vec::new();
        self.schedule.retain(|&(at, fault)| {
            if at == cycle {
                due.push(fault);
                false
            } else {
                true
            }
        });
        due.sort_by_key(scheduled_key);
        for fault in due {
            match fault {
                ScheduledFault::KillLink { node, port } => {
                    self.killed.insert((node, port));
                    self.log.push(
                        FaultEvent::LinkKilled {
                            cycle,
                            node: NodeId(node),
                            port,
                        },
                        CLASS_SCHEDULED,
                    );
                }
                ScheduledFault::StallLink { node, port, window } => {
                    let until = cycle.saturating_add(window);
                    self.link_stalls.insert((node, port), until);
                    self.log.push(
                        FaultEvent::LinkStalled {
                            cycle,
                            node: NodeId(node),
                            port,
                            until,
                        },
                        CLASS_SCHEDULED,
                    );
                }
                ScheduledFault::StallRouter { node, window } => {
                    let until = cycle.saturating_add(window);
                    self.router_stalls.insert(node, until);
                    self.log.push(
                        FaultEvent::RouterStalled {
                            cycle,
                            node: NodeId(node),
                            until,
                        },
                        CLASS_SCHEDULED,
                    );
                }
            }
        }
        self.link_stalls.retain(|_, &mut until| until > cycle);
        self.router_stalls.retain(|_, &mut until| until > cycle);
    }

    /// Whether the output link `(node, port)` may forward at `cycle`.
    pub(crate) fn link_blocked(&self, cycle: u64, node: usize, port: usize) -> bool {
        self.killed.contains(&(node, port))
            || self
                .link_stalls
                .get(&(node, port))
                .is_some_and(|&until| cycle < until)
            || self.router_stalled(cycle, node)
    }

    /// Whether the whole router of `node` is stalled at `cycle`.
    pub(crate) fn router_stalled(&self, cycle: u64, node: usize) -> bool {
        self.router_stalls
            .get(&node)
            .is_some_and(|&until| cycle < until)
    }

    /// One-shot generator for a probabilistic roll: a pure function of
    /// the plan seed and the roll's coordinates, so the outcome does not
    /// depend on how many rolls happened before it (or on which shard
    /// performs it).
    fn roll_rng(&self, kind: u64, cycle: u64, node: usize, port: usize, message: u64) -> DetRng {
        let mut h = self.seed ^ 0xFA17_FA17_FA17_FA17;
        for word in [kind, cycle, node as u64, port as u64, message] {
            h = (h ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 29;
        }
        DetRng::new(h)
    }

    /// Rolls the drop die for a head-flit crossing; logs and returns
    /// `true` when the message is to be destroyed.
    pub(crate) fn roll_drop(
        &mut self,
        cycle: u64,
        node: usize,
        port: usize,
        message: MessageId,
    ) -> bool {
        if self.config.drop_rate <= 0.0
            || !self
                .roll_rng(1, cycle, node, port, message.0)
                .chance(self.config.drop_rate)
        {
            return false;
        }
        self.log.push(
            FaultEvent::MessageDropped {
                cycle,
                message,
                node: NodeId(node),
                port,
            },
            CLASS_ROLL,
        );
        true
    }

    /// Rolls the corruption die for a head-flit crossing; logs and
    /// returns a nonzero checksum mask when the payload is corrupted.
    pub(crate) fn roll_corrupt(
        &mut self,
        cycle: u64,
        node: usize,
        port: usize,
        message: MessageId,
    ) -> Option<u64> {
        if self.config.corrupt_rate <= 0.0 {
            return None;
        }
        let mut rng = self.roll_rng(2, cycle, node, port, message.0);
        if !rng.chance(self.config.corrupt_rate) {
            return None;
        }
        self.log.push(
            FaultEvent::PayloadCorrupted {
                cycle,
                message,
                node: NodeId(node),
                port,
            },
            CLASS_ROLL,
        );
        Some(rng.next_u64() | 1)
    }

    /// Rolls the transient-stall die for a head-flit crossing; the link
    /// stops forwarding from the next cycle when it hits.
    pub(crate) fn roll_stall(&mut self, cycle: u64, node: usize, port: usize) {
        if self.config.stall_rate <= 0.0
            || !self
                .roll_rng(3, cycle, node, port, 0)
                .chance(self.config.stall_rate)
        {
            return;
        }
        // Saturating: a `u64::MAX` window never expires.
        let until = cycle
            .saturating_add(1)
            .saturating_add(self.config.stall_window);
        self.link_stalls.insert((node, port), until);
        self.log.push(
            FaultEvent::LinkStalled {
                cycle,
                node: NodeId(node),
                port,
                until,
            },
            CLASS_ROLL,
        );
    }

    /// The sub-plan a shard owning nodes `[base, base + owned)` should
    /// run with: scheduled faults and standing state restricted to links
    /// the shard arbitrates. Probabilistic rolls need no restriction —
    /// they are stateless and each shard only rolls for its own links —
    /// so the rates carry over unchanged. The log starts empty; merge
    /// shard logs back with [`FaultLog::merge`].
    pub fn restrict(&self, base: usize, owned: usize) -> FaultPlan {
        let mine = |node: usize| node >= base && node < base + owned;
        FaultPlan {
            seed: self.seed,
            config: self.config,
            schedule: self
                .schedule
                .iter()
                .filter(|&&(_, f)| {
                    mine(match f {
                        ScheduledFault::KillLink { node, .. }
                        | ScheduledFault::StallLink { node, .. }
                        | ScheduledFault::StallRouter { node, .. } => node,
                    })
                })
                .copied()
                .collect(),
            killed: self
                .killed
                .iter()
                .filter(|&&(node, _)| mine(node))
                .copied()
                .collect(),
            link_stalls: self
                .link_stalls
                .iter()
                .filter(|&(&(node, _), _)| mine(node))
                .map(|(&k, &v)| (k, v))
                .collect(),
            router_stalls: self
                .router_stalls
                .iter()
                .filter(|&(&node, _)| mine(node))
                .map(|(&k, &v)| (k, v))
                .collect(),
            log: FaultLog::default(),
        }
    }
}

/// The canonical firing order of same-cycle scheduled faults:
/// ascending `(node, port, kind)`, router-wide events after that node's
/// per-link events — matching [`event_site`] so merged logs sort
/// identically.
fn scheduled_key(fault: &ScheduledFault) -> (usize, usize, u8) {
    match *fault {
        ScheduledFault::StallLink { node, port, .. } => (node, port, 2),
        ScheduledFault::KillLink { node, port } => (node, port, 3),
        ScheduledFault::StallRouter { node, .. } => (node, usize::MAX, 4),
    }
}

/// Human-readable description of a scheduled fault for error listings.
fn describe(fault: ScheduledFault) -> String {
    let link = |port: usize| {
        let (dim, dir) = port_to_link(port);
        format!(
            "dim {dim} {}",
            if dir == Direction::Plus { '+' } else { '-' }
        )
    };
    match fault {
        ScheduledFault::KillLink { node, port } => {
            format!("kill-link node {node} {}", link(port))
        }
        ScheduledFault::StallLink { node, port, window } => {
            format!("stall-link node {node} {} for {window}", link(port))
        }
        ScheduledFault::StallRouter { node, window } => {
            format!("stall-router node {node} for {window}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduled_faults_fire_once_at_their_cycle() {
        let mut plan = FaultPlan::new(1)
            .kill_link_at(10, 3, 0, Direction::Plus)
            .stall_router_at(10, 5, 20);
        plan.activate(9);
        assert!(plan.log().is_empty());
        plan.activate(10);
        assert_eq!(plan.log().len(), 2);
        assert!(plan.link_blocked(10, 3, 0));
        assert!(plan.router_stalled(10, 5));
        assert!(plan.router_stalled(29, 5));
        plan.activate(30);
        assert!(!plan.router_stalled(30, 5));
        // The kill is permanent.
        assert!(plan.link_blocked(1_000_000, 3, 0));
        plan.activate(31);
        assert_eq!(plan.log().len(), 2, "faults fire exactly once");
    }

    #[test]
    fn router_stall_blocks_all_its_links() {
        let mut plan = FaultPlan::new(2).stall_router_at(5, 7, 10);
        plan.activate(5);
        for port in 0..4 {
            assert!(plan.link_blocked(6, 7, port));
        }
        assert!(!plan.link_blocked(6, 8, 0));
    }

    #[test]
    fn probabilistic_rolls_are_seed_deterministic() {
        let roll = |seed| {
            let mut plan = FaultPlan::new(seed)
                .with_drop_rate(0.3)
                .with_corrupt_rate(0.3);
            let decisions: Vec<bool> = (0..64)
                .map(|i| plan.roll_drop(i, 0, 0, MessageId(i)))
                .collect();
            (decisions, plan.log().clone())
        };
        assert_eq!(roll(9), roll(9));
        assert_ne!(roll(9).0, roll(10).0);
    }

    #[test]
    fn transient_stall_visibility_for_watchdogs() {
        let mut plan = FaultPlan::new(3).stall_router_at(100, 0, 50);
        // Pending scheduled stalls count as "transient activity".
        assert!(plan.transient_stall_active(0));
        plan.activate(100);
        assert!(plan.transient_stall_active(120));
        assert!(!plan.transient_stall_active(150));
        let killed = FaultPlan::new(4).kill_link_at(5, 0, 0, Direction::Minus);
        assert!(!killed.transient_stall_active(0), "kills are not transient");
        assert!(killed.has_permanent_faults());
    }

    #[test]
    fn validate_horizon_accepts_reachable_schedules() {
        let plan = FaultPlan::new(6)
            .kill_link_at(100, 3, 0, Direction::Plus)
            .stall_router_at(4_999, 5, 20);
        assert_eq!(plan.validate_horizon(5_000), Ok(()));
        assert!(FaultPlan::new(7).validate_horizon(0).is_ok(), "empty plan");
    }

    #[test]
    fn validate_horizon_lists_unreachable_events() {
        let plan = FaultPlan::new(8)
            .stall_router_at(9_000, 5, 20)
            .kill_link_at(7_000, 3, 1, Direction::Minus)
            .stall_link_at(100, 0, 0, Direction::Plus, 50);
        let err = plan.validate_horizon(7_000).unwrap_err();
        assert_eq!(err.horizon, 7_000);
        assert_eq!(err.events.len(), 2, "{err:?}");
        // Earliest first, each naming the fault kind and placement.
        assert_eq!(err.events[0].0, 7_000);
        assert!(err.events[0].1.contains("kill-link node 3 dim 1 -"));
        assert!(err.events[1].1.contains("stall-router node 5 for 20"));
        assert_eq!(err.min_horizon(), 9_001);
        let text = format!("{err}");
        assert!(text.contains("2 event(s)"), "{text}");
        assert!(
            text.contains("did you mean a horizon of at least 9001?"),
            "{text}"
        );
    }

    #[test]
    fn maximal_windows_saturate_and_never_expire() {
        let mut plan = FaultPlan::new(1)
            .with_stall_rate(1.0, u64::MAX)
            .stall_router_at(10, 2, u64::MAX);
        let text = format!("{}", plan.validate_horizon(0).unwrap_err());
        assert!(text.contains("at least 11"), "{text}");
        plan.roll_stall(5, 0, 1);
        plan.activate(10);
        for cycle in [11, 1_000_000, u64::MAX - 1] {
            plan.activate(cycle);
            assert!(plan.link_blocked(cycle, 0, 1), "link at {cycle}");
            assert!(plan.router_stalled(cycle, 2), "router at {cycle}");
            assert!(plan.transient_stall_active(cycle));
        }
        assert_eq!(
            FaultPlan::new(2)
                .kill_link_at(u64::MAX, 0, 0, Direction::Plus)
                .validate_horizon(5)
                .unwrap_err()
                .min_horizon(),
            u64::MAX
        );
    }

    #[test]
    fn log_tail_returns_most_recent() {
        let mut plan = FaultPlan::new(5).with_drop_rate(1.0);
        for i in 0..10 {
            assert!(plan.roll_drop(i, 0, 0, MessageId(i)));
        }
        let tail = plan.log().tail(3);
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[2].cycle(), 9);
        assert_eq!(plan.log().dropped_messages(), 10);
    }
}
