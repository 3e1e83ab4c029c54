//! The retained **naive reference engine**: the original
//! all-components-every-cycle fabric implementation, kept verbatim so the
//! optimized active-set engine in [`crate::fabric`] can be golden-tested
//! against it.
//!
//! The optimized engine must be **bit-for-bit cycle-accurate**: for the
//! same seed, workload, and fault plan it must produce identical
//! [`FabricStats`], identical per-node delivery order, and an identical
//! [`FaultLog`]. The equivalence tests at the bottom of this file drive
//! both engines in lockstep and assert exactly that, across multiple
//! seeds, topologies (2D and 3D tori), and fault plans with stalls and
//! kills.
//!
//! [`ReferenceFabric`] is exported so the differential fuzzers and the
//! perf harness's speedup-vs-reference measurement can drive it from
//! outside the crate.
//!
//! Intentionally unoptimized — do not "fix" the full scans here; their
//! slowness is the point of comparison.

use crate::fault::{FaultLog, FaultPlan};
use crate::message::{Delivery, Flit, Message, MessageId};
use crate::router::{InputRef, OutputRef, Router, INFINITE_CREDITS};
use crate::stats::FabricStats;
use crate::topology::{NodeId, PortStep, Topology, VcIndex, DATELINE_VCS};
use crate::{FabricConfig, FabricError};
use std::collections::{HashMap, VecDeque};

/// Per-message bookkeeping while in flight.
#[derive(Debug)]
struct Pending<P> {
    message: Message<P>,
    enqueued_at: u64,
    injected_at: u64,
    dst_arrived_at: u64,
    head_delivered_at: u64,
    hops: u32,
}

/// Network-interface injection state for one node.
#[derive(Debug, Default)]
struct NetworkInterface {
    queue: VecDeque<MessageId>,
    streaming: Option<(MessageId, u32)>,
}

/// The original unoptimized cycle engine: iterates every node, port, and
/// virtual channel each cycle and resolves messages through hash maps.
///
/// Behaviourally identical to [`crate::Fabric`] (which is the point);
/// retained purely as the golden model for equivalence tests and as the
/// denominator of the perf harness's speedup metric.
#[derive(Debug)]
pub struct ReferenceFabric<P> {
    topology: Topology,
    config: FabricConfig,
    routers: Vec<Router>,
    links: Vec<Option<(Flit, VcIndex)>>,
    inj_links: Vec<Option<Flit>>,
    inj_credits: Vec<usize>,
    nis: Vec<NetworkInterface>,
    pending: HashMap<u64, Pending<P>>,
    deliveries: Vec<VecDeque<Delivery<P>>>,
    input_vc_list: Vec<(usize, usize)>,
    next_id: u64,
    cycle: u64,
    stats: FabricStats,
    fault: Option<FaultPlan>,
    doomed: HashMap<u64, (usize, usize)>,
    activity: u64,
}

impl<P> ReferenceFabric<P> {
    /// Builds a reference fabric over the given topology.
    pub fn new(topology: impl Into<Topology>, config: FabricConfig) -> Self {
        let topology = topology.into();
        assert!(config.link_vcs >= DATELINE_VCS);
        assert!(config.link_vcs.is_multiple_of(DATELINE_VCS));
        assert!(config.vc_buffer_capacity > 0);
        assert!(config.injection_buffer_capacity > 0);
        let nodes = topology.nodes();
        let link_ports = topology.ports();
        let routers = (0..nodes)
            .map(|_| Router::new(link_ports, config.link_vcs, config.vc_buffer_capacity))
            .collect();
        let mut input_vc_list = Vec::new();
        for port in 0..link_ports {
            for vc in 0..config.link_vcs {
                input_vc_list.push((port, vc));
            }
        }
        input_vc_list.push((link_ports, 0));
        let stats = FabricStats::new(nodes, link_ports);
        Self {
            topology,
            config,
            routers,
            links: vec![None; nodes * link_ports],
            inj_links: vec![None; nodes],
            inj_credits: vec![config.injection_buffer_capacity; nodes],
            nis: (0..nodes).map(|_| NetworkInterface::default()).collect(),
            pending: HashMap::new(),
            deliveries: (0..nodes).map(|_| VecDeque::new()).collect(),
            input_vc_list,
            next_id: 0,
            cycle: 0,
            stats,
            fault: None,
            doomed: HashMap::new(),
            activity: 0,
        }
    }

    /// Builds a reference fabric with an attached fault-injection plan.
    pub fn with_fault_plan(
        topology: impl Into<Topology>,
        config: FabricConfig,
        plan: FaultPlan,
    ) -> Self {
        let mut fabric = Self::new(topology, config);
        fabric.fault = Some(plan);
        fabric
    }

    /// The log of injected faults (`None` when no plan is attached).
    pub fn fault_log(&self) -> Option<&FaultLog> {
        self.fault.as_ref().map(FaultPlan::log)
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The current network cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &FabricStats {
        &self.stats
    }

    /// Monotone count of flit movements since construction.
    pub fn activity(&self) -> u64 {
        self.activity
    }

    /// Enqueues a message for injection; see [`crate::Fabric::inject`].
    pub fn inject(&mut self, message: Message<P>) -> MessageId {
        assert!(message.src.0 < self.topology.compute_nodes());
        assert!(message.dst.0 < self.topology.compute_nodes());
        let id = MessageId(self.next_id);
        self.next_id += 1;
        let src = message.src;
        self.pending.insert(
            id.0,
            Pending {
                message,
                enqueued_at: self.cycle,
                injected_at: 0,
                dst_arrived_at: 0,
                head_delivered_at: 0,
                hops: 0,
            },
        );
        self.nis[src.0].queue.push_back(id);
        id
    }

    /// Messages injected but not yet delivered.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Takes the next completed delivery at `node`, if any.
    pub fn poll_delivery(&mut self, node: NodeId) -> Option<Delivery<P>> {
        self.deliveries[node.0].pop_front()
    }

    /// Total flits currently buffered across all routers.
    pub fn buffered_flits(&self) -> usize {
        self.routers.iter().map(Router::buffered_flits).sum()
    }

    /// Total messages ever injected.
    pub fn total_injected(&self) -> u64 {
        self.next_id
    }

    /// Advances the fabric by one network cycle.
    ///
    /// # Errors
    ///
    /// Returns a [`FabricError`] on inconsistent internal bookkeeping.
    pub fn step(&mut self) -> Result<(), FabricError> {
        self.cycle += 1;
        self.stats.cycles += 1;
        if let Some(plan) = self.fault.as_mut() {
            plan.activate(self.cycle);
        }
        self.deliver_links();
        self.compute_routes()?;
        let credit_returns = self.switch_traversal()?;
        self.apply_credit_returns(credit_returns);
        self.inject_flits()
    }

    /// Advances until no messages remain in flight or `max_cycles` elapse.
    ///
    /// # Errors
    ///
    /// Propagates any [`FabricError`] raised by [`ReferenceFabric::step`].
    pub fn run_until_idle(&mut self, max_cycles: u64) -> Result<bool, FabricError> {
        for _ in 0..max_cycles {
            if self.pending.is_empty() {
                return Ok(true);
            }
            self.step()?;
        }
        Ok(self.pending.is_empty())
    }

    fn link_ports(&self) -> usize {
        self.topology.ports()
    }

    fn local_port(&self) -> usize {
        self.topology.ports()
    }

    fn deliver_links(&mut self) {
        let link_ports = self.link_ports();
        for node in 0..self.topology.nodes() {
            for port in 0..link_ports {
                if let Some((flit, vc)) = self.links[node * link_ports + port].take() {
                    let down = self.topology.link_dest(NodeId(node), port).unwrap();
                    let in_port = self.topology.link_in_port(NodeId(node), port).unwrap();
                    if flit.kind.is_head() {
                        if let Some(pending) = self.pending.get_mut(&flit.message.0) {
                            if pending.message.dst == down {
                                pending.dst_arrived_at = self.cycle;
                            }
                        }
                    }
                    self.routers[down.0].inputs[in_port].vcs[vc]
                        .fifo
                        .push_back(flit);
                }
            }
            if let Some(flit) = self.inj_links[node].take() {
                let local = self.local_port();
                self.routers[node].inputs[local].vcs[0].fifo.push_back(flit);
            }
        }
    }

    fn compute_routes(&mut self) -> Result<(), FabricError> {
        let local = self.local_port();
        for node in 0..self.topology.nodes() {
            for port in 0..self.routers[node].inputs.len() {
                for vc in 0..self.routers[node].inputs[port].vcs.len() {
                    let buf = &self.routers[node].inputs[port].vcs[vc];
                    if buf.route.is_some() {
                        continue;
                    }
                    let Some(front) = buf.fifo.front() else {
                        continue;
                    };
                    if !front.kind.is_head() {
                        continue;
                    }
                    let pending =
                        self.pending
                            .get(&front.message.0)
                            .ok_or(FabricError::UnknownMessage {
                                message: front.message,
                                context: "route computation",
                                cycle: self.cycle,
                            })?;
                    let (src, dst) = (pending.message.src, pending.message.dst);
                    let step = self.topology.route_hop(src, dst, NodeId(node));
                    let output = match step {
                        PortStep::Eject => OutputRef { port: local, vc: 0 },
                        PortStep::Forward { port, vc } => OutputRef { port, vc },
                    };
                    self.routers[node].inputs[port].vcs[vc].route = Some(output);
                }
            }
        }
        Ok(())
    }

    fn switch_traversal(&mut self) -> Result<Vec<CreditReturn>, FabricError> {
        let mut credit_returns = Vec::new();
        let node_count = self.topology.nodes();
        let link_ports = self.link_ports();
        let output_count = link_ports + 1;
        for node in 0..node_count {
            if let Some(plan) = self.fault.as_ref() {
                if plan.router_stalled(self.cycle, node) {
                    continue;
                }
            }
            for output in 0..output_count {
                if output < link_ports {
                    if let Some(plan) = self.fault.as_ref() {
                        if plan.link_blocked(self.cycle, node, output) {
                            continue;
                        }
                    }
                }
                if let Some((input, out_vc)) = self.pick_sender(node, output) {
                    self.forward_flit(node, output, out_vc, input, &mut credit_returns)?;
                }
            }
        }
        Ok(credit_returns)
    }

    fn pick_sender(&mut self, node: usize, output: usize) -> Option<(InputRef, VcIndex)> {
        let vc_count = self.routers[node].outputs[output].vcs.len();
        for i in 0..vc_count {
            let w = (self.routers[node].outputs[output].rr_vc + i) % vc_count;
            let (locked_by, credits) = {
                let ovc = &self.routers[node].outputs[output].vcs[w];
                (ovc.locked_by, ovc.credits)
            };
            if credits == 0 {
                continue;
            }
            if let Some(input) = locked_by {
                let buf = &self.routers[node].inputs[input.port].vcs[input.vc];
                if buf.fifo.front().is_some() {
                    self.routers[node].outputs[output].rr_vc = (w + 1) % vc_count;
                    return Some((input, w));
                }
            } else if let Some(input) = self.find_requester(node, output, w) {
                let ovc = &mut self.routers[node].outputs[output].vcs[w];
                ovc.locked_by = Some(input);
                self.routers[node].outputs[output].rr_vc = (w + 1) % vc_count;
                return Some((input, w));
            }
        }
        None
    }

    fn find_requester(&mut self, node: usize, output: usize, w: VcIndex) -> Option<InputRef> {
        let list_len = self.input_vc_list.len();
        let start = self.routers[node].outputs[output].vcs[w].rr_input;
        for i in 0..list_len {
            let idx = (start + i) % list_len;
            let (port, vc) = self.input_vc_list[idx];
            if self.routers[node].inputs.len() <= port
                || self.routers[node].inputs[port].vcs.len() <= vc
            {
                continue;
            }
            let buf = &self.routers[node].inputs[port].vcs[vc];
            let Some(route) = buf.route else { continue };
            if route.port != output || self.vc_class(output, w) != route.vc {
                continue;
            }
            let Some(front) = buf.fifo.front() else {
                continue;
            };
            if !front.kind.is_head() {
                continue;
            }
            self.routers[node].outputs[output].vcs[w].rr_input = (idx + 1) % list_len;
            return Some(InputRef { port, vc });
        }
        None
    }

    fn vc_class(&self, output: usize, w: VcIndex) -> usize {
        if output == self.local_port() || w < self.config.link_vcs / DATELINE_VCS {
            0
        } else {
            1
        }
    }

    fn forward_flit(
        &mut self,
        node: usize,
        output: usize,
        out_vc: VcIndex,
        input: InputRef,
        credit_returns: &mut Vec<CreditReturn>,
    ) -> Result<(), FabricError> {
        let local = self.local_port();
        let flit = {
            let buf = &mut self.routers[node].inputs[input.port].vcs[input.vc];
            let flit = buf.fifo.pop_front().ok_or(FabricError::MissingFlit {
                node: NodeId(node),
                cycle: self.cycle,
            })?;
            if flit.kind.is_tail() {
                buf.route = None;
            }
            flit
        };
        if input.port == local {
            credit_returns.push(CreditReturn::Injection { node });
        } else {
            let (upstream, up_port) = self.topology.upstream(NodeId(node), input.port).unwrap();
            credit_returns.push(CreditReturn::Link {
                node: upstream.0,
                port: up_port,
                vc: input.vc,
            });
        }
        if flit.kind.is_tail() {
            self.routers[node].outputs[output].vcs[out_vc].locked_by = None;
        }
        let mut doomed_here = self.doomed.get(&flit.message.0) == Some(&(node, output));
        if !doomed_here && output != local && flit.kind.is_head() {
            if let Some(plan) = self.fault.as_mut() {
                if let Some(mask) = plan.roll_corrupt(self.cycle, node, output, flit.message) {
                    if let Some(pending) = self.pending.get_mut(&flit.message.0) {
                        if pending.message.is_intact() {
                            self.stats.corrupted_messages += 1;
                        }
                        pending.message.checksum ^= mask;
                    }
                }
                if plan.roll_drop(self.cycle, node, output, flit.message) {
                    self.doomed.insert(flit.message.0, (node, output));
                    doomed_here = true;
                }
                plan.roll_stall(self.cycle, node, output);
            }
        }
        if doomed_here {
            self.stats.dropped_flits += 1;
            self.activity += 1;
            if flit.kind.is_tail() {
                self.doomed.remove(&flit.message.0);
                if self.pending.remove(&flit.message.0).is_some() {
                    self.stats.dropped_messages += 1;
                }
            }
        } else if output == local {
            self.eject_flit(node, flit)?;
        } else {
            let ovc = &mut self.routers[node].outputs[output].vcs[out_vc];
            debug_assert!(ovc.credits > 0 && ovc.credits != INFINITE_CREDITS);
            ovc.credits -= 1;
            let link_ports = self.link_ports();
            let slot = &mut self.links[node * link_ports + output];
            debug_assert!(slot.is_none());
            *slot = Some((flit, out_vc));
            self.stats.link_busy[node * link_ports + output] += 1;
            self.stats.link_flits += 1;
            self.activity += 1;
        }
        Ok(())
    }

    fn eject_flit(&mut self, node: usize, flit: Flit) -> Result<(), FabricError> {
        self.stats.ejection_busy[node] += 1;
        self.activity += 1;
        let cycle = self.cycle;
        let unknown = move |context| FabricError::UnknownMessage {
            message: flit.message,
            context,
            cycle,
        };
        let pending = self
            .pending
            .get_mut(&flit.message.0)
            .ok_or(unknown("ejection"))?;
        if flit.kind.is_head() {
            pending.head_delivered_at = self.cycle;
            pending.hops =
                self.topology
                    .distance(pending.message.src, pending.message.dst) as u32;
        }
        if flit.kind.is_tail() {
            let pending = self
                .pending
                .remove(&flit.message.0)
                .ok_or(unknown("tail ejection"))?;
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
            self.deliveries[node].push_back(delivery);
        }
        Ok(())
    }

    fn apply_credit_returns(&mut self, credit_returns: Vec<CreditReturn>) {
        for ret in credit_returns {
            match ret {
                CreditReturn::Injection { node } => {
                    self.inj_credits[node] += 1;
                }
                CreditReturn::Link { node, port, vc } => {
                    self.routers[node].outputs[port].vcs[vc].credits += 1;
                }
            }
        }
    }

    fn inject_flits(&mut self) -> Result<(), FabricError> {
        for node in 0..self.topology.nodes() {
            if self.inj_links[node].is_some() {
                continue;
            }
            while self.nis[node].streaming.is_none() {
                let Some(id) = self.nis[node].queue.pop_front() else {
                    break;
                };
                let cycle = self.cycle;
                let unknown = move |context| FabricError::UnknownMessage {
                    message: id,
                    context,
                    cycle,
                };
                let Some(pending) = self.pending.get_mut(&id.0) else {
                    return Err(unknown("injection queue"));
                };
                if pending.message.src == pending.message.dst {
                    pending.injected_at = self.cycle;
                    let pending = self
                        .pending
                        .remove(&id.0)
                        .ok_or(unknown("loopback delivery"))?;
                    let delivery = Delivery {
                        enqueued_at: pending.enqueued_at,
                        injected_at: self.cycle,
                        dst_arrived_at: self.cycle,
                        head_delivered_at: self.cycle,
                        delivered_at: self.cycle,
                        hops: 0,
                        message: pending.message,
                    };
                    self.stats.record_delivery(
                        delivery.total_latency(),
                        0,
                        0,
                        delivery.injected_at - delivery.enqueued_at,
                        delivery.message.length,
                    );
                    let dst = delivery.message.dst.0;
                    self.deliveries[dst].push_back(delivery);
                    self.activity += 1;
                    break;
                }
                self.nis[node].streaming = Some((id, 0));
            }
            let Some((id, index)) = self.nis[node].streaming else {
                continue;
            };
            if self.inj_credits[node] == 0 {
                continue;
            }
            let Some(pending) = self.pending.get_mut(&id.0) else {
                return Err(FabricError::UnknownMessage {
                    message: id,
                    context: "injection streaming",
                    cycle: self.cycle,
                });
            };
            if index == 0 {
                pending.injected_at = self.cycle;
                self.stats.injected_messages += 1;
            }
            let kind = pending.message.flit_kind(index);
            let length = pending.message.length;
            self.inj_links[node] = Some(Flit {
                message: id,
                kind,
                slot: 0,
            });
            self.inj_credits[node] -= 1;
            self.stats.injected_flits += 1;
            self.stats.injection_busy[node] += 1;
            self.activity += 1;
            if index + 1 == length {
                self.nis[node].streaming = None;
            } else {
                self.nis[node].streaming = Some((id, index + 1));
            }
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
enum CreditReturn {
    Injection {
        node: usize,
    },
    Link {
        node: usize,
        port: usize,
        vc: VcIndex,
    },
}

#[cfg(test)]
mod equivalence_tests {
    use super::ReferenceFabric;
    use crate::fault::FaultPlan;
    use crate::fuzz::{run_scenario, FaultSpec, FuzzScenario};
    use crate::traffic::{BernoulliTraffic, TrafficPattern};
    use crate::{Direction, Fabric, FabricConfig, Message, NodeId, Topology, Torus};

    /// An equivalence case for the fuzzer's lockstep checker
    /// ([`run_scenario`]): uniform traffic of 8-flit messages on
    /// `topology`, default buffering, tracing off.
    fn case(
        topology: Topology,
        link_vcs: usize,
        seed: u64,
        rate: f64,
        cycles: u64,
        fault: Option<FaultSpec>,
    ) -> FuzzScenario {
        let config = FabricConfig::default();
        FuzzScenario {
            seed,
            topology,
            traffic: TrafficPattern::Uniform,
            link_vcs,
            vc_buffer_capacity: config.vc_buffer_capacity,
            injection_buffer_capacity: config.injection_buffer_capacity,
            trace_capacity: 0,
            rate,
            min_length: 8,
            max_length: 8,
            cycles,
            fault,
        }
    }

    /// A fault spec with no scheduled events.
    fn rates(drop_rate: f64, corrupt_rate: f64, stall_rate: f64, stall_window: u64) -> FaultSpec {
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

    /// Drains both engines' delivery queues and asserts identical
    /// delivery order and contents at every node.
    fn assert_deliveries_match(
        opt: &mut Fabric<u64>,
        reference: &mut ReferenceFabric<u64>,
        nodes: usize,
    ) {
        for node in 0..nodes {
            loop {
                let a = opt.poll_delivery(NodeId(node));
                let b = reference.poll_delivery(NodeId(node));
                assert_eq!(a, b, "delivery mismatch at node {node}");
                if a.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn matches_reference_across_seeds_2d() {
        for seed in [1u64, 2, 3] {
            run_scenario(&case(Topology::cube(2, 8), 2, seed, 0.03, 2_000, None)).unwrap();
        }
    }

    #[test]
    fn matches_reference_multi_vc_deep_buffers() {
        run_scenario(&FuzzScenario {
            vc_buffer_capacity: 16,
            injection_buffer_capacity: 16,
            ..case(Topology::cube(2, 8), 4, 7, 0.05, 2_000, None)
        })
        .unwrap();
    }

    #[test]
    fn matches_reference_3d_torus() {
        for seed in [11u64, 12, 13] {
            run_scenario(&case(Topology::cube(3, 4), 2, seed, 0.02, 1_500, None)).unwrap();
        }
    }

    #[test]
    fn matches_reference_under_probabilistic_faults() {
        for seed in [21u64, 22, 23] {
            let fault = Some(rates(0.01, 0.02, 0.005, 40));
            let scenario = case(Topology::cube(2, 8), 2, seed, 0.04, 2_500, fault);
            run_scenario(&scenario).unwrap();
        }
    }

    #[test]
    fn matches_reference_with_multi_word_vc_sets() {
        // Twelve VCs a link on a 3-D torus: 73 input VCs a router, so
        // every per-router worklist spans two 64-bit words.
        let fault = Some(rates(0.01, 0.0, 0.005, 40));
        run_scenario(&case(Topology::cube(3, 4), 12, 41, 0.04, 2_000, fault)).unwrap();
    }

    #[test]
    fn matches_reference_with_scheduled_stalls_and_kills() {
        // Stalls + a permanent kill: traffic through the dead link wedges
        // identically in both engines; everything else keeps moving.
        let fault = Some(FaultSpec {
            kills: vec![(1_000, 0, 0, Direction::Plus)],
            link_stalls: vec![(700, 14, 1, Direction::Minus, 150)],
            router_stalls: vec![(300, 9, 200)],
            ..rates(0.0, 0.0, 0.0, 64)
        });
        run_scenario(&case(Topology::cube(2, 8), 2, 31, 0.02, 2_500, fault)).unwrap();
    }

    #[test]
    fn matches_reference_saturated_fan_in() {
        // All-to-one hotspot: maximal arbitration contention, the worst
        // case for round-robin pointer equivalence.
        let torus = Torus::new(2, 4);
        let nodes = torus.nodes();
        let mut opt: Fabric<u64> = Fabric::new(torus.clone(), FabricConfig::default());
        let mut reference: ReferenceFabric<u64> =
            ReferenceFabric::new(torus, FabricConfig::default());
        for round in 0..4u64 {
            for node in 0..nodes {
                let m = Message::new(NodeId(node), NodeId(5), 6, round);
                opt.inject(m.clone());
                reference.inject(m);
            }
        }
        for _ in 0..5_000 {
            if opt.in_flight() == 0 && reference.in_flight() == 0 {
                break;
            }
            opt.step().unwrap();
            reference.step().unwrap();
        }
        assert_eq!(opt.in_flight(), 0);
        assert_eq!(opt.stats(), reference.stats());
        assert_deliveries_match(&mut opt, &mut reference, nodes);
    }

    #[test]
    fn fast_forward_matches_stepping_through_idle_gaps() {
        // An idle fabric fast-forwarded to a target cycle must land in the
        // same state as the reference engine stepped there, including
        // scheduled faults that fire mid-gap. (An idle `Fabric::step` runs
        // the fast-forward tick itself, so the oracle is the reference.)
        let mk_plan = || {
            FaultPlan::new(9).stall_router_at(500, 3, 100).kill_link_at(
                1_200,
                7,
                0,
                Direction::Plus,
            )
        };
        let torus = Torus::new(2, 8);
        let mut ff: Fabric<u64> =
            Fabric::with_fault_plan(torus.clone(), FabricConfig::default(), mk_plan());
        let mut stepped: ReferenceFabric<u64> =
            ReferenceFabric::with_fault_plan(torus, FabricConfig::default(), mk_plan());
        // Burst, drain, then a long idle gap.
        for node in 0..8 {
            let m = Message::new(NodeId(node), NodeId(63 - node), 8, node as u64);
            ff.inject(m.clone());
            stepped.inject(m);
        }
        assert!(ff.run_until_idle(2_000).unwrap());
        assert!(stepped.run_until_idle(2_000).unwrap());
        assert_eq!(ff.cycle(), stepped.cycle());
        let gap = 2_000 - ff.cycle();
        assert_eq!(ff.fast_forward(gap), gap);
        for _ in 0..gap {
            stepped.step().unwrap();
        }
        assert_eq!(ff.cycle(), 2_000);
        assert_eq!(ff.cycle(), stepped.cycle());
        assert_eq!(ff.stats(), stepped.stats());
        assert_eq!(ff.fault_log(), stepped.fault_log());
        // Traffic injected after the gap behaves identically.
        let m = Message::new(NodeId(0), NodeId(5), 8, 99u64);
        ff.inject(m.clone());
        stepped.inject(m);
        assert!(ff.run_until_idle(200).unwrap());
        assert!(stepped.run_until_idle(200).unwrap());
        assert_eq!(ff.stats(), stepped.stats());
        assert_eq!(
            ff.poll_delivery(NodeId(5)).unwrap(),
            stepped.poll_delivery(NodeId(5)).unwrap()
        );
    }

    #[test]
    fn idle_ticks_match_reference_through_faulted_gaps() {
        // Bursts of traffic separated by idle gaps. Inside the gaps a
        // scheduled link stall, router stall and link kill start, and the
        // link stalls rolled during each burst expire, so the idle tick
        // activates a plan with work due, and one with nothing due (the
        // early return) between stalls once the schedule is spent; stats,
        // fault logs and deliveries must match on every cycle.
        let plan = FaultPlan::new(17)
            .with_drop_rate(0.02)
            .with_stall_rate(0.05, 30)
            .stall_link_at(450, 14, 1, Direction::Minus, 60)
            .stall_router_at(1_050, 9, 120)
            .kill_link_at(1_650, 0, 0, Direction::Plus);
        let scheduled = [450u64, 1_050, 1_650];
        let bursts = [0u64..150, 600..750, 1_200..1_350, 1_800..1_900];
        let torus = Torus::new(2, 8);
        let nodes = torus.nodes();
        let mut opt: Fabric<u64> =
            Fabric::with_fault_plan(torus.clone(), FabricConfig::default(), plan.clone());
        let mut reference: ReferenceFabric<u64> =
            ReferenceFabric::with_fault_plan(torus, FabricConfig::default(), plan);
        let mut load = BernoulliTraffic::new(nodes, TrafficPattern::Uniform, 0.03, 8..=8, 5);
        let mut idle_cycles = 0;
        for cycle in 0..2_100u64 {
            if bursts.iter().any(|burst| burst.contains(&cycle)) {
                for m in load.pulse() {
                    opt.inject(m.clone());
                    reference.inject(m);
                }
            }
            if scheduled.contains(&(cycle + 1)) {
                assert!(
                    opt.is_quiescent(),
                    "cycle {cycle}: the fault at the next cycle must fire on an idle tick"
                );
            }
            idle_cycles += u64::from(opt.is_quiescent());
            opt.step().unwrap();
            reference.step().unwrap();
            opt.audit_worklists();
            assert_eq!(opt.stats(), reference.stats(), "stats at cycle {cycle}");
            assert_eq!(
                opt.fault_log(),
                reference.fault_log(),
                "fault logs at cycle {cycle}"
            );
            assert_deliveries_match(&mut opt, &mut reference, nodes);
        }
        assert!(idle_cycles > 500, "only {idle_cycles} idle ticks");
        let log = opt.fault_log().unwrap().events();
        let rolled_stalls = log
            .iter()
            .filter(|e| matches!(e, crate::FaultEvent::LinkStalled { until, .. } if until - e.cycle() == 31))
            .count();
        assert!(rolled_stalls > 0, "no link stall was rolled");
        assert_eq!(opt.activity(), reference.activity());
        assert_eq!(opt.in_flight(), reference.in_flight());
    }
}
