//! Property-style tests over the analytical models, the network
//! substrate, and the fault-injection layer, via the facade crate.
//!
//! The workspace builds without registry access, so instead of an
//! external property-testing harness these tests draw their random cases
//! from the in-tree deterministic generator ([`DetRng`]): every case a
//! failure message names is reproducible from the seed in the loop.

use commloc::model::{
    CombinedModel, EndpointContention, MachineConfig, NetworkModel, NodeModel, TorusGeometry,
};
use commloc::net::traffic::{BernoulliTraffic, TrafficPattern};
use commloc::net::{DetRng, Fabric, FabricConfig, FaultConfig, FaultPlan, Message, NodeId, Torus};
use commloc::sim::{Mapping, Measurements, Scenario, SimConfig, SimError};

/// Runs `mapping` on `config` through the one run body and measures the
/// window.
fn measure(
    config: &SimConfig,
    mapping: &Mapping,
    warmup: u64,
    window: u64,
) -> Result<Measurements, SimError> {
    let scenario = Scenario::new(config.clone(), warmup, window);
    Ok(scenario.run(mapping)?.measure())
}

fn arbitrary_machine(rng: &mut DetRng) -> MachineConfig {
    let c = rng.range_f64(1.2, 4.0);
    MachineConfig::alewife()
        .with_grain(rng.range_f64(1.0, 500.0))
        .with_contexts(rng.range_u64(1, 9) as u32)
        .with_context_switch(rng.range_f64(0.0, 40.0))
        .with_critical_path_messages(c)
        .with_messages_per_transaction(c * 1.6)
        .with_fixed_overhead(rng.range_f64(0.0, 200.0))
        .with_message_size(rng.range_f64(4.0, 40.0))
        .with_dimension(rng.range_u64(2, 4) as u32)
        .with_radix(rng.range_f64(2.0, 64.0))
        .with_clock_ratio(rng.range_f64(0.25, 4.0))
}

/// The combined model always finds a feasible operating point with
/// sub-saturation utilization, for any sane machine and distance.
#[test]
fn solver_always_finds_feasible_point() {
    let mut rng = DetRng::new(0x5eed_0001);
    for case in 0..64 {
        let machine = arbitrary_machine(&mut rng);
        let distance = rng.range_f64(0.0, 200.0);
        let model = machine.to_combined_model().unwrap();
        let op = model.solve(distance).unwrap();
        assert!(
            op.message_rate > 0.0,
            "case {case}: rate {}",
            op.message_rate
        );
        assert!(op.channel_utilization >= 0.0, "case {case}");
        assert!(op.channel_utilization < 1.0, "case {case}: saturated");
        assert!(op.message_latency >= 0.0, "case {case}");
        assert!(op.issue_interval > 0.0, "case {case}");
    }
}

/// Monotonicity: longer communication distances never increase the
/// transaction rate and never decrease the message latency.
#[test]
fn distance_monotonicity() {
    let mut rng = DetRng::new(0x5eed_0002);
    for case in 0..64 {
        let machine = arbitrary_machine(&mut rng);
        let d_lo = rng.range_f64(0.0, 50.0);
        let delta = rng.range_f64(0.1, 50.0);
        let model = machine.to_combined_model().unwrap();
        let near = model.solve(d_lo).unwrap();
        let far = model.solve(d_lo + delta).unwrap();
        assert!(
            far.transaction_rate <= near.transaction_rate * (1.0 + 1e-9),
            "case {case}: rate grew with distance"
        );
        assert!(
            far.message_latency >= near.message_latency - 1e-9,
            "case {case}: latency fell with distance"
        );
    }
}

/// The solved operating point is a true fixed point: the network latency
/// at the solved rate equals the node's absorbed latency.
#[test]
fn solution_is_fixed_point() {
    let mut rng = DetRng::new(0x5eed_0003);
    for case in 0..64 {
        let machine = arbitrary_machine(&mut rng);
        let distance = rng.range_f64(0.5, 100.0);
        let model = machine.to_combined_model().unwrap();
        let op = model.solve(distance).unwrap();
        let network = model
            .network()
            .message_latency(op.message_rate, distance)
            .unwrap();
        // Either the latency balance holds, or the node is pinned at its
        // latency-masked floor (processor-bound).
        let node_interval = model.node().message_interval_for_latency(network);
        assert!(
            (node_interval - op.message_interval).abs() / op.message_interval < 1e-6,
            "case {case}: interval {} vs {}",
            node_interval,
            op.message_interval
        );
    }
}

/// Expected gain is at least one and bounded by the distance ratio (the
/// paper's "at most linear" law).
#[test]
fn gain_bounded_by_distance_ratio() {
    let mut rng = DetRng::new(0x5eed_0004);
    for case in 0..64 {
        let machine = arbitrary_machine(&mut rng);
        let nodes = rng.range_f64(4.0, 1e6);
        let cfg = machine.with_nodes(nodes);
        let point = commloc::model::expected_gain(&cfg).unwrap();
        assert!(point.gain >= 1.0 - 1e-9, "case {case}: gain {}", point.gain);
        let distance_ratio = point.random_distance / point.ideal_distance;
        // Linear-in-distance-reduction bound, with slack for the
        // contention reduction that shrinking distance also brings
        // (bounded by the limiting per-hop latency ratio).
        let t_h_limit = commloc::model::limiting_per_hop_latency(&cfg);
        assert!(
            point.gain <= distance_ratio * t_h_limit + 1e-6,
            "case {case}: gain {} vs distance ratio {} x T_h limit {}",
            point.gain,
            distance_ratio,
            t_h_limit
        );
    }
}

/// Node model: the latency-for-interval line and its inversion agree
/// everywhere in the latency-bound regime.
#[test]
fn node_model_round_trip() {
    let mut rng = DetRng::new(0x5eed_0005);
    let mut checked = 0;
    for case in 0..128 {
        let grain = rng.range_f64(1.0, 500.0);
        let contexts = rng.range_u64(1, 9) as u32;
        let t_f = rng.range_f64(0.0, 300.0);
        let latency = rng.range_f64(0.0, 5_000.0);
        let node = NodeModel::from_parameters(grain, contexts, 22.0, 2.0, 3.2, t_f).unwrap();
        if latency <= node.masking_latency_threshold() {
            continue; // latency fully masked: inversion is not defined
        }
        checked += 1;
        let interval = node.message_interval_for_latency(latency);
        let back = node.message_latency_for_interval(interval);
        assert!(
            (back - latency).abs() < 1e-6,
            "case {case}: {back} vs {latency}"
        );
    }
    assert!(checked > 32, "too few latency-bound cases: {checked}");
}

/// Network model: per-hop latency is monotone in utilization and always
/// at least the single-cycle base delay.
#[test]
fn per_hop_latency_monotone() {
    let mut rng = DetRng::new(0x5eed_0006);
    for case in 0..64 {
        let b = rng.range_f64(1.0, 64.0);
        let k_d = rng.range_f64(0.1, 100.0);
        let rho_lo = rng.range_f64(0.0, 0.98);
        let d_rho = rng.range_f64(0.0, 0.01);
        let net = NetworkModel::new(TorusGeometry::new(2, 8.0).unwrap(), b)
            .unwrap()
            .with_endpoint_contention(EndpointContention::Ignore);
        let lo = net.per_hop_latency(rho_lo, k_d).unwrap();
        let hi = net
            .per_hop_latency((rho_lo + d_rho).min(0.989), k_d)
            .unwrap();
        assert!(lo >= 1.0, "case {case}: {lo}");
        assert!(hi >= lo - 1e-12, "case {case}: {hi} < {lo}");
    }
}

/// Network substrate: every injected message is delivered intact, with a
/// hop count equal to the torus distance, under random traffic on random
/// torus shapes.
#[test]
fn fabric_delivers_everything() {
    let mut rng = DetRng::new(0x5eed_0007);
    for case in 0..12 {
        let dims = rng.range_u64(1, 4) as u32;
        let radix = rng.range_u64(2, 7) as usize;
        let torus = Torus::new(dims, radix);
        let n = torus.nodes();
        let mut fabric: Fabric<usize> = Fabric::new(torus.clone(), FabricConfig::default());
        let mut expected: Vec<usize> = vec![0; n];
        let mut sent = 0;
        for i in 0..rng.range_u64(1, 60) as usize {
            let (src, dst) = (NodeId(rng.index(n)), NodeId(rng.index(n)));
            let len = rng.range_u64(1, 30) as u32;
            fabric.inject(Message::new(src, dst, len, i));
            expected[dst.0] += 1;
            sent += 1;
        }
        assert!(
            fabric.run_until_idle(2_000_000).expect("fault-free fabric"),
            "case {case}: fabric did not drain"
        );
        let mut received = 0;
        for node in torus.node_ids() {
            while let Some(d) = fabric.poll_delivery(node) {
                assert_eq!(d.message.dst, node, "case {case}");
                assert_eq!(
                    d.hops as usize,
                    torus.distance(d.message.src, d.message.dst),
                    "case {case}: non-minimal route"
                );
                received += 1;
                expected[node.0] -= 1;
            }
            assert_eq!(expected[node.0], 0, "case {case}: missing deliveries");
        }
        assert_eq!(received, sent, "case {case}");
        assert_eq!(fabric.buffered_flits(), 0, "case {case}");
    }
}

/// Eq. 10 against the fabric: under the open-loop source's uniform load
/// at a low rate, the measured mean channel utilization matches the
/// network model's `rho = r_m * B * k_d / 2` at the measured injection
/// rate and distance.
#[test]
fn utilization_matches_eq10_under_uniform_load() {
    const B: u32 = 12;
    for (n, k) in [(2u32, 8usize), (3, 4)] {
        let torus = Torus::new(n, k);
        let nodes = torus.nodes();
        let mut fabric: Fabric<u64> = Fabric::new(torus, FabricConfig::default());
        let mut traffic = BernoulliTraffic::new(nodes, TrafficPattern::Uniform, 0.008, B..=B, 99);
        for _ in 0..40_000 {
            for m in traffic.pulse() {
                fabric.inject(m);
            }
            fabric.step().unwrap();
        }
        let s = fabric.stats();
        let geometry = TorusGeometry::new(n, k as f64).unwrap();
        let model = NetworkModel::new(geometry, f64::from(B)).unwrap();
        let expected = model.channel_utilization(s.per_node_injection_rate(), s.avg_distance());
        let measured = s.channel_utilization();
        assert!(
            (measured - expected).abs() / expected < 0.1,
            "{k}-ary {n}-cube: rho measured {measured} vs Eq. 10 {expected}"
        );
    }
}

/// Fault-layer conservation: under any seeded drop plan, every injected
/// message is either delivered or logged as dropped — none vanish, and
/// the fault log agrees with the fabric's counters.
#[test]
fn delivered_plus_dropped_equals_injected() {
    let mut rng = DetRng::new(0x5eed_0008);
    for case in 0..10 {
        let seed = rng.next_u64();
        let drop_rate = rng.range_f64(0.05, 0.6);
        let torus = Torus::new(2, 4);
        let n = torus.nodes();
        let plan = FaultPlan::new(seed).with_drop_rate(drop_rate);
        let mut fabric: Fabric<usize> =
            Fabric::with_fault_plan(torus.clone(), FabricConfig::default(), plan);
        let injected = 80u64;
        for i in 0..injected as usize {
            let (src, dst) = (NodeId(rng.index(n)), NodeId(rng.index(n)));
            fabric.inject(Message::new(src, dst, rng.range_u64(1, 12) as u32, i));
        }
        assert!(
            fabric
                .run_until_idle(2_000_000)
                .expect("no permanent faults"),
            "case {case}: fabric did not drain"
        );
        let stats = fabric.stats();
        assert_eq!(
            stats.delivered_messages + stats.dropped_messages,
            injected,
            "case {case} (seed {seed:#x}, drop {drop_rate:.2}): message not conserved"
        );
        let log = fabric.fault_log().expect("fault plan installed");
        assert_eq!(
            log.dropped_messages(),
            stats.dropped_messages,
            "case {case}: fault log disagrees with fabric stats"
        );
    }
}

/// Fault-layer liveness: with any seeded fault plan installed, a bounded
/// run of the full machine either completes cleanly or surfaces a
/// structured watchdog/fabric error — it never panics and never wedges
/// silently inside the cycle budget.
#[test]
fn any_seeded_fault_plan_completes_or_reports() {
    let mut rng = DetRng::new(0x5eed_0009);
    for case in 0..6 {
        let seed = rng.next_u64();
        // Mix fault classes across cases: background drop/corrupt noise
        // everywhere, plus a permanent link kill on odd cases.
        let mut plan = FaultPlan::new(seed).with_config(FaultConfig {
            drop_rate: rng.range_f64(0.0, 0.002),
            corrupt_rate: rng.range_f64(0.0, 0.002),
            ..FaultConfig::default()
        });
        if case % 2 == 1 {
            let node = rng.index(64);
            plan = plan.kill_link_at(2_000, node, rng.range_u64(0, 2) as u32, {
                use commloc::net::Direction;
                if rng.chance(0.5) {
                    Direction::Plus
                } else {
                    Direction::Minus
                }
            });
        }
        let config = SimConfig {
            watchdog_cycles: 4_000,
            fault_plan: Some(plan),
            ..SimConfig::default()
        };
        // Retries make small timeouts survivable; the killed-link cases
        // must instead trip the watchdog with a structured report.
        match measure(&config, &Mapping::identity(64), 3_000, 9_000) {
            Ok(m) => assert!(
                m.transaction_rate > 0.0,
                "case {case} (seed {seed:#x}): completed without progress"
            ),
            Err(SimError::Stalled(report)) => {
                assert!(report.stalled_for >= 4_000, "case {case}: early trip");
                assert_eq!(report.router_occupancy.len(), 64, "case {case}");
            }
            Err(other) => panic!("case {case} (seed {seed:#x}): unexpected error {other}"),
        }
    }
}

/// Latency-breakdown invariants under random traffic: every delivery's
/// component decomposition telescopes exactly to its total latency, the
/// aggregate sums match the per-delivery sums, the latency histogram
/// conserves counts, and the trace ring never exceeds its bound.
#[test]
fn breakdown_telescopes_and_histograms_conserve() {
    let mut rng = DetRng::new(0x5eed_000b);
    for case in 0..10 {
        let dims = rng.range_u64(1, 4) as u32;
        let radix = rng.range_u64(2, 7) as usize;
        let trace_capacity = rng.range_u64(1, 64) as usize;
        let torus = Torus::new(dims, radix);
        let n = torus.nodes();
        let config = FabricConfig {
            trace_capacity,
            ..FabricConfig::default()
        };
        let mut fabric: Fabric<usize> = Fabric::new(torus.clone(), config);
        let mut sent = 0u64;
        for i in 0..rng.range_u64(10, 80) as usize {
            let (src, dst) = (NodeId(rng.index(n)), NodeId(rng.index(n)));
            fabric.inject(Message::new(src, dst, rng.range_u64(1, 24) as u32, i));
            sent += 1;
        }
        assert!(
            fabric.run_until_idle(2_000_000).expect("fault-free fabric"),
            "case {case}: fabric did not drain"
        );
        let mut latency_sum = 0u64;
        for node in torus.node_ids() {
            while let Some(d) = fabric.poll_delivery(node) {
                let b = d.breakdown();
                assert_eq!(
                    b.total(),
                    d.total_latency(),
                    "case {case}: breakdown does not telescope"
                );
                if d.hops == 0 {
                    // Loopbacks never touch the network: no injection
                    // channel, no hops, no contention.
                    assert_eq!(b.injection + b.free_hop + b.contended_hop, 0, "case {case}");
                } else {
                    assert_eq!(b.injection, 1, "case {case}");
                    assert_eq!(b.free_hop, u64::from(d.hops), "case {case}");
                }
                latency_sum += d.total_latency();
            }
        }
        let lb = fabric.breakdown();
        assert_eq!(lb.deliveries, sent, "case {case}");
        assert_eq!(
            lb.deliveries,
            fabric.stats().delivered_messages,
            "case {case}"
        );
        assert_eq!(
            lb.total(),
            latency_sum,
            "case {case}: aggregate sums disagree with per-delivery totals"
        );
        // Histogram count conservation: every delivery is in exactly one
        // bucket, and the recorded sum matches the component sums.
        assert_eq!(lb.latency.count(), sent, "case {case}");
        assert_eq!(lb.latency.sum(), latency_sum, "case {case}");
        assert_eq!(
            lb.latency.bucket_counts().iter().sum::<u64>(),
            lb.latency.count(),
            "case {case}: histogram lost a sample"
        );
        assert_eq!(lb.queue_depth.count(), sent, "case {case}");
        // Bounded trace ring: retained events never exceed the bound,
        // while the recorded count keeps growing past it.
        let trace = fabric.trace().expect("tracing enabled");
        assert!(
            trace.len() <= trace_capacity,
            "case {case}: ring exceeded its bound"
        );
        assert!(trace.recorded() >= trace.len() as u64, "case {case}");
        assert!(trace.recorded() > 0, "case {case}: nothing traced");
    }
}

/// Tracing is observation-only: the same traffic on the same torus
/// produces bit-identical `FabricStats` and latency breakdowns whether
/// the trace ring is on or off.
#[test]
fn tracing_never_perturbs_the_fabric() {
    let mut rng = DetRng::new(0x5eed_000c);
    for case in 0..6 {
        let dims = rng.range_u64(1, 4) as u32;
        let radix = rng.range_u64(2, 6) as usize;
        let torus = Torus::new(dims, radix);
        let n = torus.nodes();
        let traffic: Vec<(usize, usize, u32)> = (0..rng.range_u64(5, 50))
            .map(|_| (rng.index(n), rng.index(n), rng.range_u64(1, 16) as u32))
            .collect();
        let run = |trace_capacity: usize| {
            let config = FabricConfig {
                trace_capacity,
                ..FabricConfig::default()
            };
            let mut fabric: Fabric<usize> = Fabric::new(torus.clone(), config);
            for (i, &(src, dst, len)) in traffic.iter().enumerate() {
                fabric.inject(Message::new(NodeId(src), NodeId(dst), len, i));
            }
            assert!(fabric.run_until_idle(2_000_000).expect("fault-free"));
            (fabric.stats().clone(), fabric.breakdown().clone())
        };
        let (stats_off, breakdown_off) = run(0);
        let (stats_on, breakdown_on) = run(128);
        assert_eq!(stats_off, stats_on, "case {case}: tracing changed stats");
        assert_eq!(
            breakdown_off, breakdown_on,
            "case {case}: tracing changed the breakdown"
        );
    }
}

/// Combined model solved via quadratic and bisection agree on random
/// parameter draws within the quadratic's domain.
#[test]
fn quadratic_bisection_agreement_random_draws() {
    let mut rng = DetRng::new(0x5eed_000a);
    for _ in 0..200 {
        let grain = rng.range_f64(1.0, 300.0);
        let p = rng.range_u64(1, 5) as u32;
        let t_f = rng.range_f64(0.0, 200.0);
        let b = rng.range_f64(4.0, 30.0);
        let d = rng.range_f64(2.0, 60.0);
        let node = NodeModel::from_parameters(grain, p, 22.0, 2.0, 3.2, t_f).unwrap();
        let net = NetworkModel::new(TorusGeometry::new(2, 8.0).unwrap(), b)
            .unwrap()
            .with_endpoint_contention(EndpointContention::Ignore);
        let model = CombinedModel::new(node, net);
        let r_floor = 1.0 / model.node().min_message_interval();
        let bisect = model.solve(d).unwrap().message_rate;
        let quad = model.solve_quadratic(d).unwrap().min(r_floor);
        assert!(
            (bisect - quad).abs() / quad < 1e-5,
            "grain={grain} p={p} t_f={t_f} b={b} d={d}: {bisect} vs {quad}"
        );
    }
}
