//! Ordering and fairness properties of the fabric under load.
//!
//! The coherence protocol built on top of this network relies on
//! point-to-point FIFO delivery (e.g. a ReadReply must not be overtaken
//! by a later Invalidate from the same home node). Deterministic e-cube
//! routing with per-pair-fixed virtual-channel classes guarantees it;
//! these tests enforce that guarantee under heavy, adversarial load.

use commloc_net::{DetRng, Fabric, FabricConfig, Message, NodeId, Torus};

/// Background load plus a monitored stream: the monitored pair's
/// sequence numbers must arrive strictly in order.
fn check_pair_fifo(
    dims: u32,
    radix: usize,
    src: usize,
    dst: usize,
    background: &[(usize, usize, u32)],
) {
    let torus = Torus::new(dims, radix);
    let n = torus.nodes();
    let (src, dst) = (NodeId(src % n), NodeId(dst % n));
    let mut fabric: Fabric<(bool, u32)> = Fabric::new(torus, FabricConfig::default());
    let mut monitored = 0u32;
    for (i, &(a, b, len)) in background.iter().enumerate() {
        // Interleave monitored messages with background ones.
        if i % 3 == 0 && src != dst {
            fabric.inject(Message::new(
                src,
                dst,
                4 + (monitored % 17),
                (true, monitored),
            ));
            monitored += 1;
        }
        let (a, b) = (NodeId(a % n), NodeId(b % n));
        fabric.inject(Message::new(a, b, len, (false, 0)));
    }
    assert!(
        fabric.run_until_idle(5_000_000).unwrap(),
        "fabric did not drain"
    );
    let mut expected = 0u32;
    let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
    for node in nodes {
        while let Some(d) = fabric.poll_delivery(node) {
            let (is_monitored, seq) = d.message.payload;
            if is_monitored && d.message.src == src && d.message.dst == dst {
                assert_eq!(seq, expected, "monitored stream reordered");
                expected += 1;
            }
        }
    }
    assert_eq!(expected, monitored, "monitored messages lost");
}

/// Randomized sweep over topologies, monitored pairs, and background
/// loads — deterministic (seeded) so failures replay exactly.
#[test]
fn point_to_point_fifo_under_load() {
    let mut rng = DetRng::new(0x0f1f0);
    for _ in 0..16 {
        let dims = 1 + rng.index(2) as u32;
        let radix = 3 + rng.index(6);
        let src = rng.index(64);
        let dst = rng.index(64);
        let count = 10 + rng.index(110);
        let background: Vec<(usize, usize, u32)> = (0..count)
            .map(|_| (rng.index(64), rng.index(64), 1 + rng.index(25) as u32))
            .collect();
        check_pair_fifo(dims, radix, src, dst, &background);
    }
}

#[test]
fn fifo_on_wraparound_path() {
    // The monitored pair's route crosses datelines in both dimensions.
    let background: Vec<(usize, usize, u32)> =
        (0..100).map(|i| (i % 64, (i * 13 + 5) % 64, 12)).collect();
    check_pair_fifo(2, 8, 54, 9, &background); // (6,6) -> (1,1): wraps twice
}

#[test]
fn no_starvation_under_sustained_cross_traffic() {
    // Two crossing heavy flows share a column; both must finish in
    // bounded time (round-robin arbitration prevents starvation).
    let torus = Torus::new(2, 8);
    let mut fabric: Fabric<u8> = Fabric::new(torus.clone(), FabricConfig::default());
    for _ in 0..50 {
        fabric.inject(Message::new(
            torus.node_at(&[0, 0]),
            torus.node_at(&[0, 4]),
            12,
            1,
        ));
        fabric.inject(Message::new(
            torus.node_at(&[0, 1]),
            torus.node_at(&[0, 5]),
            12,
            2,
        ));
    }
    assert!(fabric.run_until_idle(200_000).unwrap());
    let s = fabric.stats();
    assert_eq!(s.delivered_messages, 100);
}

#[test]
fn unloaded_per_hop_latency_is_one_cycle() {
    // Single messages at a time: T_h must be exactly the base switch
    // delay of one network cycle at any distance.
    let torus = Torus::new(2, 8);
    let mut fabric: Fabric<()> = Fabric::new(torus.clone(), FabricConfig::default());
    for dst in [1usize, 9, 36, 27] {
        fabric.inject(Message::new(NodeId(0), NodeId(dst), 12, ()));
        assert!(fabric.run_until_idle(10_000).unwrap());
    }
    assert!((fabric.stats().avg_per_hop_latency() - 1.0).abs() < 1e-9);
}
