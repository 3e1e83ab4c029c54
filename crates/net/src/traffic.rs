//! The open-loop traffic source: synthetic load that drives the fabric
//! without a processor model, as in Agarwal's original network analysis.
//!
//! [`BernoulliTraffic`] is the crate's one generator. The fabric
//! differential fuzzer ([`crate::fuzz`]) and the engine equivalence
//! tests draw their injection streams from it, and a property test
//! compares the fabric's channel utilization under its uniform load
//! with the analytical `NetworkModel`'s Eq. 10. The full-system
//! simulator (`commloc-sim`) instead closes the loop through the
//! processor and coherence models, which is the paper's central point.

use crate::message::Message;
use crate::rng::DetRng;
use crate::topology::NodeId;
use std::ops::RangeInclusive;

/// Destination pattern of a [`BernoulliTraffic`] source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficPattern {
    /// Uniformly random destinations, the source included: a self-send
    /// exercises the network interface's loopback path.
    Uniform,
    /// A `fraction` of messages aims at one compute node; the rest are
    /// uniform.
    Hotspot {
        /// The congested compute node.
        target: usize,
        /// Fraction of messages aimed at it.
        fraction: f64,
    },
    /// Matrix transpose ([`transpose_peer`]), adversarial for
    /// dimension-ordered routing.
    Transpose,
    /// Two-state MMPP burst gating in front of uniform destinations:
    /// while ON a node injects at the source's rate, while OFF it is
    /// silent. The long-run rate is `rate * off_on / (on_off + off_on)`.
    Bursty {
        /// Per-cycle ON -> OFF probability.
        on_off: f64,
        /// Per-cycle OFF -> ON probability.
        off_on: f64,
    },
}

/// The transpose peer of `node` among `nodes` nodes: `(r, c) -> (c, r)`
/// on a `k x k` arrangement when `nodes` is a perfect square, index
/// reversal (`nodes - 1 - node`) otherwise. An involution either way.
pub fn transpose_peer(node: usize, nodes: usize) -> usize {
    let k = (nodes as f64).sqrt() as usize;
    if k * k == nodes {
        (node % k) * k + node / k
    } else {
        nodes - 1 - node
    }
}

/// An open-loop Bernoulli source: each cycle every compute node (while
/// in a burst, under [`TrafficPattern::Bursty`]) starts a message with
/// probability `rate`. All draws come from one [`DetRng`], so the seed
/// fixes the whole stream, and two sources with equal arguments feed two
/// engines identical schedules.
#[derive(Debug, Clone)]
pub struct BernoulliTraffic {
    rng: DetRng,
    nodes: usize,
    pattern: TrafficPattern,
    rate: f64,
    lengths: RangeInclusive<u32>,
    /// Per-node burst state (read only under [`TrafficPattern::Bursty`]).
    burst_on: Vec<bool>,
}

impl BernoulliTraffic {
    /// A source over `nodes` compute nodes whose message lengths, in
    /// flits, are uniform over `lengths`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not within `[0, 1]`, `lengths` is empty or
    /// admits a zero-flit message, or a hotspot target is not one of the
    /// `nodes`.
    pub fn new(
        nodes: usize,
        pattern: TrafficPattern,
        rate: f64,
        lengths: RangeInclusive<u32>,
        seed: u64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        assert!(
            *lengths.start() > 0 && !lengths.is_empty(),
            "messages must contain flits"
        );
        if let TrafficPattern::Hotspot { target, .. } = pattern {
            assert!(
                target < nodes,
                "hotspot target {target} is not a compute node"
            );
        }
        Self {
            rng: DetRng::new(seed),
            nodes,
            pattern,
            rate,
            lengths,
            burst_on: vec![false; nodes],
        }
    }

    /// This cycle's new messages in source order, each carrying a random
    /// `u64` payload. Per source the draws are: the burst transition
    /// (bursty only), the injection roll, then for an injecting source
    /// the destination, the length and the payload.
    pub fn pulse(&mut self) -> Vec<Message<u64>> {
        let mut out = Vec::new();
        for src in 0..self.nodes {
            if let TrafficPattern::Bursty { on_off, off_on } = self.pattern {
                let on = if self.burst_on[src] {
                    !self.rng.chance(on_off)
                } else {
                    self.rng.chance(off_on)
                };
                self.burst_on[src] = on;
                if !on {
                    continue;
                }
            }
            if !self.rng.chance(self.rate) {
                continue;
            }
            let dst = match self.pattern {
                TrafficPattern::Uniform | TrafficPattern::Bursty { .. } => {
                    self.rng.index(self.nodes)
                }
                TrafficPattern::Hotspot { target, fraction } => {
                    if self.rng.chance(fraction) {
                        target
                    } else {
                        self.rng.index(self.nodes)
                    }
                }
                TrafficPattern::Transpose => transpose_peer(src, self.nodes),
            };
            let length = self.rng.range_u64(
                u64::from(*self.lengths.start()),
                u64::from(*self.lengths.end()) + 1,
            ) as u32;
            let payload = self.rng.next_u64();
            out.push(Message::new(NodeId(src), NodeId(dst), length, payload));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{Fabric, FabricConfig};
    use crate::topology::{Topology, Torus};

    fn fabric() -> Fabric<u64> {
        Fabric::new(Torus::new(2, 8), FabricConfig::default())
    }

    /// Drives `fabric` with `traffic` for `cycles` cycles.
    fn drive(fabric: &mut Fabric<u64>, traffic: &mut BernoulliTraffic, cycles: u64) {
        for _ in 0..cycles {
            for m in traffic.pulse() {
                fabric.inject(m);
            }
            fabric.step().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "rate must be in")]
    fn rejects_bad_rate() {
        BernoulliTraffic::new(64, TrafficPattern::Uniform, 1.5, 12..=12, 1);
    }

    #[test]
    fn injection_rate_matches_request() {
        let mut f = fabric();
        let rate = 0.01;
        let mut traffic = BernoulliTraffic::new(64, TrafficPattern::Uniform, rate, 12..=12, 42);
        let cycles = 20_000;
        drive(&mut f, &mut traffic, cycles);
        let measured = f.stats().injected_messages as f64 / (cycles as f64 * 64.0);
        assert!(
            (measured - rate).abs() / rate < 0.1,
            "requested {rate}, measured {measured}"
        );
    }

    #[test]
    fn uniform_random_traffic_drains() {
        let mut f = fabric();
        let mut traffic = BernoulliTraffic::new(64, TrafficPattern::Uniform, 0.005, 12..=12, 7);
        drive(&mut f, &mut traffic, 5_000);
        assert!(f.run_until_idle(100_000).unwrap(), "traffic did not drain");
        let s = f.stats();
        assert!(s.delivered_messages > 1_000);
        // Mean distance should approximate Eq. 17's 4.06 hops.
        let d = s.avg_distance();
        assert!((d - 4.06).abs() < 0.3, "mean distance {d}");
    }

    #[test]
    fn hotspot_concentrates_deliveries() {
        let mut f = fabric();
        let pattern = TrafficPattern::Hotspot {
            target: 27,
            fraction: 0.8,
        };
        let mut traffic = BernoulliTraffic::new(64, pattern, 0.005, 12..=12, 11);
        drive(&mut f, &mut traffic, 5_000);
        assert!(f.run_until_idle(100_000).unwrap());
        let mut hot = 0usize;
        let mut total = 0usize;
        for node in 0..64 {
            let mut here = 0usize;
            while f.poll_delivery(NodeId(node)).is_some() {
                here += 1;
            }
            total += here;
            if node == 27 {
                hot = here;
            }
        }
        assert!(total > 500);
        // ~80% of traffic aims at node 27.
        assert!(
            hot as f64 / total as f64 > 0.5,
            "hotspot received {hot}/{total}"
        );
    }

    #[test]
    fn transpose_is_a_fixed_permutation() {
        let mut f = fabric();
        let mut traffic = BernoulliTraffic::new(64, TrafficPattern::Transpose, 0.01, 12..=12, 13);
        drive(&mut f, &mut traffic, 2_000);
        assert!(f.run_until_idle(50_000).unwrap());
        let mut seen = 0usize;
        for node in 0..64usize {
            let (r, c) = (node / 8, node % 8);
            let expect_src = NodeId(node / 8 + (node % 8) * 8);
            while let Some(d) = f.poll_delivery(NodeId(node)) {
                // Every delivery at (r, c) came from (c, r).
                assert_eq!(d.message.src, expect_src, "delivery at ({r}, {c})");
                seen += 1;
            }
        }
        assert!(seen > 200);
    }

    #[test]
    fn bursty_long_run_rate_matches_duty_cycle() {
        let mut f = fabric();
        let pattern = TrafficPattern::Bursty {
            on_off: 0.02,
            off_on: 0.02,
        };
        let rate = 0.01;
        let mut traffic = BernoulliTraffic::new(64, pattern, rate, 12..=12, 17);
        let cycles = 40_000;
        drive(&mut f, &mut traffic, cycles);
        let measured = f.stats().injected_messages as f64 / (cycles as f64 * 64.0);
        // Duty cycle off_on / (on_off + off_on) = 0.5.
        let expected = rate * 0.5;
        assert!(
            (measured - expected).abs() / expected < 0.2,
            "expected ~{expected}, measured {measured}"
        );
    }

    #[test]
    fn patterns_drive_every_topology() {
        for topo in [
            Topology::cube(2, 4),
            Topology::mesh(4, 4),
            Topology::fat_tree(2, 3),
            Topology::dragonfly(3, 2),
        ] {
            let n = topo.compute_nodes();
            for pattern in [
                TrafficPattern::Uniform,
                TrafficPattern::Transpose,
                TrafficPattern::Hotspot {
                    target: 1,
                    fraction: 0.5,
                },
                TrafficPattern::Bursty {
                    on_off: 0.1,
                    off_on: 0.1,
                },
            ] {
                let mut f: Fabric<u64> = Fabric::new(topo.clone(), FabricConfig::default());
                let mut traffic = BernoulliTraffic::new(n, pattern, 0.02, 4..=4, 23);
                drive(&mut f, &mut traffic, 500);
                assert!(
                    f.run_until_idle(200_000).unwrap(),
                    "{} did not drain",
                    topo.canonical()
                );
                assert!(f.stats().delivered_messages > 0, "{}", topo.canonical());
            }
        }
    }
}
