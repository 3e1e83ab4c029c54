//! Tests of the torus's e-cube routing and dateline virtual-channel
//! classes.
//!
//! The routing itself is the `Cube` arm of
//! [`Topology::route_hop`](crate::Topology::route_hop); this module is
//! compiled only for tests and holds no routing code of its own.

#[cfg(test)]
mod tests {
    use crate::topology::{dateline_vc, port_to_link};
    use crate::{Direction, NodeId, PortStep, Topology, VcIndex};

    /// The paper's 8x8 torus.
    fn torus() -> Topology {
        Topology::cube(2, 8)
    }

    /// One hop of a route.
    struct Hop {
        /// Dimension travelled.
        dim: u32,
        /// Direction along the ring.
        direction: Direction,
        /// Dateline virtual-channel class of the hop.
        vc: VcIndex,
        /// The node the hop reaches.
        to: NodeId,
    }

    /// Follows `route_hop` hop by hop from `src` until it ejects, which
    /// must be at `dst`.
    fn route_path(t: &Topology, src: NodeId, dst: NodeId) -> Vec<Hop> {
        let mut path = Vec::new();
        let mut current = src;
        while let PortStep::Forward { port, vc } = t.route_hop(src, dst, current) {
            let (dim, direction) = port_to_link(port);
            current = t
                .link_dest(current, port)
                .expect("every cube port is linked");
            path.push(Hop {
                dim,
                direction,
                vc,
                to: current,
            });
            assert!(path.len() <= t.nodes(), "route {src}->{dst} loops");
        }
        assert_eq!(current, dst, "route {src}->{dst} ejected early");
        path
    }

    #[test]
    fn path_length_equals_torus_distance() {
        let t = torus();
        for a in t.as_torus().node_ids() {
            for b in t.as_torus().node_ids() {
                let path = route_path(&t, a, b);
                assert_eq!(
                    path.len(),
                    t.distance(a, b),
                    "path from {a} to {b} not minimal"
                );
                if a != b {
                    assert_eq!(path.last().unwrap().to, b);
                }
            }
        }
    }

    #[test]
    fn dimension_order_is_respected() {
        let t = torus();
        let torus = t.as_torus();
        let src = torus.node_at(&[1, 1]);
        let dst = torus.node_at(&[4, 5]);
        let path = route_path(&t, src, dst);
        // First corrects dim 0 (3 hops), then dim 1 (4 hops, the tie
        // going Plus).
        assert_eq!(path.len(), 7);
        assert!(path.iter().all(|hop| hop.direction == Direction::Plus));
        for hop in &path[..3] {
            assert_eq!(hop.dim, 0);
            assert_eq!(torus.coordinate(hop.to, 1), 1, "dim 1 moved early");
        }
        for hop in &path[3..] {
            assert_eq!(hop.dim, 1);
            assert_eq!(torus.coordinate(hop.to, 0), 4, "dim 0 moved late");
        }
        for a in torus.node_ids() {
            for b in torus.node_ids() {
                let dims: Vec<u32> = route_path(&t, a, b).iter().map(|hop| hop.dim).collect();
                assert!(dims.is_sorted(), "{a}->{b} left dimension order: {dims:?}");
            }
        }
    }

    #[test]
    fn arrival_ejects() {
        let t = torus();
        let n = t.as_torus().node_at(&[3, 3]);
        assert_eq!(t.route_hop(n, n, n), PortStep::Eject);
        let src = t.as_torus().node_at(&[6, 0]);
        assert_eq!(t.route_hop(src, n, n), PortStep::Eject);
    }

    #[test]
    fn dateline_plus_no_wrap() {
        // 1 -> 5 travelling Plus never wraps: always class 0.
        for cur in 1..=5 {
            assert_eq!(dateline_vc(1, 5, cur, Direction::Plus), 0);
        }
    }

    #[test]
    fn dateline_plus_with_wrap() {
        // 6 -> 2 travelling Plus: 6, 7 are pre-wrap; 0, 1, 2 post-wrap.
        assert_eq!(dateline_vc(6, 2, 6, Direction::Plus), 0);
        assert_eq!(dateline_vc(6, 2, 7, Direction::Plus), 0);
        assert_eq!(dateline_vc(6, 2, 0, Direction::Plus), 1);
        assert_eq!(dateline_vc(6, 2, 1, Direction::Plus), 1);
        assert_eq!(dateline_vc(6, 2, 2, Direction::Plus), 1);
    }

    #[test]
    fn dateline_minus_with_wrap() {
        // 1 -> 6 travelling Minus: 1, 0 pre-wrap; 7, 6 post-wrap.
        assert_eq!(dateline_vc(1, 6, 1, Direction::Minus), 0);
        assert_eq!(dateline_vc(1, 6, 0, Direction::Minus), 0);
        assert_eq!(dateline_vc(1, 6, 7, Direction::Minus), 1);
        assert_eq!(dateline_vc(1, 6, 6, Direction::Minus), 1);
    }

    #[test]
    fn dateline_class_never_decreases_along_path() {
        // Following any route, once a message switches to VC 1 within a
        // dimension it stays there until the dimension is done — the
        // acyclicity invariant behind deadlock freedom.
        let t = torus();
        for a in t.as_torus().node_ids() {
            for b in t.as_torus().node_ids() {
                let mut last: Option<(u32, VcIndex)> = None;
                for hop in route_path(&t, a, b) {
                    if let Some((last_dim, last_vc)) = last {
                        if last_dim == hop.dim {
                            assert!(
                                hop.vc >= last_vc,
                                "vc decreased within dim {} on {a}->{b}",
                                hop.dim
                            );
                        }
                    }
                    last = Some((hop.dim, hop.vc));
                }
            }
        }
    }

    #[test]
    fn route_starts_on_vc0() {
        // The first hop in every dimension leaves from the entry
        // coordinate, which by definition has not crossed the dateline.
        let t = torus();
        for a in t.as_torus().node_ids() {
            for b in t.as_torus().node_ids() {
                let mut last_dim = None;
                for hop in route_path(&t, a, b) {
                    if last_dim != Some(hop.dim) {
                        assert_eq!(hop.vc, 0, "dim {} of {a}->{b} not entered on vc0", hop.dim);
                    }
                    last_dim = Some(hop.dim);
                }
            }
        }
    }
}
