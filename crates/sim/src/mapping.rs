//! Thread-to-processor mappings.
//!
//! The paper's validation suite (Section 3.2) varies the average
//! communication distance of the torus-neighbour application "drastically"
//! — from one to just over six network hops — purely by changing the
//! thread-to-processor mapping. This module provides a generated
//! equivalent of that suite: structured permutations with known dilation,
//! seeded random permutations (expected distance from Eq. 17), and a
//! hill-climbing search for a near-pessimal mapping.
//!
//! Each suite mapping is defined once, by name, in
//! [`NamedMapping::by_name`]; [`suite_names`] lists a topology's names
//! (ten on a cube, six elsewhere), and [`topology_mapping_suite`] builds
//! them all. A caller that needs one mapping builds only that one.
//!
//! The hill climb ([`Mapping::maximize_app_distance`]) scores a candidate
//! swap of threads `a` and `b` over only the application edges that touch
//! `a` or `b`, found through an index of each thread's outgoing and
//! incoming edges built once per climb. Every other edge keeps both of
//! its endpoints' processors, so it adds the same distance before and
//! after the swap: the touched sums differ by exactly what the totals
//! differ by, and the climb keeps the same swaps a full rescore would.

use commloc_net::{DetRng, NodeId, Topology, Torus};

/// A bijective assignment of application threads to processors. Thread
/// `t`'s communication graph neighbours are the torus neighbours of `t`
/// interpreted as a node id (the application's communication graph *is*
/// the torus, paper Section 3.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    map: Vec<NodeId>,
}

impl Mapping {
    /// Wraps an explicit permutation.
    ///
    /// # Panics
    ///
    /// Panics if `map` is not a permutation of `0..map.len()`.
    pub fn new(map: Vec<NodeId>) -> Self {
        let mut seen = vec![false; map.len()];
        for node in &map {
            assert!(node.0 < map.len(), "node {node} out of range");
            assert!(!seen[node.0], "node {node} assigned twice");
            seen[node.0] = true;
        }
        Self { map }
    }

    /// The identity mapping: thread `t` on processor `t` — the ideal
    /// mapping for the torus-neighbour application (every communication
    /// one hop).
    pub fn identity(threads: usize) -> Self {
        Self {
            map: (0..threads).map(NodeId).collect(),
        }
    }

    /// Applies a per-coordinate transformation to every thread's torus
    /// coordinates. Used by the structured mapping constructors.
    ///
    /// # Panics
    ///
    /// Panics if the transformation is not a permutation.
    pub fn from_coordinate_fn(torus: &Torus, f: impl Fn(&[usize]) -> Vec<usize>) -> Self {
        let map = torus
            .node_ids()
            .map(|t| torus.node_at(&f(&torus.coordinates(t))))
            .collect();
        Self::new(map)
    }

    /// Multiplies one coordinate by an odd factor (mod k) — a classic
    /// dilation-`min(a, k-a)` permutation.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not coprime with the radix (not a
    /// permutation) or `dim` is out of range.
    pub fn scale_coordinate(torus: &Torus, dim: u32, factor: usize) -> Self {
        assert!(dim < torus.dims(), "dimension out of range");
        let k = torus.radix();
        Self::from_coordinate_fn(torus, |coords| {
            let mut c = coords.to_vec();
            c[dim as usize] = (c[dim as usize] * factor) % k;
            c
        })
    }

    /// Bit-reverses every coordinate (radix must be a power of two) — the
    /// FFT-style scatter mapping.
    ///
    /// # Panics
    ///
    /// Panics if the radix is not a power of two.
    pub fn bit_reversal(torus: &Torus) -> Self {
        let k = torus.radix();
        assert!(
            k.is_power_of_two(),
            "bit reversal requires power-of-two radix"
        );
        let bits = k.trailing_zeros();
        Self::from_coordinate_fn(torus, |coords| {
            coords
                .iter()
                .map(|&c| {
                    let mut r = 0usize;
                    for b in 0..bits {
                        if c & (1 << b) != 0 {
                            r |= 1 << (bits - 1 - b);
                        }
                    }
                    r
                })
                .collect()
        })
    }

    /// Shears the second coordinate by the first (`y += shear * x`),
    /// stretching one dimension's neighbours across the machine. Requires
    /// at least two dimensions.
    ///
    /// # Panics
    ///
    /// Panics if the torus has fewer than two dimensions.
    pub fn shear(torus: &Torus, shear: usize) -> Self {
        assert!(torus.dims() >= 2, "shear requires two dimensions");
        let k = torus.radix();
        Self::from_coordinate_fn(torus, |coords| {
            let mut c = coords.to_vec();
            c[1] = (c[1] + shear * c[0]) % k;
            c
        })
    }

    /// Starts from the identity and applies `swaps` random transpositions
    /// — a load-balanced way of dialing average neighbour distance
    /// smoothly between the ideal mapping and a fully random one.
    pub fn random_swaps(threads: usize, swaps: usize, seed: u64) -> Self {
        let mut rng = DetRng::new(seed);
        let mut map: Vec<NodeId> = (0..threads).map(NodeId).collect();
        for _ in 0..swaps {
            let a = rng.index(threads);
            let b = rng.index(threads);
            map.swap(a, b);
        }
        Self { map }
    }

    /// A uniformly random permutation (expected neighbour distance per
    /// Eq. 17 for large machines).
    pub fn random(threads: usize, seed: u64) -> Self {
        let mut rng = DetRng::new(seed);
        let mut map: Vec<NodeId> = (0..threads).map(NodeId).collect();
        rng.shuffle(&mut map);
        Self { map }
    }

    /// Number of threads.
    pub fn threads(&self) -> usize {
        self.map.len()
    }

    /// The processor thread `t` runs on.
    pub fn processor(&self, thread: usize) -> NodeId {
        self.map[thread]
    }

    /// Average torus distance between mapped communication-graph
    /// neighbours — the mapping's operational `d` of the paper
    /// ([`Mapping::average_app_distance`] on the cube).
    pub fn average_neighbor_distance(&self, torus: &Torus) -> f64 {
        self.average_app_distance(&Topology::Cube(torus.clone()))
    }

    /// Average fabric distance between mapped application-graph
    /// neighbours on an arbitrary topology (on a cube, whose application
    /// graph is `dim 0 +/-, dim 1 +/-, ...`, the paper's `d`).
    pub fn average_app_distance(&self, topology: &Topology) -> f64 {
        let edges = app_edges(topology);
        self.total_app_distance(topology, &edges) as f64 / edges.len() as f64
    }

    /// Total fabric distance over the application-graph `edges` (from
    /// [`app_edges`]) under this mapping.
    fn total_app_distance(&self, topology: &Topology, edges: &[(usize, usize)]) -> usize {
        assert_eq!(
            self.map.len(),
            topology.compute_nodes(),
            "mapping size mismatch"
        );
        edges
            .iter()
            .map(|&(t, p)| topology.distance(self.map[t], self.map[p]))
            .sum()
    }

    /// Hill-climbs pairwise swaps to (approximately) maximize the average
    /// application-graph distance — the pessimal end of the paper's
    /// mapping range on the torus, and its counterpart on every other
    /// fabric.
    ///
    /// A swap is kept when it lengthens the edges that touch the two
    /// swapped threads, found through a reverse edge index built once per
    /// climb. The untouched edges add the same amount before and after
    /// it, so that test decides exactly as comparing whole-graph totals
    /// would, at the cost of a few edges per swap instead of all of them.
    pub fn maximize_app_distance(topology: &Topology, seed: u64, iterations: usize) -> Self {
        let graph = AppGraph::new(topology);
        let threads = topology.compute_nodes();
        let mut rng = DetRng::new(seed);
        let mut best = Self::random(threads, seed ^ 0x5EED);
        for _ in 0..iterations {
            let a = rng.index(threads);
            let b = rng.index(threads);
            if a == b {
                continue;
            }
            let before = graph.swap_distance(topology, &best.map, a, b);
            best.map.swap(a, b);
            if graph.swap_distance(topology, &best.map, a, b) <= before {
                best.map.swap(a, b);
            }
        }
        best
    }
}

/// The application graph as `(thread, peer)` edges from
/// [`Topology::app_neighbors`], built once per scoring call rather than
/// once per rescoring.
fn app_edges(topology: &Topology) -> Vec<(usize, usize)> {
    (0..topology.compute_nodes())
        .flat_map(|t| topology.app_neighbors(t).into_iter().map(move |p| (t, p)))
        .collect()
}

/// [`app_edges`] indexed both ways, for the hill climb: each thread's
/// outgoing edges are a range of the edge table (it is grouped by
/// source), and its incoming edges a range of a flat list of edge
/// indices.
struct AppGraph {
    edges: Vec<(usize, usize)>,
    /// `edges[out_start[t]..out_start[t + 1]]` leave thread `t`.
    out_start: Vec<usize>,
    /// `in_edges[in_start[t]..in_start[t + 1]]` index the edges that
    /// end at thread `t`.
    in_start: Vec<usize>,
    in_edges: Vec<usize>,
}

impl AppGraph {
    fn new(topology: &Topology) -> Self {
        Self::from_edges(topology.compute_nodes(), app_edges(topology))
    }

    /// Indexes `edges` among `threads` threads; the edges must be grouped
    /// by source thread in ascending order, as [`app_edges`] lists them.
    fn from_edges(threads: usize, edges: Vec<(usize, usize)>) -> Self {
        let out_start = degree_offsets(threads, edges.iter().map(|&(t, _)| t));
        let in_start = degree_offsets(threads, edges.iter().map(|&(_, p)| p));
        let mut next = in_start.clone();
        let mut in_edges = vec![0; edges.len()];
        for (e, &(_, p)) in edges.iter().enumerate() {
            in_edges[next[p]] = e;
            next[p] += 1;
        }
        Self {
            edges,
            out_start,
            in_start,
            in_edges,
        }
    }

    /// Total fabric distance under `map` over the edges that touch
    /// thread `a` or `b`, each edge once. Those are the edges leaving `a`
    /// and `b`, plus the edges into `a` and `b` from any other thread:
    /// an edge into `a` or `b` from `a` or `b` (the `(a, b)` edge, a
    /// self-loop) already left one of them. Repeated edges (a radix-2
    /// torus lists one neighbour twice) are distinct edge indices, so
    /// each is counted as often as the full total counts it.
    fn swap_distance(&self, topology: &Topology, map: &[NodeId], a: usize, b: usize) -> usize {
        let outgoing = (self.out_start[a]..self.out_start[a + 1])
            .chain(self.out_start[b]..self.out_start[b + 1]);
        let incoming = self.in_edges[self.in_start[a]..self.in_start[a + 1]]
            .iter()
            .chain(&self.in_edges[self.in_start[b]..self.in_start[b + 1]])
            .copied()
            .filter(|&e| {
                let (from, _) = self.edges[e];
                from != a && from != b
            });
        outgoing
            .chain(incoming)
            .map(|e| {
                let (t, p) = self.edges[e];
                topology.distance(map[t], map[p])
            })
            .sum()
    }
}

/// Prefix offsets of `keys` grouped by value in `0..len`: entry `t` is
/// the number of keys below `t`, and the last entry is the key count.
fn degree_offsets(len: usize, keys: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut offsets = vec![0; len + 1];
    for key in keys {
        offsets[key + 1] += 1;
    }
    for t in 0..len {
        offsets[t + 1] += offsets[t];
    }
    offsets
}

/// A named mapping together with its analytic average neighbour distance.
#[derive(Debug, Clone)]
pub struct NamedMapping {
    /// Short identifier, e.g. `"identity"` or `"random-1"`.
    pub name: String,
    /// The mapping.
    pub mapping: Mapping,
    /// Average neighbour distance on the torus it was built for.
    pub distance: f64,
}

impl NamedMapping {
    /// Builds the suite mapping `name` for `topology` from `seed`, with
    /// its [`Mapping::average_app_distance`]; `None` when `name` is not
    /// in [`suite_names`] for this topology. This is the one definition
    /// of every suite mapping: [`topology_mapping_suite`] builds each of
    /// its names through it.
    pub fn by_name(topology: &Topology, seed: u64, name: &str) -> Option<Self> {
        if !suite_names(topology).contains(&name) {
            return None;
        }
        let n = topology.compute_nodes();
        let mapping = match (topology, name) {
            (_, "identity") => Mapping::identity(n),
            (_, "random-1") => Mapping::random(n, seed),
            (_, "random-2") => Mapping::random(n, seed ^ 0xABCD),
            (Topology::Cube(_), "swaps-8") => Mapping::random_swaps(n, 8, seed ^ 0x11),
            (Topology::Cube(_), "swaps-20") => Mapping::random_swaps(n, 20, seed ^ 0x22),
            (Topology::Cube(_), "swaps-48") => Mapping::random_swaps(n, 48, seed ^ 0x33),
            (Topology::Cube(torus), "scale3-x") => Mapping::scale_coordinate(torus, 0, 3),
            (Topology::Cube(torus), "scale3-xy") => Mapping::from_coordinate_fn(torus, |c| {
                c.iter().map(|&v| (v * 3) % torus.radix()).collect()
            }),
            (Topology::Cube(torus), "bitrev") => Mapping::bit_reversal(torus),
            (Topology::Cube(_), "worst") => Mapping::maximize_app_distance(topology, seed, 4000),
            (_, "swaps-light") => Mapping::random_swaps(n, n / 8 + 1, seed ^ 0x11),
            (_, "swaps-heavy") => Mapping::random_swaps(n, (3 * n) / 4, seed ^ 0x33),
            (_, "worst") => Mapping::maximize_app_distance(topology, seed, 2000),
            _ => return None,
        };
        Some(Self {
            name: name.to_owned(),
            distance: mapping.average_app_distance(topology),
            mapping,
        })
    }
}

/// The cube suite's names in their build order, which breaks distance
/// ties in [`topology_mapping_suite`].
const CUBE_SUITE: [&str; 10] = [
    "identity",
    "swaps-8",
    "scale3-x",
    "swaps-20",
    "scale3-xy",
    "bitrev",
    "swaps-48",
    "random-1",
    "random-2",
    "worst",
];

/// The suite's names on every fabric other than the cube.
const FABRIC_SUITE: [&str; 6] = [
    "identity",
    "swaps-light",
    "swaps-heavy",
    "random-1",
    "random-2",
    "worst",
];

/// The names of `topology`'s mapping suite, in the family's fixed order.
/// A cube leaves out the structured mappings its radix cannot hold as
/// permutations: `bitrev` needs a power-of-two radix, and `scale3-x` and
/// `scale3-xy` a radix that 3 does not divide.
pub fn suite_names(topology: &Topology) -> Vec<&'static str> {
    match topology {
        Topology::Cube(torus) => {
            let k = torus.radix();
            CUBE_SUITE
                .into_iter()
                .filter(|&name| match name {
                    "bitrev" => k.is_power_of_two(),
                    "scale3-x" | "scale3-xy" => k % 3 != 0,
                    _ => true,
                })
                .collect()
        }
        _ => FABRIC_SUITE.to_vec(),
    }
}

/// The validation mapping suite: on the 8x8 torus, ten mappings spanning
/// average communication distances from one to just over six hops,
/// mirroring the paper's Section 3.2 range ([`topology_mapping_suite`]
/// on the cube).
pub fn mapping_suite(torus: &Torus, seed: u64) -> Vec<NamedMapping> {
    topology_mapping_suite(&Topology::Cube(torus.clone()), seed)
}

/// The mapping suite for any topology: every name in [`suite_names`]
/// built by [`NamedMapping::by_name`] — on a cube, structured
/// permutations, graded random swaps, random permutations and a
/// hill-climbed worst mapping; elsewhere the same without the structured
/// ones. The suite is sorted by average application-graph distance
/// (stably, so ties keep the names' order).
pub fn topology_mapping_suite(topology: &Topology, seed: u64) -> Vec<NamedMapping> {
    sorted_mappings(topology, seed, suite_names(topology))
}

/// [`topology_mapping_suite`] restricted to `names`.
pub(crate) fn sorted_mappings<'a>(
    topology: &Topology,
    seed: u64,
    names: impl IntoIterator<Item = &'a str>,
) -> Vec<NamedMapping> {
    let mut suite: Vec<NamedMapping> = names
        .into_iter()
        .filter_map(|name| NamedMapping::by_name(topology, seed, name))
        .collect();
    suite.sort_by(|a, b| a.distance.total_cmp(&b.distance));
    suite
}

#[cfg(test)]
mod tests {
    use super::*;

    fn torus() -> Torus {
        Torus::new(2, 8)
    }

    /// The whole-graph hill climb: rescore every application edge after
    /// each candidate swap. The oracle the incremental climb must match
    /// swap for swap.
    fn maximize_by_full_rescore(topology: &Topology, seed: u64, iterations: usize) -> Mapping {
        let edges = app_edges(topology);
        let threads = topology.compute_nodes();
        let mut rng = DetRng::new(seed);
        let mut best = Mapping::random(threads, seed ^ 0x5EED);
        let mut best_score = best.total_app_distance(topology, &edges);
        for _ in 0..iterations {
            let a = rng.index(threads);
            let b = rng.index(threads);
            if a == b {
                continue;
            }
            best.map.swap(a, b);
            let score = best.total_app_distance(topology, &edges);
            if score > best_score {
                best_score = score;
            } else {
                best.map.swap(a, b);
            }
        }
        best
    }

    /// The topologies the climb and the by-name constructor are checked
    /// on: every cube shape below, the meshes among them, and two shapes
    /// each of fat tree and dragonfly.
    fn shapes() -> Vec<Topology> {
        let mut out = Vec::new();
        for (dims, radix) in [(2, 8), (3, 4), (2, 2), (1, 5), (2, 3)] {
            out.push(Topology::cube(dims, radix));
            if let Ok(mesh) = Topology::parse("mesh", dims, radix) {
                out.push(mesh);
            }
        }
        for spec in ["fattree", "fattree:2,5", "dragonfly", "dragonfly:4,5"] {
            out.push(Topology::parse(spec, 2, 8).unwrap());
        }
        out
    }

    #[test]
    fn incremental_climb_matches_full_rescore() {
        for topology in shapes() {
            for seed in [0, 1, 7, 1992, 12345] {
                assert_eq!(
                    Mapping::maximize_app_distance(&topology, seed, 3000),
                    maximize_by_full_rescore(&topology, seed, 3000),
                    "{} at seed {seed}",
                    topology.canonical()
                );
            }
        }
    }

    #[test]
    fn swap_distance_moves_as_the_total_does_on_any_edge_list() {
        // Every application graph a topology lists is symmetric, so the
        // incoming half of the index needs an edge list that is not: one
        // way ring edges, a repeated edge, a self-loop and an edge each
        // way between threads 0 and 1. Each touched edge counts once, and
        // the touched sum moves by exactly what the total moves by.
        let topology = Topology::cube(1, 7);
        let edges = vec![
            (0, 1),
            (0, 1),
            (1, 0),
            (1, 2),
            (2, 2),
            (2, 3),
            (3, 4),
            (4, 6),
            (5, 6),
            (6, 0),
        ];
        let graph = AppGraph::from_edges(7, edges.clone());
        let mut rng = DetRng::new(3);
        let mut mapping = Mapping::random(7, 3);
        for _ in 0..500 {
            let (a, b) = (rng.index(7), rng.index(7));
            if a == b {
                continue;
            }
            let touched = graph.swap_distance(&topology, &mapping.map, a, b) as i64;
            let each_once: usize = edges
                .iter()
                .filter(|&&(t, p)| [t, p].iter().any(|&end| end == a || end == b))
                .map(|&(t, p)| topology.distance(mapping.map[t], mapping.map[p]))
                .sum();
            assert_eq!(touched, each_once as i64, "touched edges of ({a}, {b})");
            let total = mapping.total_app_distance(&topology, &edges) as i64;
            mapping.map.swap(a, b);
            let touched_delta = graph.swap_distance(&topology, &mapping.map, a, b) as i64 - touched;
            let total_delta = mapping.total_app_distance(&topology, &edges) as i64 - total;
            assert_eq!(touched_delta, total_delta, "swap ({a}, {b})");
        }
    }

    #[test]
    fn by_name_builds_each_suite_entry_bit_for_bit() {
        let mut cases: Vec<(Topology, u64)> = shapes().into_iter().map(|t| (t, 1992)).collect();
        cases.push((Topology::cube(2, 8), 7));
        cases.push((Topology::cube(2, 6), 1992));
        for (topology, seed) in cases {
            let suite = topology_mapping_suite(&topology, seed);
            let mut names: Vec<&str> = suite.iter().map(|named| named.name.as_str()).collect();
            names.sort_unstable();
            let mut listed = suite_names(&topology);
            listed.sort_unstable();
            assert_eq!(names, listed, "{}", topology.canonical());
            for named in &suite {
                let built = NamedMapping::by_name(&topology, seed, &named.name)
                    .unwrap_or_else(|| panic!("{} on {}", named.name, topology.canonical()));
                assert_eq!(built.name, named.name);
                assert_eq!(built.mapping, named.mapping, "{}", named.name);
                assert_eq!(built.distance.to_bits(), named.distance.to_bits());
            }
            assert!(NamedMapping::by_name(&topology, seed, "no-such-mapping").is_none());
        }
    }

    #[test]
    fn cube_suite_leaves_out_what_the_radix_cannot_hold() {
        let names = |radix| suite_names(&Topology::cube(2, radix));
        assert_eq!(names(8).len(), 10, "the paper's 8x8 suite keeps all ten");
        assert_eq!(names(8), CUBE_SUITE);
        assert!(!names(5).contains(&"bitrev"));
        assert!(names(5).contains(&"scale3-x"));
        for radix in [3, 6, 9] {
            let listed = names(radix);
            assert!(!listed.contains(&"scale3-x") && !listed.contains(&"scale3-xy"));
            assert!(NamedMapping::by_name(&Topology::cube(2, radix), 1, "scale3-x").is_none());
        }
        assert!(NamedMapping::by_name(&Topology::cube(2, 6), 1, "bitrev").is_none());
        assert_eq!(suite_names(&Topology::mesh(4, 4)), FABRIC_SUITE);
        // Names of one family are not names of the other.
        assert!(NamedMapping::by_name(&Topology::mesh(4, 4), 1, "bitrev").is_none());
        assert!(NamedMapping::by_name(&Topology::cube(2, 4), 1, "swaps-light").is_none());
    }

    /// FNV-1a over every entry's name, distance bits and permutation, in
    /// suite order.
    fn suite_digest(topology: &Topology, seed: u64) -> u64 {
        let mut text = String::new();
        for named in topology_mapping_suite(topology, seed) {
            text.push_str(&format!(
                "{}:{:016x}:",
                named.name,
                named.distance.to_bits()
            ));
            for t in 0..named.mapping.threads() {
                text.push_str(&format!("{},", named.mapping.processor(t).0));
            }
            text.push(';');
        }
        crate::workload::fnv1a(text.as_bytes())
    }

    #[test]
    fn suites_are_pinned_on_every_family() {
        // Recorded from the whole-graph climb, so the incremental one is
        // held to it on every family: any drift in a mapping, its
        // distance or the suite order fails here.
        for (topology, seed, digest) in [
            (Topology::cube(2, 8), 1992, 0xef29_7cfb_c119_a38e),
            (Topology::cube(2, 8), 7, 0xb766_9333_e8d6_de2e),
            (Topology::cube(3, 4), 1992, 0x18f2_0744_296f_e5c7),
            (Topology::cube(2, 16), 1992, 0xe0c4_7587_687b_20d1),
            (Topology::mesh(8, 8), 1992, 0xab2b_73ea_987c_2004),
            (Topology::fat_tree(4, 3), 1992, 0x0ea7_24ba_e55f_8992),
            (Topology::dragonfly(4, 4), 1992, 0x1a03_9611_cb54_ae6e),
        ] {
            assert_eq!(
                suite_digest(&topology, seed),
                digest,
                "{} at seed {seed}",
                topology.canonical()
            );
        }
    }

    #[test]
    fn identity_distance_is_one() {
        let t = torus();
        let m = Mapping::identity(64);
        assert_eq!(m.average_neighbor_distance(&t), 1.0);
    }

    #[test]
    #[should_panic(expected = "assigned twice")]
    fn rejects_non_permutation() {
        Mapping::new(vec![NodeId(0), NodeId(0)]);
    }

    #[test]
    fn scale3_distance_is_expected() {
        let t = torus();
        // Scaling x by 3: x-neighbours land 3 apart, y-neighbours 1.
        let m = Mapping::scale_coordinate(&t, 0, 3);
        assert_eq!(m.average_neighbor_distance(&t), 2.0);
        let m2 = Mapping::from_coordinate_fn(&t, |c| c.iter().map(|&v| (v * 3) % 8).collect());
        assert_eq!(m2.average_neighbor_distance(&t), 3.0);
    }

    #[test]
    fn shear_stretches_one_dimension() {
        let t = torus();
        // shear 4: x-neighbours land (1, 4) apart -> 5 hops; y-neighbours
        // stay 1 hop. Average (5 + 1) / 2 = 3.
        let m = Mapping::shear(&t, 4);
        assert_eq!(m.average_neighbor_distance(&t), 3.0);
    }

    #[test]
    fn bit_reversal_distance() {
        let t = torus();
        let m = Mapping::bit_reversal(&t);
        // Per-dimension neighbour distances of 3-bit reversal average 3.
        assert_eq!(m.average_neighbor_distance(&t), 3.0);
    }

    #[test]
    fn random_mapping_near_eq17() {
        let t = torus();
        let mut sum = 0.0;
        for seed in 0..10 {
            sum += Mapping::random(64, seed).average_neighbor_distance(&t);
        }
        let avg = sum / 10.0;
        // Eq. 17 gives 4.06 for random communication.
        assert!((avg - 4.06).abs() < 0.35, "avg {avg}");
    }

    #[test]
    fn worst_mapping_beats_random() {
        let t = torus();
        let cube = Topology::Cube(t.clone());
        let random = Mapping::random(64, 11).average_neighbor_distance(&t);
        let worst = Mapping::maximize_app_distance(&cube, 11, 4000).average_neighbor_distance(&t);
        assert!(worst > random + 0.8, "worst={worst} random={random}");
        assert!(worst > 6.0, "paper suite tops out just over six: {worst}");
    }

    #[test]
    fn random_swaps_interpolate_distance() {
        let t = torus();
        let d8 = Mapping::random_swaps(64, 8, 3).average_neighbor_distance(&t);
        let d48 = Mapping::random_swaps(64, 48, 3).average_neighbor_distance(&t);
        assert!(d8 > 1.0 && d8 < 3.0, "d8 = {d8}");
        assert!(d48 > d8, "d48 = {d48} not past d8 = {d8}");
        assert_eq!(
            Mapping::random_swaps(64, 0, 3),
            Mapping::identity(64),
            "zero swaps is the identity"
        );
    }

    #[test]
    fn suite_spans_one_to_six_hops() {
        let t = torus();
        let suite = mapping_suite(&t, 42);
        assert!(suite.len() >= 9, "paper used nine mappings");
        assert_eq!(suite.first().unwrap().distance, 1.0);
        assert!(suite.last().unwrap().distance > 6.0);
        // Sorted and reasonably spread.
        for pair in suite.windows(2) {
            assert!(pair[0].distance <= pair[1].distance);
        }
        let distinct: std::collections::BTreeSet<u64> =
            suite.iter().map(|m| (m.distance * 4.0) as u64).collect();
        assert!(distinct.len() >= 6, "suite too clustered: {distinct:?}");
    }

    #[test]
    fn suite_mappings_are_permutations() {
        let t = torus();
        for named in mapping_suite(&t, 7) {
            // Constructor validated; double-check threads() and range.
            assert_eq!(named.mapping.threads(), 64);
            let mut seen = [false; 64];
            for thread in 0..64 {
                let p = named.mapping.processor(thread);
                assert!(!seen[p.0], "{}: duplicate {p}", named.name);
                seen[p.0] = true;
            }
        }
    }

    #[test]
    fn mapping_determinism() {
        let t = torus();
        let cube = Topology::Cube(t.clone());
        assert_eq!(Mapping::random(64, 5), Mapping::random(64, 5));
        assert_eq!(
            Mapping::maximize_app_distance(&cube, 5, 500),
            Mapping::maximize_app_distance(&cube, 5, 500)
        );
        // The paper suite, pinned exactly: a drifting hill climb or
        // scorer fails here, not only past the CLI goldens' 5% tolerance.
        let suite = mapping_suite(&t, 1992);
        let distances: Vec<(&str, f64)> = suite
            .iter()
            .map(|named| (named.name.as_str(), named.distance))
            .collect();
        assert_eq!(
            distances,
            [
                ("identity", 1.0),
                ("scale3-x", 2.0),
                ("swaps-8", 2.71875),
                ("scale3-xy", 3.0),
                ("bitrev", 3.0),
                ("swaps-20", 3.453125),
                ("swaps-48", 3.6875),
                ("random-2", 3.9375),
                ("random-1", 4.078125),
                ("worst", 6.09375),
            ]
        );
        // The topology-generic entry point serves the same suite on a cube.
        let generic = topology_mapping_suite(&cube, 1992);
        assert_eq!(generic.len(), suite.len());
        for (g, s) in generic.iter().zip(&suite) {
            assert_eq!(
                (&g.name, &g.mapping, g.distance),
                (&s.name, &s.mapping, s.distance)
            );
        }
    }
}
