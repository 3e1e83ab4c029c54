//! Interconnect topologies: coordinates, distances, neighbor relations,
//! and the one deterministic routing function per fabric.
//!
//! The paper's Section 3 machine is a [`Torus`] with separate
//! unidirectional channels in both directions of every dimension, routed
//! dimension by dimension (e-cube) with dateline virtual channels.
//! [`Topology`] puts that cube beside a mesh, a fat tree and a dragonfly;
//! [`Topology::route_hop`] is the only place a route is computed.

use std::fmt;

/// Identifies a node (and its router) in the fabric. Node ids are the
/// row-major linearization of torus coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Direction of travel along a torus dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Increasing coordinate (with wraparound `k-1 -> 0`).
    Plus,
    /// Decreasing coordinate (with wraparound `0 -> k-1`).
    Minus,
}

impl Direction {
    /// Both directions, in canonical order.
    pub const ALL: [Direction; 2] = [Direction::Plus, Direction::Minus];

    /// The canonical index of the direction (Plus = 0, Minus = 1).
    pub fn index(self) -> usize {
        match self {
            Direction::Plus => 0,
            Direction::Minus => 1,
        }
    }
}

/// Index of a virtual channel on a physical link.
pub type VcIndex = usize;

/// Number of virtual-channel classes the deterministic routes use: the
/// dateline classes on the cube, up/down on the fat tree, and
/// pre-global/post-global on the dragonfly.
pub const DATELINE_VCS: usize = 2;

/// Most routers a fabric built from user input may have: 2^21, which
/// admits a 1000 x 1000 torus. Front ends hold shapes to it
/// ([`Topology::try_cube`], [`Topology::parse`], [`Topology::check_size`])
/// before allocating anything, because a machine costs kilobytes a node
/// and a larger request would abort on allocation instead of returning
/// an error.
pub const MAX_NODES: usize = 1 << 21;

/// The cube/mesh output port for travel along `dim` in `direction`:
/// ports are numbered `2 * dim + direction.index()`.
pub(crate) fn link_to_port(dim: u32, direction: Direction) -> usize {
    dim as usize * 2 + direction.index()
}

/// The `(dimension, direction)` a cube/mesh output port travels along
/// (the inverse of `link_to_port`).
pub(crate) fn port_to_link(port: usize) -> (u32, Direction) {
    let dim = (port / 2) as u32;
    let dir = if port.is_multiple_of(2) {
        Direction::Plus
    } else {
        Direction::Minus
    };
    (dim, dir)
}

/// The dateline virtual-channel class for a hop departing coordinate
/// `current` of a ring, for a message that entered the ring at `entry`
/// and leaves it at `exit`, travelling `direction`.
///
/// Class 1 means the message has already crossed the ring's wraparound
/// edge (`k-1 -> 0` for [`Direction::Plus`], `0 -> k-1` for
/// [`Direction::Minus`]); class 0 means it has not. Switching class at
/// the dateline breaks each ring's cyclic channel dependency (the
/// Dally–Seitz construction).
pub(crate) fn dateline_vc(
    entry: usize,
    exit: usize,
    current: usize,
    direction: Direction,
) -> VcIndex {
    let crossed = match direction {
        // Increasing coordinates wrap only if exit < entry; positions at
        // or below the exit have crossed.
        Direction::Plus => exit < entry && current <= exit,
        // Decreasing coordinates wrap only if exit > entry; positions at
        // or above the exit have crossed.
        Direction::Minus => exit > entry && current >= exit,
    };
    usize::from(crossed)
}

/// A k-ary n-dimensional torus.
///
/// # Examples
///
/// ```
/// use commloc_net::{NodeId, Torus};
///
/// let torus = Torus::new(2, 8); // the paper's 8x8 machine
/// assert_eq!(torus.nodes(), 64);
/// // Opposite corners of an 8x8 torus are 4+4 hops apart.
/// assert_eq!(torus.distance(NodeId(0), torus.node_at(&[4, 4])), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Torus {
    radix: usize,
    dims: u32,
}

impl Torus {
    /// Creates a torus with `dims` dimensions of radix `radix`.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is zero or `radix` is zero (a torus needs at least
    /// one node per ring).
    pub fn new(dims: u32, radix: usize) -> Self {
        assert!(dims > 0, "torus must have at least one dimension");
        assert!(radix > 0, "torus radix must be at least 1");
        Self { radix, dims }
    }

    /// The number of dimensions `n`.
    pub fn dims(&self) -> u32 {
        self.dims
    }

    /// The per-dimension radix `k`.
    pub fn radix(&self) -> usize {
        self.radix
    }

    /// Total number of nodes `k^n`.
    pub fn nodes(&self) -> usize {
        self.radix.pow(self.dims)
    }

    /// The coordinates of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn coordinates(&self, node: NodeId) -> Vec<usize> {
        assert!(node.0 < self.nodes(), "node {node} out of range");
        let mut rest = node.0;
        let mut coords = vec![0; self.dims as usize];
        for c in coords.iter_mut() {
            *c = rest % self.radix;
            rest /= self.radix;
        }
        coords
    }

    /// The node at the given coordinates.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate count does not match the dimension count
    /// or any coordinate is out of range.
    pub fn node_at(&self, coords: &[usize]) -> NodeId {
        assert_eq!(
            coords.len(),
            self.dims as usize,
            "coordinate count must equal dimension count"
        );
        let mut id = 0;
        for (i, &c) in coords.iter().enumerate().rev() {
            assert!(c < self.radix, "coordinate {c} out of range in dim {i}");
            id = id * self.radix + c;
        }
        NodeId(id)
    }

    /// The coordinate of `node` in dimension `dim` only (cheaper than
    /// materializing all coordinates).
    pub fn coordinate(&self, node: NodeId, dim: u32) -> usize {
        (node.0 / self.radix.pow(dim)) % self.radix
    }

    /// The neighbor of `node` one hop away in `dim`/`direction`.
    pub fn neighbor(&self, node: NodeId, dim: u32, direction: Direction) -> NodeId {
        let mut coords = self.coordinates(node);
        let c = coords[dim as usize];
        coords[dim as usize] = match direction {
            Direction::Plus => (c + 1) % self.radix,
            Direction::Minus => (c + self.radix - 1) % self.radix,
        };
        self.node_at(&coords)
    }

    /// Minimal hop distance between `a` and `b` in a single dimension's
    /// ring, given their coordinates in that dimension.
    pub fn ring_distance(&self, from: usize, to: usize) -> usize {
        let fwd = (to + self.radix - from) % self.radix;
        fwd.min(self.radix - fwd)
    }

    /// The minimal-direction hop count and direction of travel in one
    /// dimension. Ties (exactly half way around an even ring) resolve to
    /// [`Direction::Plus`], matching the deterministic e-cube router.
    pub fn ring_step(&self, from: usize, to: usize) -> (usize, Direction) {
        let fwd = (to + self.radix - from) % self.radix;
        let bwd = self.radix - fwd;
        if fwd == 0 {
            (0, Direction::Plus)
        } else if fwd <= bwd {
            (fwd, Direction::Plus)
        } else {
            (bwd, Direction::Minus)
        }
    }

    /// Minimal torus (hop) distance between two nodes — the number of
    /// network hops an e-cube-routed message between them traverses.
    pub fn distance(&self, a: NodeId, b: NodeId) -> usize {
        (0..self.dims)
            .map(|d| self.ring_distance(self.coordinate(a, d), self.coordinate(b, d)))
            .sum()
    }

    /// Average distance between all ordered pairs of *distinct* nodes —
    /// the exact finite-machine counterpart of the paper's Eq. 17.
    pub fn mean_pairwise_distance(&self) -> f64 {
        let n = self.nodes();
        if n <= 1 {
            return 0.0;
        }
        // Sum of distances from one node to all others; by symmetry every
        // source sees the same multiset of distances.
        let origin = NodeId(0);
        let total: usize = (0..n)
            .filter(|&i| i != origin.0)
            .map(|i| self.distance(origin, NodeId(i)))
            .sum();
        total as f64 / (n - 1) as f64
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes()).map(NodeId)
    }
}

/// One routing decision at a router, in port form: which output port and
/// which virtual-channel *class* the head flit requests next. Routers
/// need not know what a port physically means.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortStep {
    /// Leave on output port `port` using virtual-channel class `vc`.
    Forward {
        /// Output port index, `< Topology::ports()`.
        port: usize,
        /// Virtual-channel class for the hop (`< DATELINE_VCS`).
        vc: VcIndex,
    },
    /// The message has arrived; eject to the local node.
    Eject,
}

/// An interconnect topology the fabric can instantiate.
///
/// Every variant answers the same five questions: how many routers exist
/// (`nodes`), which of them host compute (`compute_nodes` — always ids
/// `0..compute_nodes()`), how routers are wired (`link_dest`,
/// `link_in_port`, `upstream`), how a message routes deterministically
/// (`route_hop`), and how far apart nodes are (`distance`,
/// `distance_distribution`).
///
/// This is a concrete enum rather than a trait object so that the fabric
/// stays non-generic and the topology stays `Clone + PartialEq + Hash`
/// for scenario cache keys (see DESIGN.md §4.13 for the trade-off).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Topology {
    /// k-ary n-cube torus (the paper's machine).
    Cube(Torus),
    /// Non-wrapping 2D mesh.
    Mesh(Mesh2D),
    /// Complete arity-ary fat tree; compute lives on the leaves.
    FatTree(FatTree),
    /// Dragonfly with fully connected groups and one global channel per
    /// group pair.
    Dragonfly(Dragonfly),
}

impl From<Torus> for Topology {
    fn from(torus: Torus) -> Self {
        Topology::Cube(torus)
    }
}

/// A non-wrapping `x` by `y` mesh. Node ids are row-major with the x
/// coordinate fastest, matching the torus linearization; ports follow the
/// torus convention (`2*dim + direction.index()`), with edge ports simply
/// absent.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Mesh2D {
    x: usize,
    y: usize,
}

impl Mesh2D {
    /// Creates an `x` by `y` mesh.
    ///
    /// # Panics
    ///
    /// Panics if either side is zero.
    pub fn new(x: usize, y: usize) -> Self {
        assert!(x > 0 && y > 0, "mesh sides must be at least 1");
        Self { x, y }
    }

    /// The mesh's `(x, y)` side lengths.
    pub fn shape(&self) -> (usize, usize) {
        (self.x, self.y)
    }

    fn coords(&self, node: NodeId) -> (usize, usize) {
        (node.0 % self.x, node.0 / self.x)
    }

    fn at(&self, cx: usize, cy: usize) -> NodeId {
        NodeId(cy * self.x + cx)
    }
}

/// A complete `arity`-ary tree with `levels` switch levels above the
/// leaves. Leaves (the compute nodes) are ids `0..arity^levels`; switches
/// are numbered level by level above them, root last. Every node has
/// `arity + 1` ports: ports `0..arity` lead down to children (absent on
/// leaves), port `arity` leads up to the parent (absent on the root).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FatTree {
    arity: usize,
    levels: u32,
}

impl FatTree {
    /// Creates a fat tree with the given arity and switch-level count.
    ///
    /// # Panics
    ///
    /// Panics if `arity < 2` or `levels == 0`.
    pub fn new(arity: usize, levels: u32) -> Self {
        assert!(arity >= 2, "fat tree arity must be at least 2");
        assert!(levels > 0, "fat tree needs at least one switch level");
        Self { arity, levels }
    }

    /// Number of leaves (compute nodes).
    pub fn leaves(&self) -> usize {
        self.arity.pow(self.levels)
    }

    /// Children per switch.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Switch levels above the leaves.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Id offset of the first switch at `level` (level 0 = leaves).
    fn level_offset(&self, level: u32) -> usize {
        let mut offset = 0;
        for l in 0..level {
            offset += self.arity.pow(self.levels - l);
        }
        offset
    }

    /// Splits a node id into `(level, index within level)`.
    fn locate(&self, node: NodeId) -> (u32, usize) {
        let mut rest = node.0;
        for level in 0..=self.levels {
            let count = self.arity.pow(self.levels - level);
            if rest < count {
                return (level, rest);
            }
            rest -= count;
        }
        panic!("fat-tree node {node} out of range");
    }

    fn id_at(&self, level: u32, index: usize) -> NodeId {
        NodeId(self.level_offset(level) + index)
    }

    fn total_nodes(&self) -> usize {
        self.level_offset(self.levels) + 1
    }
}

/// A dragonfly with `routers` routers per group, each hosting compute,
/// `globals` global channels per router, and `routers * globals + 1`
/// groups so that every ordered group pair is joined by exactly one
/// global channel. Ports `0..routers-1` are the all-to-all local links;
/// ports `routers-1..routers-1+globals` are the global links.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Dragonfly {
    routers: usize,
    globals: usize,
}

impl Dragonfly {
    /// Creates a dragonfly with `routers` routers per group and `globals`
    /// global channels per router.
    ///
    /// # Panics
    ///
    /// Panics if `routers < 2` or `globals == 0`.
    pub fn new(routers: usize, globals: usize) -> Self {
        assert!(routers >= 2, "dragonfly needs at least 2 routers per group");
        assert!(globals > 0, "dragonfly needs at least one global channel");
        Self { routers, globals }
    }

    /// Number of groups (`a*h + 1`).
    pub fn groups(&self) -> usize {
        self.routers * self.globals + 1
    }

    /// Routers per group (`a`).
    pub fn routers_per_group(&self) -> usize {
        self.routers
    }

    /// Global channels per router (`h`).
    pub fn globals_per_router(&self) -> usize {
        self.globals
    }

    fn split(&self, node: NodeId) -> (usize, usize) {
        (node.0 / self.routers, node.0 % self.routers)
    }

    /// The out-port on router `from` for the local hop to router `to` of
    /// the same group.
    fn local_port(&self, from: usize, to: usize) -> usize {
        debug_assert_ne!(from, to);
        (to + self.routers - from - 1) % self.routers
    }

    /// The global channel index (`0..a*h`) that group-offset `delta`
    /// (`1..groups`) rides on, plus the owning router and its global-port
    /// index within the source group.
    fn channel_for_offset(&self, delta: usize) -> (usize, usize, usize) {
        debug_assert!(delta >= 1 && delta < self.groups());
        let c = delta - 1;
        (c, c / self.globals, c % self.globals)
    }

    /// The far end of channel `c` leaving any group: the reverse-offset
    /// channel index at the destination group.
    fn far_channel(&self, c: usize) -> usize {
        self.groups() - 2 - c
    }
}

impl Topology {
    /// A `dims`-dimensional radix-`radix` torus.
    pub fn cube(dims: u32, radix: usize) -> Self {
        Topology::Cube(Torus::new(dims, radix))
    }

    /// [`Topology::cube`] for user-supplied shapes: an error naming the
    /// offending field instead of a panic when the torus would be empty
    /// or its node count `radix^dims` exceeds [`MAX_NODES`].
    pub fn try_cube(dims: u32, radix: usize) -> Result<Self, String> {
        if dims == 0 {
            return Err("dims: a cube needs at least one dimension".into());
        }
        if radix == 0 {
            return Err("radix: a cube needs at least one node per ring".into());
        }
        let cube = Topology::cube(dims, radix);
        cube.check_size().map_err(|e| format!("dims: {e}"))?;
        Ok(cube)
    }

    /// Checks that the fabric has at most [`MAX_NODES`] routers,
    /// counting them with checked arithmetic, so a shape whose count
    /// overflows is rejected too.
    ///
    /// # Errors
    ///
    /// A message naming the shape and its node count.
    pub fn check_size(&self) -> Result<(), String> {
        let nodes = match self {
            Topology::Cube(t) => t.radix.checked_pow(t.dims),
            Topology::Mesh(m) => m.x.checked_mul(m.y),
            Topology::FatTree(f) => (0..=f.levels).try_fold(0usize, |sum, level| {
                sum.checked_add(f.arity.checked_pow(level)?)
            }),
            Topology::Dragonfly(d) => d
                .routers
                .checked_mul(d.globals)
                .and_then(|channels| channels.checked_add(1))
                .and_then(|groups| groups.checked_mul(d.routers)),
        };
        match nodes {
            Some(n) if n <= MAX_NODES => Ok(()),
            Some(n) => Err(format!(
                "{} has {n} nodes, over the {MAX_NODES}-node cap",
                self.canonical()
            )),
            None => Err(format!(
                "{} has more nodes than a usize counts, over the {MAX_NODES}-node cap",
                self.canonical()
            )),
        }
    }

    /// An `x` by `y` non-wrapping mesh.
    pub fn mesh(x: usize, y: usize) -> Self {
        Topology::Mesh(Mesh2D::new(x, y))
    }

    /// An `arity`-ary fat tree with `levels` switch levels.
    pub fn fat_tree(arity: usize, levels: u32) -> Self {
        Topology::FatTree(FatTree::new(arity, levels))
    }

    /// A dragonfly with `routers` routers per group and `globals` global
    /// channels per router.
    pub fn dragonfly(routers: usize, globals: usize) -> Self {
        Topology::Dragonfly(Dragonfly::new(routers, globals))
    }

    /// Short topology family name (`cube`, `mesh`, `fattree`,
    /// `dragonfly`).
    pub fn family(&self) -> &'static str {
        match self {
            Topology::Cube(_) => "cube",
            Topology::Mesh(_) => "mesh",
            Topology::FatTree(_) => "fattree",
            Topology::Dragonfly(_) => "dragonfly",
        }
    }

    /// Canonical textual form, stable across releases — used verbatim in
    /// scenario cache keys.
    pub fn canonical(&self) -> String {
        match self {
            Topology::Cube(t) => format!("cube:{}x{}", t.dims(), t.radix()),
            Topology::Mesh(m) => format!("mesh:{}x{}", m.x, m.y),
            Topology::FatTree(f) => format!("fattree:a{}l{}", f.arity, f.levels),
            Topology::Dragonfly(d) => format!("dragonfly:a{}h{}", d.routers, d.globals),
        }
    }

    /// Total number of routers in the fabric.
    pub fn nodes(&self) -> usize {
        match self {
            Topology::Cube(t) => t.nodes(),
            Topology::Mesh(m) => m.x * m.y,
            Topology::FatTree(f) => f.total_nodes(),
            Topology::Dragonfly(d) => d.groups() * d.routers,
        }
    }

    /// Number of nodes hosting compute. Compute nodes are always fabric
    /// ids `0..compute_nodes()`; fat-tree switches come after the leaves.
    pub fn compute_nodes(&self) -> usize {
        match self {
            Topology::FatTree(f) => f.leaves(),
            other => other.nodes(),
        }
    }

    /// Number of inter-router ports per node (uniform across nodes; not
    /// every port is populated on every node — see [`Topology::link_dest`]).
    pub fn ports(&self) -> usize {
        match self {
            Topology::Cube(t) => 2 * t.dims() as usize,
            Topology::Mesh(_) => 4,
            Topology::FatTree(f) => f.arity + 1,
            Topology::Dragonfly(d) => d.routers - 1 + d.globals,
        }
    }

    /// The downstream node of `node`'s output port `port`, or `None` if
    /// the port is unpopulated (mesh edge, leaf child port, root parent
    /// port).
    pub fn link_dest(&self, node: NodeId, port: usize) -> Option<NodeId> {
        match self {
            Topology::Cube(t) => {
                let (dim, dir) = port_to_link(port);
                Some(t.neighbor(node, dim, dir))
            }
            Topology::Mesh(m) => {
                let (cx, cy) = m.coords(node);
                match port {
                    0 => (cx + 1 < m.x).then(|| m.at(cx + 1, cy)),
                    1 => (cx > 0).then(|| m.at(cx - 1, cy)),
                    2 => (cy + 1 < m.y).then(|| m.at(cx, cy + 1)),
                    3 => (cy > 0).then(|| m.at(cx, cy - 1)),
                    _ => panic!("mesh port {port} out of range"),
                }
            }
            Topology::FatTree(f) => {
                let (level, index) = f.locate(node);
                if port == f.arity {
                    (level < f.levels).then(|| f.id_at(level + 1, index / f.arity))
                } else if port < f.arity {
                    (level > 0).then(|| f.id_at(level - 1, index * f.arity + port))
                } else {
                    panic!("fat-tree port {port} out of range");
                }
            }
            Topology::Dragonfly(d) => {
                let (group, router) = d.split(node);
                if port < d.routers - 1 {
                    let to = (router + port + 1) % d.routers;
                    Some(NodeId(group * d.routers + to))
                } else if port < d.routers - 1 + d.globals {
                    let c = router * d.globals + (port - (d.routers - 1));
                    let far_group = (group + c + 1) % d.groups();
                    let far_router = d.far_channel(c) / d.globals;
                    Some(NodeId(far_group * d.routers + far_router))
                } else {
                    panic!("dragonfly port {port} out of range");
                }
            }
        }
    }

    /// The input-port index at the downstream node for `node`'s output
    /// port `port`. `None` exactly when [`Topology::link_dest`] is `None`.
    ///
    /// For cube and mesh the receiver's in-port index equals the sender's
    /// out-port index (the historical torus convention, preserved so that
    /// arbitration order — and therefore every golden — is unchanged).
    pub fn link_in_port(&self, node: NodeId, port: usize) -> Option<usize> {
        match self {
            Topology::Cube(_) => Some(port),
            Topology::Mesh(_) => self.link_dest(node, port).map(|_| port),
            Topology::FatTree(f) => {
                let (level, index) = f.locate(node);
                if port == f.arity {
                    (level < f.levels).then(|| index % f.arity)
                } else {
                    (level > 0 && port < f.arity).then_some(f.arity)
                }
            }
            Topology::Dragonfly(d) => {
                let (_, router) = d.split(node);
                if port < d.routers - 1 {
                    let to = (router + port + 1) % d.routers;
                    Some(d.local_port(to, router))
                } else {
                    let c = router * d.globals + (port - (d.routers - 1));
                    Some(d.routers - 1 + d.far_channel(c) % d.globals)
                }
            }
        }
    }

    /// The upstream node feeding `node`'s input port `in_port`, together
    /// with the out-port index that link occupies at the upstream node.
    /// `None` if no link feeds that input port.
    pub fn upstream(&self, node: NodeId, in_port: usize) -> Option<(NodeId, usize)> {
        match self {
            Topology::Cube(t) => {
                let (dim, dir) = port_to_link(in_port ^ 1);
                Some((t.neighbor(node, dim, dir), in_port))
            }
            Topology::Mesh(_) => self.link_dest(node, in_port ^ 1).map(|up| (up, in_port)),
            Topology::FatTree(f) => {
                let (level, index) = f.locate(node);
                if in_port == f.arity {
                    (level < f.levels)
                        .then(|| (f.id_at(level + 1, index / f.arity), index % f.arity))
                } else if in_port < f.arity {
                    (level > 0).then(|| (f.id_at(level - 1, index * f.arity + in_port), f.arity))
                } else {
                    None
                }
            }
            Topology::Dragonfly(d) => {
                let (group, router) = d.split(node);
                if in_port < d.routers - 1 {
                    let from = (router + in_port + 1) % d.routers;
                    Some((NodeId(group * d.routers + from), d.local_port(from, router)))
                } else if in_port < d.routers - 1 + d.globals {
                    let c = router * d.globals + (in_port - (d.routers - 1));
                    let far = self.link_dest(node, in_port).unwrap();
                    Some((far, d.routers - 1 + d.far_channel(c) % d.globals))
                } else {
                    None
                }
            }
        }
    }

    /// The deterministic routing decision for a message from `src` to
    /// `dst` currently at `current`, in port form. Routing is minimal and
    /// deadlock-free on every topology with two virtual-channel classes:
    /// dateline classes on the cube, class 0 only on the mesh, up/down
    /// classes on the fat tree, and pre-global/post-global classes on the
    /// dragonfly.
    ///
    /// The cube routes e-cube: it corrects one dimension at a time, in
    /// increasing dimension order, the minimal way around each ring (ties
    /// go [`Direction::Plus`]).
    pub fn route_hop(&self, src: NodeId, dst: NodeId, current: NodeId) -> PortStep {
        match self {
            Topology::Cube(t) => {
                for dim in 0..t.dims() {
                    let at = t.coordinate(current, dim);
                    let exit = t.coordinate(dst, dim);
                    if at == exit {
                        continue;
                    }
                    // A message never moves in a dimension before
                    // correcting it, so it entered this ring at the
                    // source's coordinate.
                    let entry = t.coordinate(src, dim);
                    let (_, direction) = t.ring_step(entry, exit);
                    return PortStep::Forward {
                        port: link_to_port(dim, direction),
                        vc: dateline_vc(entry, exit, at, direction),
                    };
                }
                PortStep::Eject
            }
            Topology::Mesh(m) => {
                let (cx, cy) = m.coords(current);
                let (dx, dy) = m.coords(dst);
                if cx != dx {
                    let port = if dx > cx { 0 } else { 1 };
                    PortStep::Forward { port, vc: 0 }
                } else if cy != dy {
                    let port = if dy > cy { 2 } else { 3 };
                    PortStep::Forward { port, vc: 0 }
                } else {
                    PortStep::Eject
                }
            }
            Topology::FatTree(f) => {
                if current == dst {
                    return PortStep::Eject;
                }
                let (level, index) = f.locate(current);
                if level > 0 {
                    let span = f.arity.pow(level);
                    if dst.0 / span == index {
                        // Descend toward the covering child; class 1.
                        let child = dst.0 / f.arity.pow(level - 1) - index * f.arity;
                        return PortStep::Forward { port: child, vc: 1 };
                    }
                }
                PortStep::Forward {
                    port: f.arity,
                    vc: 0,
                }
            }
            Topology::Dragonfly(d) => {
                if current == dst {
                    return PortStep::Eject;
                }
                let (group, router) = d.split(current);
                let (dst_group, dst_router) = d.split(dst);
                if group == dst_group {
                    // Terminal local hop (or same-group traffic): class 1.
                    return PortStep::Forward {
                        port: d.local_port(router, dst_router),
                        vc: 1,
                    };
                }
                let delta = (dst_group + d.groups() - group) % d.groups();
                let (_, owner, j) = d.channel_for_offset(delta);
                if router == owner {
                    PortStep::Forward {
                        port: d.routers - 1 + j,
                        vc: 0,
                    }
                } else {
                    PortStep::Forward {
                        port: d.local_port(router, owner),
                        vc: 0,
                    }
                }
            }
        }
    }

    /// Hop count of the deterministic route from `a` to `b`.
    pub fn distance(&self, a: NodeId, b: NodeId) -> usize {
        match self {
            Topology::Cube(t) => t.distance(a, b),
            Topology::Mesh(m) => {
                let (ax, ay) = m.coords(a);
                let (bx, by) = m.coords(b);
                ax.abs_diff(bx) + ay.abs_diff(by)
            }
            Topology::FatTree(f) => {
                let (la, mut ia) = f.locate(a);
                let (lb, mut ib) = f.locate(b);
                // Lift both endpoints to a common level, then to the LCA.
                let level = la.max(lb);
                for _ in la..level {
                    ia /= f.arity;
                }
                for _ in lb..level {
                    ib /= f.arity;
                }
                let mut up_a = (level - la) as usize;
                let mut up_b = (level - lb) as usize;
                while ia != ib {
                    ia /= f.arity;
                    ib /= f.arity;
                    up_a += 1;
                    up_b += 1;
                }
                up_a + up_b
            }
            Topology::Dragonfly(d) => {
                if a == b {
                    return 0;
                }
                let (ga, ra) = d.split(a);
                let (gb, rb) = d.split(b);
                if ga == gb {
                    return 1;
                }
                let delta = (gb + d.groups() - ga) % d.groups();
                let (c, owner, _) = d.channel_for_offset(delta);
                let far_router = d.far_channel(c) / d.globals;
                1 + usize::from(ra != owner) + usize::from(far_router != rb)
            }
        }
    }

    /// Mean distance over all ordered pairs of *distinct* compute nodes —
    /// the random-mapping expected distance for this topology (the
    /// finite-machine counterpart of the paper's Eq. 17).
    pub fn mean_pairwise_distance(&self) -> f64 {
        let dist = self.distance_distribution();
        dist.iter().enumerate().map(|(h, p)| h as f64 * p).sum()
    }

    /// Probability distribution of hop distances over ordered pairs of
    /// distinct compute nodes: entry `h` is the fraction of pairs at
    /// distance `h`. Sums to 1.0 (empty machine: empty vector).
    pub fn distance_distribution(&self) -> Vec<f64> {
        let n = self.compute_nodes();
        if n <= 1 {
            return Vec::new();
        }
        let mut counts: Vec<usize> = Vec::new();
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let d = self.distance(NodeId(a), NodeId(b));
                if counts.len() <= d {
                    counts.resize(d + 1, 0);
                }
                counts[d] += 1;
            }
        }
        let total = (n * (n - 1)) as f64;
        counts.iter().map(|&c| c as f64 / total).collect()
    }

    /// The compute nodes a compute node's application thread communicates
    /// with under the synthetic neighbour workload: torus/mesh grid
    /// neighbours, and index-space neighbours (`±1`, `±row`) for the
    /// hierarchical topologies, chosen so that an identity mapping is the
    /// local mapping.
    pub fn app_neighbors(&self, node: usize) -> Vec<usize> {
        match self {
            Topology::Cube(t) => {
                let id = NodeId(node);
                let mut out = Vec::new();
                for dim in 0..t.dims() {
                    for dir in Direction::ALL {
                        out.push(t.neighbor(id, dim, dir).0);
                    }
                }
                out
            }
            Topology::Mesh(_) => {
                let mut out = Vec::new();
                for port in 0..4 {
                    if let Some(n) = self.link_dest(NodeId(node), port) {
                        out.push(n.0);
                    }
                }
                out
            }
            Topology::FatTree(f) => {
                let n = f.leaves();
                index_space_neighbors(node, n, f.arity)
            }
            Topology::Dragonfly(d) => {
                // Ring within the group (every local hop is one link) plus
                // the same-router-index node of each adjacent group, so
                // identity-mapped traffic is mostly intra-group.
                let a = d.routers;
                let n = self.compute_nodes();
                let (g, r) = (node / a, node % a);
                let mut out = Vec::new();
                for r2 in [(r + 1) % a, (r + a - 1) % a] {
                    let peer = g * a + r2;
                    if peer != node && !out.contains(&peer) {
                        out.push(peer);
                    }
                }
                for step in [a, n - a] {
                    let peer = (node + step) % n;
                    if peer != node && !out.contains(&peer) {
                        out.push(peer);
                    }
                }
                out
            }
        }
    }

    /// The underlying torus for [`Topology::Cube`].
    ///
    /// # Panics
    ///
    /// Panics on any other variant — callers needing cube-specific
    /// geometry must gate on [`Topology::family`] first.
    pub fn as_torus(&self) -> &Torus {
        match self {
            Topology::Cube(t) => t,
            other => panic!(
                "operation requires a cube topology, got {}",
                other.canonical()
            ),
        }
    }

    /// Total *directed* inter-router channels in the fabric, divided by
    /// the number of compute nodes — the `C` of the flux-balance channel
    /// utilization `rho = r * B * d / C` that generalizes the paper's
    /// Eq. 10 (a torus has `C = 2n` and recovers it exactly).
    pub fn channels_per_compute_node(&self) -> f64 {
        let mut channels = 0usize;
        for node in 0..self.nodes() {
            for port in 0..self.ports() {
                if self.link_dest(NodeId(node), port).is_some() {
                    channels += 1;
                }
            }
        }
        channels as f64 / self.compute_nodes() as f64
    }

    /// Parses a `--topology` argument: `cube`, `mesh`,
    /// `fattree[:ARITY,LEVELS]`, or `dragonfly[:ROUTERS,GLOBALS]`.
    /// `cube` and `mesh` take their shape from `dims`/`radix` (the cube
    /// as [`Topology::try_cube`] checks it; the mesh requires `dims == 2`
    /// and is `radix` by `radix`, `radix >= 2`, so that every node has a
    /// neighbour). Every family is held to [`MAX_NODES`].
    pub fn parse(spec: &str, dims: u32, radix: usize) -> Result<Topology, String> {
        let (family, params) = match spec.split_once(':') {
            Some((f, p)) => (f, Some(p)),
            None => (spec, None),
        };
        let two = |p: Option<&str>, da: usize, db: usize| -> Result<(usize, usize), String> {
            match p {
                None => Ok((da, db)),
                Some(body) => {
                    let (a, b) = body.split_once(',').ok_or_else(|| {
                        format!("expected two comma-separated values in '{body}'")
                    })?;
                    let a = a
                        .parse::<usize>()
                        .map_err(|_| format!("invalid number '{a}'"))?;
                    let b = b
                        .parse::<usize>()
                        .map_err(|_| format!("invalid number '{b}'"))?;
                    Ok((a, b))
                }
            }
        };
        match family {
            "cube" | "torus" => {
                if params.is_some() {
                    return Err("cube takes its shape from --dims/--radix".into());
                }
                Topology::try_cube(dims, radix)
            }
            "mesh" => {
                if params.is_some() {
                    return Err("mesh takes its shape from --radix (radix x radix)".into());
                }
                if dims != 2 {
                    return Err(format!("mesh topology requires dims=2, got {dims}"));
                }
                if radix < 2 {
                    return Err(format!(
                        "radix: a mesh needs at least 2 nodes per side, got {radix}"
                    ));
                }
                let mesh = Topology::mesh(radix, radix);
                mesh.check_size().map_err(|e| format!("radix: {e}"))?;
                Ok(mesh)
            }
            "fattree" => {
                let (arity, levels) = two(params, 4, 3)?;
                if arity < 2 || levels == 0 {
                    return Err("fattree needs arity >= 2 and levels >= 1".into());
                }
                let levels = u32::try_from(levels)
                    .map_err(|_| format!("fattree levels {levels} is out of range"))?;
                let tree = Topology::fat_tree(arity, levels);
                tree.check_size()?;
                Ok(tree)
            }
            "dragonfly" => {
                let (routers, globals) = two(params, 4, 4)?;
                if routers < 2 || globals == 0 {
                    return Err("dragonfly needs routers >= 2 and globals >= 1".into());
                }
                let dragonfly = Topology::dragonfly(routers, globals);
                dragonfly.check_size()?;
                Ok(dragonfly)
            }
            other => Err(format!(
                "unknown topology '{other}' (expected cube, mesh, fattree, dragonfly)"
            )),
        }
    }
}

/// `±1` and `±row` neighbours in compute-node index space, with
/// wraparound — the hierarchical topologies' analogue of the torus
/// communication graph.
fn index_space_neighbors(node: usize, n: usize, row: usize) -> Vec<usize> {
    let mut out = Vec::new();
    for step in [1, n - 1, row % n, n - row % n] {
        let peer = (node + step) % n;
        if peer != node && !out.contains(&peer) {
            out.push(peer);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn zero_dims_panics() {
        Torus::new(0, 8);
    }

    #[test]
    fn coordinates_round_trip() {
        let t = Torus::new(3, 5);
        for id in t.node_ids() {
            let coords = t.coordinates(id);
            assert_eq!(t.node_at(&coords), id);
            for (d, &c) in coords.iter().enumerate() {
                assert_eq!(t.coordinate(id, d as u32), c);
            }
        }
    }

    #[test]
    fn neighbor_wraps_around() {
        let t = Torus::new(2, 8);
        let corner = t.node_at(&[7, 0]);
        assert_eq!(t.neighbor(corner, 0, Direction::Plus), t.node_at(&[0, 0]));
        assert_eq!(t.neighbor(corner, 1, Direction::Minus), t.node_at(&[7, 7]));
    }

    #[test]
    fn neighbor_inverse() {
        let t = Torus::new(2, 4);
        for id in t.node_ids() {
            for dim in 0..2 {
                let p = t.neighbor(id, dim, Direction::Plus);
                assert_eq!(t.neighbor(p, dim, Direction::Minus), id);
            }
        }
    }

    #[test]
    fn ring_distance_symmetric_and_bounded() {
        let t = Torus::new(1, 8);
        for a in 0..8 {
            for b in 0..8 {
                let d = t.ring_distance(a, b);
                assert_eq!(d, t.ring_distance(b, a));
                assert!(d <= 4);
            }
        }
        assert_eq!(t.ring_distance(0, 7), 1);
        assert_eq!(t.ring_distance(0, 4), 4);
    }

    #[test]
    fn ring_step_prefers_plus_on_tie() {
        let t = Torus::new(1, 8);
        assert_eq!(t.ring_step(0, 4), (4, Direction::Plus));
        assert_eq!(t.ring_step(0, 5), (3, Direction::Minus));
        assert_eq!(t.ring_step(0, 3), (3, Direction::Plus));
        assert_eq!(t.ring_step(6, 6), (0, Direction::Plus));
    }

    #[test]
    fn distance_matches_per_dimension_sum() {
        let t = Torus::new(2, 8);
        let a = t.node_at(&[1, 2]);
        let b = t.node_at(&[7, 6]);
        // dim 0: 1 -> 7 is 2 hops (backwards); dim 1: 2 -> 6 is 4 hops.
        assert_eq!(t.distance(a, b), 6);
        assert_eq!(t.distance(a, a), 0);
        assert_eq!(t.distance(a, b), t.distance(b, a));
    }

    #[test]
    fn mean_pairwise_distance_matches_eq17_closely() {
        // Eq. 17 for k = 8, n = 2 gives 1024/252 = 4.063...; the exact
        // enumeration over distinct pairs gives the same value (Eq. 17 is
        // exact for even k).
        let t = Torus::new(2, 8);
        let exact = t.mean_pairwise_distance();
        let eq17 = 2.0 * 8f64.powi(3) / (4.0 * (64.0 - 1.0));
        assert!((exact - eq17).abs() < 1e-12, "exact={exact} eq17={eq17}");
    }

    #[test]
    fn mean_pairwise_distance_single_node() {
        assert_eq!(Torus::new(2, 1).mean_pairwise_distance(), 0.0);
    }

    #[test]
    fn triangle_inequality_holds() {
        let t = Torus::new(2, 5);
        for a in t.node_ids().step_by(3) {
            for b in t.node_ids().step_by(4) {
                for c in t.node_ids().step_by(5) {
                    assert!(t.distance(a, c) <= t.distance(a, b) + t.distance(b, c));
                }
            }
        }
    }

    /// Small instances of every topology family, for property tests.
    fn all_small() -> Vec<Topology> {
        vec![
            Topology::cube(2, 4),
            Topology::cube(1, 6),
            Topology::mesh(4, 4),
            Topology::mesh(5, 3),
            Topology::fat_tree(2, 3),
            Topology::fat_tree(3, 2),
            Topology::dragonfly(2, 1),
            Topology::dragonfly(3, 2),
        ]
    }

    /// A `(node, out-port, vc-class)` channel a route occupies.
    type Channel = (usize, usize, usize);

    /// Walks the deterministic route from `src` to `dst`, validating
    /// every hop against the link tables, and returns the sequence of
    /// channels used.
    fn walk_route(t: &Topology, src: NodeId, dst: NodeId) -> Vec<Channel> {
        let mut current = src;
        let mut hops = Vec::new();
        loop {
            match t.route_hop(src, dst, current) {
                PortStep::Eject => {
                    assert_eq!(current, dst, "{}: route ejected early", t.canonical());
                    return hops;
                }
                PortStep::Forward { port, vc } => {
                    assert!(port < t.ports(), "{}: port out of range", t.canonical());
                    assert!(vc < DATELINE_VCS);
                    let down = t.link_dest(current, port).unwrap_or_else(|| {
                        panic!(
                            "{}: route {src}->{dst} used absent link {current} port {port}",
                            t.canonical()
                        )
                    });
                    hops.push((current.0, port, vc));
                    assert!(hops.len() <= 4 * t.nodes(), "route loops");
                    current = down;
                }
            }
        }
    }

    #[test]
    fn routes_are_valid_and_match_distance() {
        for t in all_small() {
            for a in 0..t.compute_nodes() {
                for b in 0..t.compute_nodes() {
                    let hops = walk_route(&t, NodeId(a), NodeId(b));
                    assert_eq!(
                        hops.len(),
                        t.distance(NodeId(a), NodeId(b)),
                        "{}: route length vs distance for {a}->{b}",
                        t.canonical()
                    );
                }
            }
        }
    }

    #[test]
    fn link_tables_are_mutually_consistent() {
        for t in all_small() {
            let mut in_ports_seen = std::collections::BTreeMap::new();
            for node in 0..t.nodes() {
                for port in 0..t.ports() {
                    let dest = t.link_dest(NodeId(node), port);
                    let in_port = t.link_in_port(NodeId(node), port);
                    assert_eq!(dest.is_some(), in_port.is_some(), "{}", t.canonical());
                    let (Some(down), Some(q)) = (dest, in_port) else {
                        continue;
                    };
                    assert!(q < t.ports());
                    // The upstream table must invert the link exactly.
                    assert_eq!(
                        t.upstream(down, q),
                        Some((NodeId(node), port)),
                        "{}: upstream({down}, {q}) mismatch",
                        t.canonical()
                    );
                    // No two links may share an input port at the receiver.
                    if let Some(prev) = in_ports_seen.insert((down.0, q), node) {
                        panic!(
                            "{}: in-port {q} at {down} fed by both n{prev} and n{node}",
                            t.canonical()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cube_tables_preserve_torus_conventions() {
        // The optimized fabric's goldens depend on the torus conventions:
        // receiver in-port == sender out-port, and the upstream of input
        // port q is the neighbor reached through port q^1. The Cube
        // variant must reproduce them verbatim.
        let t = Topology::cube(2, 4);
        let torus = t.as_torus().clone();
        for node in 0..t.nodes() {
            for port in 0..t.ports() {
                let (dim, dir) = port_to_link(port);
                let expect = torus.neighbor(NodeId(node), dim, dir);
                assert_eq!(t.link_dest(NodeId(node), port), Some(expect));
                assert_eq!(t.link_in_port(NodeId(node), port), Some(port));
                let (up_dim, up_dir) = port_to_link(port ^ 1);
                let up = torus.neighbor(NodeId(node), up_dim, up_dir);
                assert_eq!(t.upstream(NodeId(node), port), Some((up, port)));
            }
        }
    }

    #[test]
    fn distance_matches_exhaustive_bfs() {
        // Shortest paths over the physical link graph. For the dragonfly
        // the search is restricted to paths crossing at most one global
        // channel — the canonical minimal-route class (chaining two
        // globals can be graph-shorter but is never a minimal dragonfly
        // route and would need extra VC classes for deadlock freedom).
        for t in all_small() {
            let n = t.nodes();
            let global_cap = match &t {
                Topology::Dragonfly(_) => 1usize,
                _ => usize::MAX,
            };
            let group_of = |node: usize| match &t {
                Topology::Dragonfly(d) => node / d.routers,
                _ => 0,
            };
            for src in 0..t.compute_nodes() {
                // State: (node, globals used so far).
                let states = if global_cap == usize::MAX { 1 } else { 2 };
                let mut dist = vec![usize::MAX; n * states];
                let mut queue = std::collections::VecDeque::new();
                dist[src * states] = 0;
                queue.push_back((src, 0usize));
                while let Some((u, used)) = queue.pop_front() {
                    let du = dist[u * states + used.min(states - 1)];
                    for port in 0..t.ports() {
                        if let Some(v) = t.link_dest(NodeId(u), port) {
                            let crosses = group_of(u) != group_of(v.0);
                            let next_used = used + usize::from(crosses);
                            if next_used > global_cap.min(states - 1) {
                                continue;
                            }
                            let slot = v.0 * states + next_used;
                            if dist[slot] == usize::MAX {
                                dist[slot] = du + 1;
                                queue.push_back((v.0, next_used));
                            }
                        }
                    }
                }
                for dst in 0..t.compute_nodes() {
                    let best = (0..states).map(|s| dist[dst * states + s]).min().unwrap();
                    assert_eq!(
                        t.distance(NodeId(src), NodeId(dst)),
                        best,
                        "{}: distance {src}->{dst} not BFS-minimal",
                        t.canonical()
                    );
                }
            }
        }
    }

    #[test]
    fn distance_distribution_sums_to_one() {
        for t in all_small() {
            let dist = t.distance_distribution();
            let sum: f64 = dist.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-12,
                "{}: distribution sums to {sum}",
                t.canonical()
            );
            assert!(dist.iter().all(|&p| (0.0..=1.0).contains(&p)));
            let mean = t.mean_pairwise_distance();
            assert!(mean > 0.0, "{}", t.canonical());
            // Cube mean must agree with the closed-form torus value.
            if let Topology::Cube(torus) = &t {
                assert!((mean - torus.mean_pairwise_distance()).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn routing_channel_dependencies_are_acyclic() {
        // Deadlock freedom: the channel dependency graph over
        // (node, port, vc-class) channels, with an edge for every
        // consecutive channel pair on any routed compute-pair path, must
        // be acyclic. This is the classical sufficient condition for
        // wormhole deadlock freedom with per-class buffers.
        for t in all_small() {
            let mut edges: std::collections::BTreeMap<
                Channel,
                std::collections::BTreeSet<Channel>,
            > = std::collections::BTreeMap::new();
            for a in 0..t.compute_nodes() {
                for b in 0..t.compute_nodes() {
                    let hops = walk_route(&t, NodeId(a), NodeId(b));
                    for w in hops.windows(2) {
                        edges.entry(w[0]).or_default().insert(w[1]);
                    }
                }
            }
            // Iterative three-color DFS cycle detection.
            let mut color: std::collections::BTreeMap<Channel, u8> =
                std::collections::BTreeMap::new();
            let nodes: Vec<_> = edges.keys().copied().collect();
            for start in nodes {
                if color.get(&start).copied().unwrap_or(0) != 0 {
                    continue;
                }
                let mut stack = vec![(start, false)];
                while let Some((ch, done)) = stack.pop() {
                    if done {
                        color.insert(ch, 2);
                        continue;
                    }
                    match color.get(&ch).copied().unwrap_or(0) {
                        1 => continue,
                        2 => continue,
                        _ => {}
                    }
                    color.insert(ch, 1);
                    stack.push((ch, true));
                    if let Some(next) = edges.get(&ch) {
                        for &nx in next {
                            match color.get(&nx).copied().unwrap_or(0) {
                                1 => panic!(
                                    "{}: channel dependency cycle through {nx:?}",
                                    t.canonical()
                                ),
                                2 => {}
                                _ => stack.push((nx, false)),
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn app_neighbors_are_valid_compute_nodes() {
        for t in all_small() {
            let (mut total, mut edges) = (0, 0);
            for node in 0..t.compute_nodes() {
                let peers = t.app_neighbors(node);
                assert!(!peers.is_empty(), "{}: isolated node {node}", t.canonical());
                for p in &peers {
                    assert!(*p < t.compute_nodes(), "{}", t.canonical());
                    assert_ne!(*p, node, "{}: self-loop", t.canonical());
                    total += t.distance(NodeId(node), NodeId(*p));
                    edges += 1;
                }
                let uniq: std::collections::BTreeSet<_> = peers.iter().collect();
                assert_eq!(uniq.len(), peers.len(), "{}: duplicate peer", t.canonical());
            }
            // Identity mapping must be at least as local as random.
            assert!(
                total as f64 / edges as f64 <= t.mean_pairwise_distance() + 1e-12,
                "{}: app graph less local than random",
                t.canonical()
            );
        }
    }

    #[test]
    fn fat_tree_shape() {
        let t = Topology::fat_tree(2, 3);
        assert_eq!(t.compute_nodes(), 8);
        assert_eq!(t.nodes(), 8 + 4 + 2 + 1);
        assert_eq!(t.ports(), 3);
        // Sibling leaves are 2 hops apart; opposite halves 2*levels.
        assert_eq!(t.distance(NodeId(0), NodeId(1)), 2);
        assert_eq!(t.distance(NodeId(0), NodeId(7)), 6);
    }

    #[test]
    fn dragonfly_shape() {
        let d = Topology::dragonfly(3, 2);
        assert_eq!(d.nodes(), 7 * 3);
        assert_eq!(d.compute_nodes(), d.nodes());
        assert_eq!(d.ports(), 2 + 2);
        // Same group: one hop. Cross group: at most three.
        assert_eq!(d.distance(NodeId(0), NodeId(1)), 1);
        for a in 0..d.nodes() {
            for b in 0..d.nodes() {
                assert!(d.distance(NodeId(a), NodeId(b)) <= 3);
            }
        }
    }

    #[test]
    fn topology_parse_round_trips() {
        assert_eq!(Topology::parse("cube", 2, 8).unwrap(), Topology::cube(2, 8));
        assert_eq!(Topology::parse("mesh", 2, 8).unwrap(), Topology::mesh(8, 8));
        assert_eq!(
            Topology::parse("fattree", 2, 8).unwrap(),
            Topology::fat_tree(4, 3)
        );
        assert_eq!(
            Topology::parse("fattree:2,3", 2, 8).unwrap(),
            Topology::fat_tree(2, 3)
        );
        assert_eq!(
            Topology::parse("dragonfly:3,2", 2, 8).unwrap(),
            Topology::dragonfly(3, 2)
        );
        assert!(Topology::parse("mesh", 3, 8).is_err());
        assert!(Topology::parse("hypercube", 2, 8).is_err());
        // Shapes that would panic (or wrap to zero nodes) are named errors.
        // So are shapes over the node cap, in every family; the error
        // names the field, or the shape when the spec is the field.
        for (spec, dims, radix, field) in [
            ("cube", 0, 8, "dims"),
            ("cube", 2, 0, "radix"),
            ("cube", 64, 2, "dims"),
            ("cube", 22, 2, "dims"),
            ("cube", 31, 2, "dims"),
            ("mesh", 2, 1, "radix"),
            ("mesh", 2, 0, "radix"),
            ("mesh", 2, 1_449, "radix"),
            ("mesh", 2, 1 << 40, "radix"),
            ("fattree:2,21", 2, 8, "fattree:a2l21 has 4194303 nodes"),
            ("fattree:2,64", 2, 8, "fattree:a2l64 has more nodes"),
            ("fattree:2,4294967297", 2, 8, "fattree levels"),
            ("dragonfly:2000,2000", 2, 8, "dragonfly:a2000h2000 has 8"),
            ("dragonfly:4294967296,4294967296", 2, 8, "dragonfly:"),
        ] {
            let err = Topology::parse(spec, dims, radix).unwrap_err();
            assert!(err.starts_with(field), "{spec} {dims}x{radix}: {err}");
        }
        // Shapes up to the cap stay legal: a 1000 x 1000 torus, and a
        // 2^21-node cube.
        assert_eq!(Topology::try_cube(2, 8), Ok(Topology::cube(2, 8)));
        assert!(Topology::try_cube(2, 1_000).is_ok());
        assert!(Topology::try_cube(21, 2).is_ok());
        assert!(Topology::parse("mesh", 2, 1_448).is_ok());
        assert!(Topology::parse("fattree:2,20", 2, 8).is_ok());
        for t in all_small() {
            // Canonical names are unique per shape.
            assert!(t.canonical().contains(t.family()));
        }
    }
}
