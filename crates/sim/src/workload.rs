//! Workload sources: the paper's synthetic neighbour application
//! (Section 3.2) generalized to arbitrary topologies, plus hotspot,
//! transpose, and trace-replay variants (`--traffic` / `--trace-in`).
//!
//! Each thread maintains a single word of state. One pass through the
//! inner loop reads the state word of each of the thread's peers in the
//! application's communication graph, performs trivial computation, and
//! writes a new value to its own state word. Threads never synchronize.
//! With coherent caches, almost every peer read and every own-word write
//! becomes a cache-coherency transaction.
//!
//! The default [`Workload::Neighbor`] communication graph is the
//! topology's own [`Topology::app_neighbors`] graph — for a k-ary n-cube
//! this is exactly the paper's torus-neighbour application (2n peers per
//! thread, one hop each under the identity mapping). The hotspot and
//! transpose variants reuse the same single-word-per-thread state layout
//! but redirect the reads; a trace workload replays an explicit
//! JSON-lines operation list instead.
//!
//! When `p` hardware contexts are used, `p` independent instances of the
//! application run simultaneously, one thread of each instance per
//! processor, sharing nothing across instances (paper Section 3.2).

use crate::json::Json;
use crate::mapping::Mapping;
use commloc_mem::{Addr, HomeMap, WORDS_PER_LINE};
use commloc_net::Topology;
use commloc_proc::{ThreadOp, ThreadProgram};
use std::sync::Arc;

/// The state word of thread `thread` in application instance `instance`,
/// for a machine of `threads` threads per instance.
///
/// Each thread's word lives alone in its own cache line (lines are
/// two words; the partner word is never used) so that false sharing never
/// clouds the measurement.
pub fn state_word(instance: usize, thread: usize, threads: usize) -> Addr {
    Addr(((instance * threads + thread) * WORDS_PER_LINE) as u64)
}

/// Builds the home map placing every thread's state line at the processor
/// its thread runs on — "a single word of state in local memory". Data
/// placement thus follows the mapping, exactly as in the paper. Threads
/// (and homes) cover only the topology's compute nodes; fat-tree switch
/// nodes neither run threads nor home data.
pub fn workload_home_map(topology: &Topology, mapping: &Mapping, instances: usize) -> HomeMap {
    let threads = topology.compute_nodes();
    let mut home = HomeMap::interleaved(threads);
    for instance in 0..instances {
        for thread in 0..threads {
            home.assign(
                state_word(instance, thread, threads).line(),
                mapping.processor(thread),
            );
        }
    }
    home
}

/// The transpose peer of a thread among the compute nodes' threads: the
/// fabric's open-loop transpose rule, so the machine's transpose workload
/// and the fabric's transpose traffic pair the same nodes.
pub use commloc_net::traffic::transpose_peer;

/// One thread of the synthetic neighbour application: reads each peer's
/// state word (interleaved with computation), then writes its own.
#[derive(Debug, Clone)]
pub struct NeighborProgram {
    own: Addr,
    neighbors: Vec<Addr>,
    work: u32,
    /// Next step within the iteration: 0..neighbors.len() are
    /// compute+read pairs; the final step is compute+write.
    step: usize,
    /// Whether the compute half of the current step has been emitted.
    computed: bool,
    iteration: u64,
    checksum: u64,
}

impl NeighborProgram {
    /// Creates the program for `thread` of `instance` on the given
    /// topology, reading the topology's application-graph peers: `work`
    /// processor cycles of computation precede every memory access. On a
    /// cube this is the paper's torus-neighbour application verbatim
    /// (peer order `dim 0 +, dim 0 -, dim 1 +, ...`).
    ///
    /// # Panics
    ///
    /// Panics if `work` is zero (the paper's application has small but
    /// nonzero grain).
    pub fn new(topology: &Topology, instance: usize, thread: usize, work: u32) -> Self {
        let peers = topology.app_neighbors(thread);
        Self::with_peers(instance, thread, topology.compute_nodes(), &peers, work)
    }

    /// Creates the program with an explicit peer-thread list (the hotspot
    /// and transpose workloads).
    ///
    /// # Panics
    ///
    /// Panics if `work` is zero or `peers` is empty.
    pub fn with_peers(
        instance: usize,
        thread: usize,
        threads: usize,
        peers: &[usize],
        work: u32,
    ) -> Self {
        assert!(work > 0, "computation grain must be positive");
        assert!(
            !peers.is_empty(),
            "a workload thread needs at least one peer"
        );
        Self {
            own: state_word(instance, thread, threads),
            neighbors: peers
                .iter()
                .map(|&p| state_word(instance, p, threads))
                .collect(),
            work,
            step: 0,
            computed: false,
            iteration: 0,
            checksum: 0,
        }
    }

    /// Completed inner-loop iterations.
    pub fn iterations(&self) -> u64 {
        self.iteration
    }

    /// Running sum of all neighbour values read (the "trivial
    /// computation"; also a correctness probe for tests).
    pub fn checksum(&self) -> u64 {
        self.checksum
    }
}

impl ThreadProgram for NeighborProgram {
    fn clone_box(&self) -> Box<dyn ThreadProgram> {
        Box::new(self.clone())
    }

    fn next(&mut self, last_read: Option<u64>) -> ThreadOp {
        if let Some(v) = last_read {
            self.checksum = self.checksum.wrapping_add(v);
        }
        if !self.computed {
            self.computed = true;
            return ThreadOp::Compute(self.work);
        }
        self.computed = false;
        if self.step < self.neighbors.len() {
            let addr = self.neighbors[self.step];
            self.step += 1;
            ThreadOp::Read(addr)
        } else {
            self.step = 0;
            self.iteration += 1;
            ThreadOp::Write(self.own, self.iteration)
        }
    }
}

/// One replayed operation of a [`Trace`] thread. Peers are thread
/// indices into the same single-word-per-thread state layout as the
/// synthetic workloads, so a trace is portable across machine sizes
/// (out-of-range peers wrap modulo the thread count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// Read the state word of thread `peer`.
    Read {
        /// Peer thread whose state word is read.
        peer: usize,
    },
    /// Write this thread's own state word with `value`.
    Write {
        /// Value written.
        value: u64,
    },
    /// Spin for `cycles` processor cycles.
    Compute {
        /// Computation length in processor cycles.
        cycles: u32,
    },
}

/// A parsed JSON-lines communication trace (`commloc --trace-in`).
///
/// Each line is one object: `{"thread": 0, "op": "read", "peer": 5}`,
/// `{"thread": 0, "op": "compute", "cycles": 8}`, or
/// `{"thread": 0, "op": "write", "value": 1}`. Blank lines and lines
/// starting with `#` are skipped. Each thread replays its own operations
/// in file order, cyclically, forever (a closed-loop workload like the
/// synthetic ones); threads with no trace lines spin on pure computation.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    per_thread: Vec<Vec<TraceOp>>,
    /// FNV-1a hash of the raw trace text — the serve-cache key
    /// component, so two different traces can never share a cache entry.
    content_hash: u64,
}

impl Trace {
    /// Parses a JSON-lines trace document.
    ///
    /// # Errors
    ///
    /// Returns `line <n>: <problem>` for the first malformed line.
    pub fn parse(text: &str) -> Result<Trace, String> {
        let mut per_thread: Vec<Vec<TraceOp>> = Vec::new();
        let mut ops = 0usize;
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let at = |e: String| format!("line {}: {e}", i + 1);
            let obj = Json::parse(line).map_err(&at)?;
            let thread = field_u64(&obj, "thread")
                .map_err(&at)?
                .ok_or_else(|| at("missing `thread`".into()))? as usize;
            let op = obj
                .field("op")
                .map_err(&at)?
                .ok_or_else(|| at("missing `op`".into()))?
                .as_string()
                .map_err(&at)?;
            let parsed = match op.as_str() {
                "read" => TraceOp::Read {
                    peer: field_u64(&obj, "peer")
                        .map_err(&at)?
                        .ok_or_else(|| at("read needs `peer`".into()))?
                        as usize,
                },
                "write" => TraceOp::Write {
                    value: field_u64(&obj, "value").map_err(&at)?.unwrap_or(0),
                },
                "compute" => TraceOp::Compute {
                    cycles: field_u64(&obj, "cycles")
                        .map_err(&at)?
                        .ok_or_else(|| at("compute needs `cycles`".into()))?
                        .min(u64::from(u32::MAX)) as u32,
                },
                other => return Err(at(format!("unknown op `{other}`"))),
            };
            if thread >= per_thread.len() {
                per_thread.resize(thread + 1, Vec::new());
            }
            per_thread[thread].push(parsed);
            ops += 1;
        }
        if ops == 0 {
            return Err("trace contains no operations".into());
        }
        Ok(Trace {
            per_thread,
            content_hash: fnv1a(text.as_bytes()),
        })
    }

    /// Number of threads the trace mentions (highest thread index + 1).
    pub fn threads(&self) -> usize {
        self.per_thread.len()
    }

    /// The replayed operations of `thread` (empty beyond
    /// [`Trace::threads`]).
    pub fn ops(&self, thread: usize) -> &[TraceOp] {
        self.per_thread.get(thread).map_or(&[], Vec::as_slice)
    }

    /// FNV-1a hash of the trace text (cache-key component).
    pub fn content_hash(&self) -> u64 {
        self.content_hash
    }
}

fn field_u64(obj: &Json, name: &str) -> Result<Option<u64>, String> {
    obj.field(name)?
        .map(|v| v.as_u64().map_err(|e| format!("`{name}`: {e}")))
        .transpose()
}

/// 64-bit FNV-1a over `bytes` (trace content hashes and scenario keys).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One thread replaying its slice of a [`Trace`], cyclically.
#[derive(Debug, Clone)]
struct TraceProgram {
    ops: Vec<ThreadOp>,
    pos: usize,
    iteration: u64,
}

impl TraceProgram {
    fn new(trace: &Trace, instance: usize, thread: usize, threads: usize, work: u32) -> Self {
        let ops: Vec<ThreadOp> = trace
            .ops(thread)
            .iter()
            .map(|op| match *op {
                TraceOp::Read { peer } => {
                    ThreadOp::Read(state_word(instance, peer % threads, threads))
                }
                TraceOp::Write { value } => {
                    ThreadOp::Write(state_word(instance, thread, threads), value)
                }
                TraceOp::Compute { cycles } => ThreadOp::Compute(cycles.max(1)),
            })
            .collect();
        let ops = if ops.is_empty() {
            // Threads absent from the trace contribute no memory traffic;
            // they spin so the processor model stays uniformly populated.
            vec![ThreadOp::Compute(work.max(1))]
        } else {
            ops
        };
        Self {
            ops,
            pos: 0,
            iteration: 0,
        }
    }
}

impl ThreadProgram for TraceProgram {
    fn clone_box(&self) -> Box<dyn ThreadProgram> {
        Box::new(self.clone())
    }

    fn next(&mut self, _last_read: Option<u64>) -> ThreadOp {
        let op = self.ops[self.pos];
        self.pos += 1;
        if self.pos == self.ops.len() {
            self.pos = 0;
            self.iteration += 1;
        }
        op
    }
}

/// The workload a machine's processors run (CLI `--traffic` /
/// `--trace-in`).
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// The paper's neighbour application over the topology's own
    /// application graph (default).
    Neighbor,
    /// Every non-target thread reads the state words of threads
    /// `0..targets`; the targets themselves run the neighbour program —
    /// memory hotspot contention at a few homes.
    Hotspot {
        /// Number of hotspot target threads (clamped to `1..=threads`).
        targets: usize,
    },
    /// Every thread reads its transpose peer's state word (see
    /// [`transpose_peer`]); diagonal threads fall back to the neighbour
    /// program.
    Transpose,
    /// Replay of an explicit operation trace.
    Trace(Arc<Trace>),
}

impl Workload {
    /// Parses a `--traffic` specifier: `neighbor`, `transpose`,
    /// `hotspot`, or `hotspot:<targets>`.
    ///
    /// # Errors
    ///
    /// Describes the accepted forms on an unknown specifier.
    pub fn parse(spec: &str) -> Result<Workload, String> {
        match spec {
            "neighbor" => Ok(Workload::Neighbor),
            "transpose" => Ok(Workload::Transpose),
            "hotspot" => Ok(Workload::Hotspot { targets: 1 }),
            other => {
                if let Some(n) = other.strip_prefix("hotspot:") {
                    let targets: usize = n
                        .parse()
                        .map_err(|_| format!("bad hotspot target count `{n}`"))?;
                    if targets == 0 {
                        return Err("hotspot needs at least one target".into());
                    }
                    return Ok(Workload::Hotspot { targets });
                }
                Err(format!(
                    "unknown traffic `{other}` (expected neighbor, hotspot[:targets], transpose)"
                ))
            }
        }
    }

    /// Canonical cache-key spelling (feeds `commloc serve`'s scenario
    /// key, so every variant — including each distinct trace — must
    /// render distinctly).
    pub fn canonical(&self) -> String {
        match self {
            Workload::Neighbor => "neighbor".into(),
            Workload::Hotspot { targets } => format!("hotspot:{targets}"),
            Workload::Transpose => "transpose".into(),
            Workload::Trace(t) => format!("trace:{:016x}", t.content_hash()),
        }
    }

    /// Builds the program for `thread` of `instance` on `topology`.
    pub fn program(
        &self,
        topology: &Topology,
        instance: usize,
        thread: usize,
        work: u32,
    ) -> Box<dyn ThreadProgram> {
        let threads = topology.compute_nodes();
        match self {
            Workload::Neighbor => Box::new(NeighborProgram::new(topology, instance, thread, work)),
            Workload::Hotspot { targets } => {
                let t = (*targets).clamp(1, threads);
                if thread < t {
                    Box::new(NeighborProgram::new(topology, instance, thread, work))
                } else {
                    let peers: Vec<usize> = (0..t).collect();
                    Box::new(NeighborProgram::with_peers(
                        instance, thread, threads, &peers, work,
                    ))
                }
            }
            Workload::Transpose => {
                let peer = transpose_peer(thread, threads);
                if peer == thread {
                    Box::new(NeighborProgram::new(topology, instance, thread, work))
                } else {
                    Box::new(NeighborProgram::with_peers(
                        instance,
                        thread,
                        threads,
                        &[peer],
                        work,
                    ))
                }
            }
            Workload::Trace(trace) => {
                Box::new(TraceProgram::new(trace, instance, thread, threads, work))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube() -> Topology {
        Topology::cube(2, 8)
    }

    #[test]
    fn state_words_are_line_disjoint() {
        let mut lines = std::collections::BTreeSet::new();
        for instance in 0..4 {
            for thread in 0..64 {
                assert!(
                    lines.insert(state_word(instance, thread, 64).line()),
                    "line collision at {instance}/{thread}"
                );
            }
        }
    }

    #[test]
    fn program_emits_paper_iteration_shape() {
        let t = cube();
        let mut p = NeighborProgram::new(&t, 0, 9, 5);
        let mut ops = Vec::new();
        for _ in 0..10 {
            ops.push(p.next(None));
        }
        // compute, read x4 (interleaved with computes), compute, write.
        assert!(matches!(ops[0], ThreadOp::Compute(5)));
        assert!(matches!(ops[1], ThreadOp::Read(_)));
        assert!(matches!(ops[8], ThreadOp::Compute(5)));
        match ops[9] {
            ThreadOp::Write(addr, value) => {
                assert_eq!(addr, state_word(0, 9, 64));
                assert_eq!(value, 1);
            }
            other => panic!("expected write, got {other:?}"),
        }
        assert_eq!(p.iterations(), 1);
    }

    #[test]
    fn neighbors_are_torus_neighbors() {
        let t = cube();
        let p = NeighborProgram::new(&t, 0, 0, 1);
        let neighbor_threads: Vec<u64> = p
            .neighbors
            .iter()
            .map(|a| a.0 / WORDS_PER_LINE as u64)
            .collect();
        // Node 0 of an 8x8 torus neighbours 1, 7, 8, 56.
        assert_eq!(neighbor_threads, vec![1, 7, 8, 56]);
    }

    #[test]
    fn home_map_follows_mapping() {
        let t = cube();
        let mapping = crate::mapping::Mapping::random(64, 3);
        let home = workload_home_map(&t, &mapping, 2);
        for thread in 0..64 {
            for instance in 0..2 {
                let line = state_word(instance, thread, 64).line();
                assert_eq!(home.home(line), mapping.processor(thread));
            }
        }
    }

    #[test]
    fn checksum_accumulates_reads() {
        let t = cube();
        let mut p = NeighborProgram::new(&t, 0, 0, 1);
        p.next(None); // compute
        p.next(None); // read
        p.next(Some(10)); // compute (value consumed)
        assert_eq!(p.checksum(), 10);
    }

    #[test]
    fn fat_tree_home_map_avoids_switches() {
        let t = Topology::fat_tree(4, 2);
        let mapping = Mapping::identity(t.compute_nodes());
        let home = workload_home_map(&t, &mapping, 1);
        for thread in 0..t.compute_nodes() {
            let line = state_word(0, thread, t.compute_nodes()).line();
            assert!(home.home(line).0 < t.compute_nodes());
        }
    }

    #[test]
    fn transpose_peer_is_an_involution() {
        for threads in [16, 64, 10] {
            for thread in 0..threads {
                let peer = transpose_peer(thread, threads);
                assert!(peer < threads);
                assert_eq!(transpose_peer(peer, threads), thread);
            }
        }
        assert_eq!(transpose_peer(1, 64), 8); // (0,1) -> (1,0)
    }

    #[test]
    fn hotspot_workload_reads_target_words() {
        let t = cube();
        let w = Workload::Hotspot { targets: 2 };
        let mut p = w.program(&t, 0, 10, 1);
        let mut reads = Vec::new();
        for _ in 0..64 {
            if let ThreadOp::Read(addr) = p.next(None) {
                reads.push(addr.0 / WORDS_PER_LINE as u64);
                if reads.len() == 4 {
                    break;
                }
            }
        }
        assert_eq!(
            reads,
            vec![0, 1, 0, 1],
            "non-target reads the hotspot words"
        );
    }

    #[test]
    fn workload_parse_round_trips() {
        for spec in ["neighbor", "transpose", "hotspot:4"] {
            assert_eq!(Workload::parse(spec).unwrap().canonical(), spec);
        }
        assert_eq!(Workload::parse("hotspot").unwrap().canonical(), "hotspot:1");
        assert!(Workload::parse("bogus").is_err());
    }

    #[test]
    fn trace_parses_and_replays_cyclically() {
        let text = "\
# tiny two-thread trace
{\"thread\": 0, \"op\": \"read\", \"peer\": 1}
{\"thread\": 0, \"op\": \"write\", \"value\": 7}
{\"thread\": 1, \"op\": \"compute\", \"cycles\": 3}
{\"thread\": 1, \"op\": \"read\", \"peer\": 0}
";
        let trace = Trace::parse(text).unwrap();
        assert_eq!(trace.threads(), 2);
        assert_eq!(trace.ops(0).len(), 2);
        assert_eq!(trace.ops(5), &[]);
        let w = Workload::Trace(Arc::new(trace));
        let mut p = w.program(&cube(), 0, 0, 10);
        assert!(matches!(p.next(None), ThreadOp::Read(a) if a == state_word(0, 1, 64)));
        assert!(matches!(p.next(None), ThreadOp::Write(a, 7) if a == state_word(0, 0, 64)));
        // Cyclic: back to the first op.
        assert!(matches!(p.next(None), ThreadOp::Read(a) if a == state_word(0, 1, 64)));
        // Threads beyond the trace spin.
        let mut idle = w.program(&cube(), 0, 9, 10);
        assert!(matches!(idle.next(None), ThreadOp::Compute(10)));
    }

    #[test]
    fn trace_rejects_malformed_lines() {
        assert!(Trace::parse("").is_err(), "empty trace");
        let bad_op = "{\"thread\": 0, \"op\": \"jump\"}";
        assert!(Trace::parse(bad_op).unwrap_err().contains("unknown op"));
        let no_peer = "{\"thread\": 0, \"op\": \"read\"}";
        assert!(Trace::parse(no_peer).unwrap_err().contains("peer"));
    }

    #[test]
    fn trace_hashes_differ_by_content() {
        let a = Trace::parse("{\"thread\":0,\"op\":\"compute\",\"cycles\":1}").unwrap();
        let b = Trace::parse("{\"thread\":0,\"op\":\"compute\",\"cycles\":2}").unwrap();
        assert_ne!(a.content_hash(), b.content_hash());
    }
}
