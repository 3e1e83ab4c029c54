//! Shard partitioning: one large torus split into contiguous sub-tori
//! stepped under a conservative time-window scheme (DESIGN.md §4.11).
//!
//! [`Machine::with_shards`] splits the node range `[0, N)` into `k`
//! contiguous shards ([`commloc_net::shard_ranges`], the one partition
//! rule), each owning its processors, controllers, and a
//! [`commloc_net::Fabric`] shard. Because every link in the fabric has a
//! one-cycle latency, the conservative safe horizon is exactly one
//! network cycle: all shards step cycle `t` independently — on worker
//! threads when [`Machine::set_jobs`] grants them — then the calling
//! thread exchanges the flits and credits that crossed shard boundaries
//! during `t` (each lands in its destination's input buffers exactly as
//! the one-shard delivery phase of `t+1` would have placed it). Boundary
//! items are ingested in a deterministic order (source shard, then each
//! fabric's switch-traversal order), so a sharded run is **bit-exact**
//! with the one-shard [`Machine`] at every worker count: same
//! statistics, same per-node completions, same fault log, same flit
//! trace and span log, same fast-forward jumps, same watchdog trip cycle
//! and diagnostics.
//!
//! The step itself is [`Machine`]'s. The machine fuzzer's one lockstep
//! checker ([`crate::fuzz::run_scenario`]) compares the sharded machine
//! with the one-shard and reference engines at every shard and worker
//! count. This module holds only the [`ShardedMachine`] name the
//! benchmark package uses.

use crate::machine::{Machine, SimConfig};
use crate::mapping::Mapping;
use std::ops::{Deref, DerefMut};

/// A [`Machine`] built with [`Machine::with_shards`].
///
/// The type exists for the benchmark package, which names it; everything
/// else uses [`Machine`] directly. It dereferences to the machine.
#[derive(Debug)]
pub struct ShardedMachine(Machine);

impl ShardedMachine {
    /// Builds `shards` contiguous shards over the configured torus (see
    /// [`Machine::with_shards`]).
    ///
    /// # Panics
    ///
    /// As [`Machine::with_shards`].
    pub fn new(config: &SimConfig, mapping: &Mapping, shards: usize) -> Self {
        Self(Machine::with_shards(config, mapping, shards))
    }
}

impl Deref for ShardedMachine {
    type Target = Machine;

    fn deref(&self) -> &Machine {
        &self.0
    }
}

impl DerefMut for ShardedMachine {
    fn deref_mut(&mut self) -> &mut Machine {
        &mut self.0
    }
}
