//! Shard partitioning and the parallel worker loop: one large torus split
//! into contiguous sub-tori stepped under a conservative time-window
//! scheme (DESIGN.md §4.11).
//!
//! [`Machine::with_shards`] splits the node range `[0, N)` into `k`
//! contiguous shards, each owning its processors, controllers, and a
//! [`commloc_net::Fabric`] shard. Because every link in the fabric has a
//! one-cycle latency, the conservative safe horizon is exactly one
//! network cycle: all shards step cycle `t` independently, then exchange
//! the flits and credits that crossed shard boundaries during `t`
//! (each lands in its destination's input buffers exactly as the
//! one-shard delivery phase of `t+1` would have placed it). Boundary
//! ingestion is commutative within a cycle — every item targets a
//! distinct FIFO slot, credit counter, or slab entry — and the driver
//! still routes items in deterministic `(shard, engine)` order, so a
//! sharded run is **bit-exact** with the one-shard [`Machine`]: same
//! statistics, same per-node completions, same fault log, same
//! fast-forward jumps, same watchdog trip cycle and diagnostics.
//!
//! The machine's serial step is the one driver for every shard count.
//! This module adds the worker loop that [`Machine::run_network_cycles`]
//! takes with `jobs > 1`: shards are distributed over persistent
//! `std::thread::scope` workers synchronized by three barriers per
//! network cycle (step + export, exchange + inject, driver bookkeeping).
//! It produces identical state to the serial step: the only scheduling
//! freedom is the arrival order of boundary items in a destination
//! inbox, and those are sorted by source shard before ingestion (and
//! commute regardless). It steps every cycle — it never fast-forwards.

use crate::error::SimError;
use crate::machine::{Machine, Shard, SimConfig, Watchdog};
use crate::mapping::Mapping;
use commloc_mem::ProtocolMsg;
use commloc_net::BoundaryItem;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

/// Splits `nodes` into `k` contiguous near-equal `(base, owned)` ranges.
pub(crate) fn shard_ranges(nodes: usize, k: usize) -> Vec<(usize, usize)> {
    let size = nodes / k;
    let rem = nodes % k;
    let mut out = Vec::with_capacity(k);
    let mut base = 0;
    for i in 0..k {
        let owned = size + usize::from(i < rem);
        out.push((base, owned));
        base += owned;
    }
    out
}

/// Index of the shard owning global `node`, given the shards' ascending
/// first nodes.
fn owner_of(bases: &[usize], node: usize) -> usize {
    bases.partition_point(|&base| base <= node) - 1
}

/// The oldest-issue encoding on the workers' atomic publication path
/// (`u64::MAX` = no outstanding transaction).
const NO_ISSUE: u64 = u64::MAX;

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

/// The parallel worker loop behind [`Machine::run_network_cycles`]:
/// steps `shards` from network cycle `clock` to `target` on `workers`
/// threads (contiguous shard chunks, three barriers per cycle),
/// assigning message ids from `next_msg_id` and feeding `watchdog` the
/// same trip rule as the serial step. Bit-identical to the serial step.
/// Advances `clock` to the last cycle stepped and returns the stall
/// length if the watchdog tripped there.
pub(crate) fn run_parallel(
    shards: &mut [Shard],
    config: &SimConfig,
    clock: &mut u64,
    next_msg_id: &mut u64,
    watchdog: &mut Watchdog,
    target: u64,
    workers: usize,
) -> Result<Option<u64>, SimError> {
    let nshards = shards.len();
    let workers = workers.min(nshards);
    let bases: Vec<usize> = shards.iter().map(|s| s.base).collect();
    let ratio = u64::from(config.clock_ratio);
    let start_cycle = *clock;

    // Shared coordination state. Boundary items are pushed into the
    // destination shard's inbox tagged with the source shard, then
    // sorted by source before ingestion for a deterministic order.
    type Inbox = Mutex<Vec<(u32, BoundaryItem<ProtocolMsg>)>>;
    let inboxes: Vec<Inbox> = (0..nshards).map(|_| Mutex::new(Vec::new())).collect();
    let staged_counts: Vec<AtomicU64> = (0..nshards).map(|_| AtomicU64::new(0)).collect();
    let activity_slots: Vec<AtomicU64> = (0..nshards).map(|_| AtomicU64::new(0)).collect();
    let completed_slots: Vec<AtomicU64> = (0..nshards).map(|_| AtomicU64::new(0)).collect();
    let oldest_slots: Vec<AtomicU64> = (0..nshards).map(|_| AtomicU64::new(NO_ISSUE)).collect();
    let id_base = AtomicU64::new(*next_msg_id);
    let stop = AtomicBool::new(false);
    let error: Mutex<Option<(usize, SimError)>> = Mutex::new(None);
    let barrier = Barrier::new(workers + 1);

    let record_error = |shard: usize, e: SimError| {
        let mut slot = error.lock().expect("error slot");
        match slot.as_ref() {
            Some(&(existing, _)) if existing <= shard => {}
            _ => *slot = Some((shard, e)),
        }
    };

    // Contiguous shard-to-worker assignment: exactly `workers` non-empty
    // chunks (workers <= nshards), sized within one shard of each other.
    // The barrier above counts `workers + 1` parties, so the chunk count
    // must match the worker count exactly.
    let base_per = nshards / workers;
    let extra = nshards % workers;
    let mut chunks: Vec<(usize, &mut [Shard])> = Vec::with_capacity(workers);
    let mut rest: &mut [Shard] = shards;
    let mut first = 0;
    for w in 0..workers {
        let take = base_per + usize::from(w < extra);
        let (head, tail) = rest.split_at_mut(take);
        chunks.push((first, head));
        first += take;
        rest = tail;
    }
    debug_assert!(rest.is_empty());

    let mut cycle = start_cycle;
    let mut stalled = None;

    std::thread::scope(|scope| {
        for (first_shard, chunk) in chunks {
            let barrier = &barrier;
            let stop = &stop;
            let inboxes = &inboxes;
            let staged_counts = &staged_counts;
            let activity_slots = &activity_slots;
            let completed_slots = &completed_slots;
            let oldest_slots = &oldest_slots;
            let id_base = &id_base;
            let bases = &bases;
            let record_error = &record_error;
            scope.spawn(move || {
                let mut out: Vec<BoundaryItem<ProtocolMsg>> = Vec::new();
                let mut cycle = start_cycle;
                loop {
                    barrier.wait(); // cycle start: driver has decided
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    cycle += 1;
                    let boundary = cycle.is_multiple_of(ratio);
                    // Phase 1: step fabrics, export boundary traffic,
                    // run processor boundaries (staging injections).
                    for (j, shard) in chunk.iter_mut().enumerate() {
                        let si = first_shard + j;
                        if let Err(e) = shard.fabric.step() {
                            record_error(si, e.into());
                            continue;
                        }
                        out.clear();
                        shard.fabric.take_boundary(&mut out);
                        for item in out.drain(..) {
                            let owner = owner_of(bases, item.dst_node());
                            inboxes[owner]
                                .lock()
                                .expect("inbox")
                                .push((si as u32, item));
                        }
                        if boundary {
                            if let Err(e) = shard.step_nodes_active(config, cycle) {
                                record_error(si, e);
                            }
                            staged_counts[si].store(shard.staged.len() as u64, Ordering::Release);
                        }
                    }
                    barrier.wait(); // phase 1 complete everywhere

                    // Phase 2: ingest our inboxes (sorted by source
                    // shard), inject staged messages at the global id
                    // offsets, publish watchdog inputs.
                    let base = id_base.load(Ordering::Acquire);
                    for (j, shard) in chunk.iter_mut().enumerate() {
                        let si = first_shard + j;
                        {
                            let mut inbox = inboxes[si].lock().expect("inbox");
                            inbox.sort_by_key(|&(src, _)| src);
                            for (_, item) in inbox.drain(..) {
                                shard.fabric.ingest_boundary(item);
                            }
                        }
                        if boundary {
                            let start: u64 = (0..si)
                                .map(|k| staged_counts[k].load(Ordering::Acquire))
                                .sum::<u64>()
                                + base;
                            shard.flush_staged(start);
                        }
                        activity_slots[si].store(shard.fabric.activity(), Ordering::Release);
                        completed_slots[si].store(shard.completed, Ordering::Release);
                        oldest_slots[si].store(
                            shard.oldest_outstanding_issue().unwrap_or(NO_ISSUE),
                            Ordering::Release,
                        );
                    }
                    barrier.wait(); // phase 2 complete; driver books
                }
            });
        }

        // Driver loop.
        loop {
            let finished =
                cycle >= target || stalled.is_some() || error.lock().expect("error slot").is_some();
            stop.store(finished, Ordering::Release);
            barrier.wait(); // release workers into the cycle
            if finished {
                break;
            }
            cycle += 1;
            let boundary = cycle.is_multiple_of(ratio);
            barrier.wait(); // phase 1 runs
            barrier.wait(); // phase 2 runs
            if boundary {
                let total: u64 = staged_counts
                    .iter()
                    .map(|c| c.load(Ordering::Acquire))
                    .sum();
                id_base.fetch_add(total, Ordering::AcqRel);
            }
            let sum = |slots: &[AtomicU64]| -> u64 {
                slots.iter().map(|s| s.load(Ordering::Acquire)).sum()
            };
            let oldest = oldest_slots
                .iter()
                .map(|s| s.load(Ordering::Acquire))
                .min()
                .filter(|&v| v != NO_ISSUE);
            stalled = watchdog.check(
                cycle,
                (sum(&activity_slots), sum(&completed_slots)),
                oldest,
                config.watchdog_cycles,
            );
        }
    });

    *clock = cycle;
    *next_msg_id = id_base.into_inner();
    match error.into_inner().expect("error slot") {
        Some((_, e)) => Err(e),
        None => Ok(stalled),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commloc_mem::MemConfig;
    use commloc_net::{FaultConfig, FaultPlan};

    fn small(dims: u32, radix: usize) -> SimConfig {
        SimConfig {
            dims,
            radix,
            ..SimConfig::default()
        }
    }

    /// Runs warmup + measurement window through a one-shard machine and
    /// a `shards`-way machine on `jobs` workers, asserting every
    /// observable is bit-exact: outcomes (including stall reports),
    /// clocks, measurements, completions, breakdowns, fault logs, and —
    /// on the serial driver — fast-forward jumps. Returns the sharded
    /// machine.
    fn compare(
        config: &SimConfig,
        mapping: &Mapping,
        shards: usize,
        jobs: usize,
        warmup: u64,
        window: u64,
    ) -> Machine {
        let mut mono = Machine::new(config, mapping);
        let mut sharded = Machine::with_shards(config, mapping, shards);
        // Raise the process job budget so the parallel path actually runs
        // on single-core test hosts instead of falling back to serial.
        crate::parallel::set_job_budget(jobs);
        sharded.set_jobs(jobs);
        let ra = mono.run_network_cycles(warmup);
        let rb = sharded.run_network_cycles(warmup);
        assert_eq!(ra, rb, "warmup outcomes diverged");
        if ra.is_ok() {
            mono.reset_measurements();
            sharded.reset_measurements();
            let ra = mono.run_network_cycles(window);
            let rb = sharded.run_network_cycles(window);
            assert_eq!(ra, rb, "window outcomes diverged");
        }
        assert_eq!(mono.net_cycle(), sharded.net_cycle());
        assert_eq!(mono.measure(), sharded.measure(), "measurements diverged");
        assert_eq!(mono.completions(), sharded.completions());
        assert_eq!(
            mono.completions_per_node(),
            sharded.completions_per_node(),
            "per-node completions diverged"
        );
        assert_eq!(
            mono.latency_breakdown(),
            sharded.latency_breakdown(),
            "latency breakdowns diverged"
        );
        assert_eq!(mono.breakdown(2.0), sharded.breakdown(2.0));
        assert_eq!(mono.fault_log(), sharded.fault_log(), "fault logs diverged");
        // Worker threads step every cycle; only the serial driver jumps.
        if jobs == 1 {
            assert_eq!(
                mono.fast_forwarded_cycles(),
                sharded.fast_forwarded_cycles(),
                "fast-forward jumps diverged"
            );
        }
        sharded
    }

    #[test]
    fn sharded_serial_matches_monolithic_across_shard_counts() {
        let config = small(2, 4);
        for shards in [2, 3, 7] {
            compare(&config, &Mapping::identity(16), shards, 1, 6_000, 14_000);
        }
        compare(&config, &Mapping::random(16, 5), 4, 1, 6_000, 14_000);
    }

    #[test]
    fn sharded_matches_with_multiple_contexts() {
        let config = SimConfig {
            contexts: 2,
            ..small(2, 4)
        };
        compare(&config, &Mapping::random(16, 9), 3, 1, 5_000, 12_000);
    }

    #[test]
    fn sharded_matches_on_three_d_torus() {
        let config = small(3, 3);
        compare(&config, &Mapping::identity(27), 5, 1, 5_000, 12_000);
    }

    #[test]
    fn sharded_matches_under_random_faults() {
        let config = SimConfig {
            mem: MemConfig {
                timeout_cycles: 2_000,
                ..MemConfig::default()
            },
            fault_plan: Some(FaultPlan::new(13).with_config(FaultConfig {
                drop_rate: 0.002,
                corrupt_rate: 0.001,
                ..FaultConfig::default()
            })),
            ..small(2, 4)
        };
        for shards in [2, 4] {
            compare(&config, &Mapping::identity(16), shards, 1, 6_000, 14_000);
        }
    }

    #[test]
    fn sharded_fast_forward_through_retry_gaps_matches_one_shard() {
        // The machine bench's retry-gap scenario: 5% drops and 8k-cycle
        // retry timeouts leave every node blocked on a retry deadline
        // with the fabric drained. The serial driver must jump those
        // gaps at every shard count, bit-exact with one shard.
        let config = SimConfig {
            mem: MemConfig {
                timeout_cycles: 8_000,
                max_retries: 30,
                ..MemConfig::default()
            },
            watchdog_cycles: 60_000,
            fault_plan: Some(FaultPlan::new(23).with_config(FaultConfig {
                drop_rate: 0.05,
                ..FaultConfig::default()
            })),
            ..small(2, 4)
        };
        for shards in [2, 4] {
            let sharded = compare(&config, &Mapping::identity(16), shards, 1, 20_000, 100_000);
            assert!(
                sharded.fast_forwarded_cycles() > 0,
                "{shards} shards: no quiescent gap was jumped"
            );
        }
    }

    #[test]
    fn sharded_watchdog_trips_with_identical_diagnostics() {
        use commloc_net::Direction;
        // The killed link wedges the workload; the centralized watchdog
        // must reproduce the monolithic trip cycle and merged report.
        let config = SimConfig {
            watchdog_cycles: 3_000,
            fault_plan: Some(FaultPlan::new(7).kill_link_at(1_000, 0, 0, Direction::Plus)),
            ..small(2, 4)
        };
        compare(&config, &Mapping::identity(16), 3, 1, 200_000, 0);
    }

    #[test]
    fn sharded_backpressure_classification_matches() {
        let config = SimConfig {
            watchdog_cycles: 2_000,
            fault_plan: Some(FaultPlan::new(3).stall_router_at(1_000, 5, 50_000)),
            ..small(2, 4)
        };
        compare(&config, &Mapping::identity(16), 2, 1, 60_000, 0);
    }

    #[test]
    fn parallel_workers_match_serial_and_monolithic() {
        let config = small(2, 4);
        for jobs in [2, 3] {
            compare(&config, &Mapping::identity(16), 4, jobs, 6_000, 14_000);
        }
        // Under faults too, and with a watchdog trip on workers.
        let faulty = SimConfig {
            mem: MemConfig {
                timeout_cycles: 2_000,
                ..MemConfig::default()
            },
            fault_plan: Some(FaultPlan::new(21).with_config(FaultConfig {
                drop_rate: 0.002,
                ..FaultConfig::default()
            })),
            ..small(2, 4)
        };
        compare(&faulty, &Mapping::random(16, 2), 4, 2, 6_000, 14_000);
    }

    #[test]
    fn parallel_watchdog_trip_matches_monolithic() {
        use commloc_net::Direction;
        let config = SimConfig {
            watchdog_cycles: 3_000,
            fault_plan: Some(FaultPlan::new(7).kill_link_at(1_000, 0, 0, Direction::Plus)),
            ..small(2, 4)
        };
        compare(&config, &Mapping::identity(16), 4, 2, 200_000, 0);
    }

    #[test]
    fn shard_ranges_are_contiguous_and_cover() {
        for (nodes, k) in [(16, 3), (64, 7), (27, 5), (8, 8)] {
            let ranges = shard_ranges(nodes, k);
            assert_eq!(ranges.len(), k);
            let mut next = 0;
            for &(base, owned) in &ranges {
                assert_eq!(base, next);
                assert!(owned > 0);
                next += owned;
            }
            assert_eq!(next, nodes);
            let bases: Vec<usize> = ranges.iter().map(|&(base, _)| base).collect();
            for node in 0..nodes {
                let owner = owner_of(&bases, node);
                let (base, owned) = ranges[owner];
                assert!(node >= base && node < base + owned);
            }
        }
    }
}
