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
//! The step itself is [`Machine`]'s; this module holds the
//! [`ShardedMachine`] name the benchmark package uses and the sharded
//! machine's equivalence tests.

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
    /// clocks, measurements, completions, breakdowns, fault logs,
    /// fast-forward jumps, and flit and span traces. Returns the sharded
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
        // Raise the process job budget so worker threads actually run on
        // single-core test hosts instead of falling back to one worker.
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
        assert_eq!(
            mono.fast_forwarded_cycles(),
            sharded.fast_forwarded_cycles(),
            "fast-forward jumps diverged"
        );
        assert_eq!(mono.trace(), sharded.trace(), "flit traces diverged");
        assert_eq!(mono.spans(), sharded.spans(), "span logs diverged");
        sharded
    }

    #[test]
    fn traced_shards_merge_into_the_one_shard_rings() {
        use commloc_net::{FabricConfig, Topology};
        // Rings far smaller than a window's events evict all along, so
        // the merge must keep exactly the newest events across shards.
        let traced = |config: SimConfig| SimConfig {
            fabric: FabricConfig {
                trace_capacity: 64,
                ..config.fabric
            },
            ..config
        };
        let lossy_cube = traced(SimConfig {
            contexts: 2,
            mem: MemConfig {
                timeout_cycles: 2_000,
                ..MemConfig::default()
            },
            fault_plan: Some(FaultPlan::new(3).with_config(FaultConfig {
                drop_rate: 0.01,
                ..FaultConfig::default()
            })),
            ..small(2, 4)
        });
        let fat_tree = traced(SimConfig {
            topology: Some(Topology::fat_tree(2, 4)),
            ..SimConfig::default()
        });
        for (config, mapping) in [
            (lossy_cube, Mapping::identity(16)),
            (fat_tree, Mapping::random(16, 4)),
        ] {
            for jobs in [1, 2] {
                let sharded = compare(&config, &mapping, 3, jobs, 3_000, 6_000);
                let trace = sharded.trace().expect("tracing is on");
                let spans = sharded.spans().expect("tracing is on");
                assert!(trace.recorded() > 64 && spans.recorded() > 64);
                assert_eq!((trace.len(), spans.len()), (64, 64));
                let dropped = sharded.fault_log().map(|log| log.dropped_messages());
                assert_eq!(dropped > Some(0), config.fault_plan.is_some());
            }
        }
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
        // with the fabric drained. The machine must jump those gaps at
        // every shard and worker count, bit-exact with one shard.
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
        for (shards, jobs) in [(2, 1), (4, 1), (4, 2), (3, 3)] {
            let sharded = compare(
                &config,
                &Mapping::identity(16),
                shards,
                jobs,
                20_000,
                100_000,
            );
            assert!(
                sharded.fast_forwarded_cycles() > 0,
                "{shards} shards on {jobs} jobs: no quiescent gap was jumped"
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
}
