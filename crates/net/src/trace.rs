//! Bounded ring-buffer event tracing for the fabric.
//!
//! When [`FabricConfig::trace_capacity`](crate::FabricConfig) is nonzero,
//! the fabric records one [`TraceEvent`] per interesting flit movement —
//! injection, head blocking inside a router, delivery, fault drop — into
//! a fixed-capacity ring. The ring never exceeds its bound (oldest events
//! are evicted first) and is entirely absent when tracing is off, so the
//! default configuration pays only a dead `Option` check per event site.
//! A sharded fabric keeps one ring per shard, and [`TraceBuffer::merge`]
//! rebuilds the one-shard ring from them.

use crate::message::MessageId;
use crate::topology::NodeId;
use std::collections::VecDeque;

/// One traced fabric event, stamped with the network cycle it occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A message's head flit left its source network interface (loopbacks,
    /// which never enter the network, are traced only as `Deliver`).
    Inject {
        /// Cycle of injection.
        cycle: u64,
        /// The message.
        message: MessageId,
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Message length in flits.
        length: u32,
    },
    /// A head flit departed a router after waiting at least one cycle
    /// past its route assignment (switch-allocation loss or credit
    /// stall); `waited` counts the blocked cycles.
    HopBlock {
        /// Cycle the head finally departed.
        cycle: u64,
        /// The message.
        message: MessageId,
        /// The router it was blocked in.
        node: NodeId,
        /// Cycles spent blocked at this router.
        waited: u64,
    },
    /// A message's tail flit was ejected: the message is complete.
    Deliver {
        /// Cycle of completion.
        cycle: u64,
        /// The message.
        message: MessageId,
        /// Destination node.
        dst: NodeId,
        /// Enqueue-to-completion latency.
        total_latency: u64,
        /// Hops traversed.
        hops: u32,
    },
    /// A fault-doomed message's tail evaporated: the message is gone.
    Drop {
        /// Cycle the last flit was consumed.
        cycle: u64,
        /// The message.
        message: MessageId,
        /// Router at which the worm evaporated.
        node: NodeId,
    },
}

impl TraceEvent {
    /// The cycle stamp of this event.
    pub fn cycle(&self) -> u64 {
        match *self {
            TraceEvent::Inject { cycle, .. }
            | TraceEvent::HopBlock { cycle, .. }
            | TraceEvent::Deliver { cycle, .. }
            | TraceEvent::Drop { cycle, .. } => cycle,
        }
    }

    /// The key [`TraceBuffer::merge`] orders per-shard rings by: the
    /// cycle, then the fabric phase that emitted the event — 0 for
    /// switch traversal (`HopBlock`, `Drop`, an ejecting `Deliver`), 1 for
    /// injection (`Inject`, a loopback `Deliver`, whose `hops` is 0).
    /// Within one phase of one cycle a fabric emits in ascending node
    /// order, so shard order breaks the ties.
    pub fn order_key(&self) -> (u64, u8) {
        let injection = match *self {
            TraceEvent::Inject { .. } => true,
            TraceEvent::Deliver { hops, .. } => hops == 0,
            TraceEvent::HopBlock { .. } | TraceEvent::Drop { .. } => false,
        };
        (self.cycle(), u8::from(injection))
    }

    /// This event as one line of JSON (dependency-free serialization for
    /// the `--trace FILE` export).
    pub fn to_json(&self) -> String {
        match *self {
            TraceEvent::Inject {
                cycle,
                message,
                src,
                dst,
                length,
            } => format!(
                "{{\"event\":\"inject\",\"cycle\":{cycle},\"message\":{},\"src\":{},\"dst\":{},\"length\":{length}}}",
                message.0, src.0, dst.0
            ),
            TraceEvent::HopBlock {
                cycle,
                message,
                node,
                waited,
            } => format!(
                "{{\"event\":\"hop-block\",\"cycle\":{cycle},\"message\":{},\"node\":{},\"waited\":{waited}}}",
                message.0, node.0
            ),
            TraceEvent::Deliver {
                cycle,
                message,
                dst,
                total_latency,
                hops,
            } => format!(
                "{{\"event\":\"deliver\",\"cycle\":{cycle},\"message\":{},\"dst\":{},\"total_latency\":{total_latency},\"hops\":{hops}}}",
                message.0, dst.0
            ),
            TraceEvent::Drop {
                cycle,
                message,
                node,
            } => format!(
                "{{\"event\":\"drop\",\"cycle\":{cycle},\"message\":{},\"node\":{}}}",
                message.0, node.0
            ),
        }
    }
}

/// A bounded ring buffer of events — the fabric's [`TraceEvent`]s by
/// default; the simulator keeps its transaction spans in one too.
/// Pushing beyond capacity evicts the oldest event, so memory stays fixed
/// however long the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceBuffer<E = TraceEvent> {
    capacity: usize,
    events: VecDeque<E>,
    recorded: u64,
}

impl<E> TraceBuffer<E> {
    /// An empty ring holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (a zero-capacity trace is "tracing
    /// off", expressed by not constructing a buffer at all).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be nonzero");
        Self {
            capacity,
            events: VecDeque::with_capacity(capacity),
            recorded: 0,
        }
    }

    /// The fixed capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently retained (at most `capacity`).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events ever recorded, including evicted ones.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Appends an event, evicting the oldest if the ring is full.
    pub fn push(&mut self, event: E) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(event);
        self.recorded += 1;
    }

    /// The retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &E> {
        self.events.iter()
    }
}

impl<E: Clone> TraceBuffer<E> {
    /// Merges per-shard rings, given in shard (ascending node-range)
    /// order, into the ring one shard would hold: the parts concatenated,
    /// stable-sorted by `key`, the newest `capacity` events kept and
    /// `recorded` summed (`None` without parts).
    ///
    /// Exact when `key` orders the events as a one-shard run pushes
    /// them, ties going to shard order, and every part has the shared
    /// capacity: each of the newest `capacity` events overall is then
    /// among the newest `capacity` of its own shard, which its ring still
    /// holds.
    pub fn merge<'a, K: Ord>(
        parts: impl IntoIterator<Item = &'a Self>,
        key: impl Fn(&E) -> K,
    ) -> Option<Self>
    where
        E: 'a,
    {
        let mut parts = parts.into_iter().peekable();
        let capacity = parts.peek()?.capacity;
        let mut recorded = 0;
        let mut events = Vec::new();
        for part in parts {
            recorded += part.recorded;
            events.extend(part.events.iter().cloned());
        }
        events.sort_by_key(&key);
        let evicted = events.len().saturating_sub(capacity);
        Some(Self {
            capacity,
            events: events.drain(evicted..).collect(),
            recorded,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64) -> TraceEvent {
        TraceEvent::Inject {
            cycle,
            message: MessageId(cycle),
            src: NodeId(0),
            dst: NodeId(1),
            length: 4,
        }
    }

    #[test]
    fn ring_never_exceeds_capacity() {
        let mut t = TraceBuffer::new(4);
        for c in 0..100 {
            t.push(ev(c));
            assert!(t.len() <= 4);
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.recorded(), 100);
        // Oldest-first order, newest events retained.
        let cycles: Vec<u64> = t.iter().map(TraceEvent::cycle).collect();
        assert_eq!(cycles, vec![96, 97, 98, 99]);
    }

    #[test]
    fn merge_keeps_the_newest_events_in_cycle_phase_then_shard_order() {
        let inject = |cycle, m| TraceEvent::Inject {
            cycle,
            message: MessageId(m),
            src: NodeId(0),
            dst: NodeId(1),
            length: 4,
        };
        let block = |cycle, m| TraceEvent::HopBlock {
            cycle,
            message: MessageId(m),
            node: NodeId(5),
            waited: 1,
        };
        let loopback = |cycle, m| TraceEvent::Deliver {
            cycle,
            message: MessageId(m),
            dst: NodeId(1),
            total_latency: 0,
            hops: 0,
        };
        let ring = |events: &[TraceEvent]| {
            let mut t = TraceBuffer::new(4);
            events.iter().for_each(|&e| t.push(e));
            t
        };
        let first = ring(&[inject(2, 10), loopback(7, 11), inject(9, 12)]);
        let second = ring(&[
            inject(0, 19),
            inject(1, 20),
            inject(3, 21),
            block(7, 22),
            inject(9, 23),
        ]);
        let merged = TraceBuffer::merge([&first, &second], TraceEvent::order_key).unwrap();
        // Seven retained events overflow the capacity, so the newest four
        // stay. At cycle 7 the later part's hop-block (switch traversal)
        // precedes the earlier part's loopback (injection); the two
        // cycle-9 injections keep part order.
        let kept: Vec<TraceEvent> = merged.iter().copied().collect();
        assert_eq!(
            kept,
            [block(7, 22), loopback(7, 11), inject(9, 12), inject(9, 23)]
        );
        assert_eq!(merged.capacity(), 4);
        assert_eq!(merged.recorded(), 8);
        assert!(TraceBuffer::merge([], TraceEvent::order_key).is_none());
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_rejected() {
        let _: TraceBuffer = TraceBuffer::new(0);
    }

    #[test]
    fn json_lines_are_well_formed() {
        let events = [
            ev(3),
            TraceEvent::HopBlock {
                cycle: 9,
                message: MessageId(1),
                node: NodeId(7),
                waited: 4,
            },
            TraceEvent::Deliver {
                cycle: 20,
                message: MessageId(1),
                dst: NodeId(9),
                total_latency: 17,
                hops: 2,
            },
            TraceEvent::Drop {
                cycle: 21,
                message: MessageId(2),
                node: NodeId(3),
            },
        ];
        for e in events {
            let json = e.to_json();
            assert!(json.starts_with('{') && json.ends_with('}'));
            assert!(json.contains("\"event\":"));
            assert!(json.contains(&format!("\"cycle\":{}", e.cycle())));
        }
    }
}
