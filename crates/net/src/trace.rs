//! Bounded ring-buffer event tracing for the fabric.
//!
//! When [`FabricConfig::trace_capacity`](crate::FabricConfig) is nonzero,
//! the fabric records one [`TraceEvent`] per interesting flit movement —
//! injection, head blocking inside a router, delivery, fault drop — into
//! a fixed-capacity ring. The ring never exceeds its bound (oldest events
//! are evicted first) and is entirely absent when tracing is off, so the
//! default configuration pays only a dead `Option` check per event site.

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
