//! Transaction-level latency decomposition and protocol span tracing.
//!
//! The paper's Equation 18 decomposes transaction latency as
//! `T_t = c * T_m + T_f`: `c` critical-path message latencies plus a
//! fixed (network-independent) overhead of protocol processing and cache
//! access. [`TransactionBreakdown`] maps the simulator's measured
//! quantities onto that decomposition and attaches the fabric's
//! per-message latency components (see
//! [`commloc_net::LatencyBreakdown`]), so a measured `T_m` can be read as
//! *where* the cycles went: source queueing, injection, free routing,
//! contention, ejection-port wait, and body drain.
//!
//! [`SpanLog`] is the transaction-level counterpart of the fabric's flit
//! trace: a bounded ring of issue / message-out / message-in / completion
//! events stamped with network cycles, enabled by the same
//! `trace_capacity` knob and absent (zero overhead) when tracing is off.

use commloc_net::{NodeId, TraceBuffer};

/// Average transaction latency mapped onto the paper's
/// `T_t = c * T_m + T_f` decomposition, with the measured message latency
/// `T_m` further split into the fabric's six per-message components.
///
/// All quantities are averages over the measurement window, in network
/// cycles. The six message components sum exactly to
/// [`message_latency`](Self::message_latency) (each is an average of a
/// `u64` component whose per-delivery sum telescopes to the total).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransactionBreakdown {
    /// Measured average transaction latency `T_t`.
    pub transaction_latency: f64,
    /// Measured average message latency `T_m`.
    pub message_latency: f64,
    /// Critical-path message count `c` used for the split (the paper's
    /// architecture: 2 — request plus reply).
    pub critical_path_messages: f64,
    /// Network-dependent part of `T_t`: `c * T_m`.
    pub message_path: f64,
    /// Fixed overhead `T_f = T_t - c * T_m` (protocol processing, cache
    /// and directory access, context-switch time).
    pub fixed_overhead: f64,
    /// Average cycles a message waited in its source queue.
    pub queue: f64,
    /// Average injection-channel cycles (1 per network message).
    pub injection: f64,
    /// Average free (uncontended) hop cycles — one per hop.
    pub free_hop: f64,
    /// Average cycles lost to in-network contention.
    pub contended_hop: f64,
    /// Average body-drain cycles (`B - 1` for a `B`-flit message,
    /// uncontended).
    pub drain: f64,
    /// Average ejection-port wait at the destination.
    pub protocol: f64,
    /// Deliveries the message components were averaged over.
    pub deliveries: u64,
}

impl TransactionBreakdown {
    /// The six per-message components as `(label, cycles)` pairs, in
    /// presentation order.
    pub fn message_components(&self) -> [(&'static str, f64); 6] {
        [
            ("queue", self.queue),
            ("injection", self.injection),
            ("free-hop", self.free_hop),
            ("contended-hop", self.contended_hop),
            ("drain", self.drain),
            ("protocol", self.protocol),
        ]
    }

    /// Sum of the six per-message components (equals
    /// [`message_latency`](Self::message_latency) up to float summation
    /// of exact integer averages).
    pub fn components_total(&self) -> f64 {
        self.message_components().iter().map(|(_, v)| v).sum()
    }

    /// One CSV row of this record, column order per
    /// [`BREAKDOWN_CSV_HEADER`].
    pub fn to_csv_row(&self) -> String {
        format!(
            "{:.4},{:.4},{:.2},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{}",
            self.transaction_latency,
            self.message_latency,
            self.critical_path_messages,
            self.message_path,
            self.fixed_overhead,
            self.queue,
            self.injection,
            self.free_hop,
            self.contended_hop,
            self.drain,
            self.protocol,
            self.deliveries,
        )
    }
}

/// CSV header matching [`TransactionBreakdown::to_csv_row`].
pub const BREAKDOWN_CSV_HEADER: &str = "transaction_latency,message_latency,\
critical_path_messages,message_path,fixed_overhead,queue,injection,free_hop,\
contended_hop,drain,protocol,deliveries";

/// One transaction-level span event, stamped with the network cycle it
/// occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanEvent {
    /// A context issued a memory transaction to its controller.
    Issue {
        /// Network cycle of issue.
        cycle: u64,
        /// Issuing node.
        node: NodeId,
        /// Transaction id.
        txn: u64,
    },
    /// A controller handed a protocol message to the fabric.
    MsgOut {
        /// Network cycle of injection-queue entry.
        cycle: u64,
        /// Sending node.
        node: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Protocol message kind (see `ProtocolMsg::kind_name`).
        kind: &'static str,
    },
    /// A delivered protocol message reached a controller.
    MsgIn {
        /// Network cycle of delivery to the controller.
        cycle: u64,
        /// Receiving node.
        node: NodeId,
        /// Protocol message kind.
        kind: &'static str,
    },
    /// A transaction completed and its context resumed.
    Complete {
        /// Network cycle of completion.
        cycle: u64,
        /// Completing node.
        node: NodeId,
        /// Transaction id.
        txn: u64,
        /// Whether the transaction missed (communicated).
        miss: bool,
        /// Issue-to-completion latency in network cycles.
        latency: u64,
    },
}

impl SpanEvent {
    /// The cycle stamp of this event.
    pub fn cycle(&self) -> u64 {
        match *self {
            SpanEvent::Issue { cycle, .. }
            | SpanEvent::MsgOut { cycle, .. }
            | SpanEvent::MsgIn { cycle, .. }
            | SpanEvent::Complete { cycle, .. } => cycle,
        }
    }

    /// This event as one line of JSON (dependency-free serialization for
    /// the `--trace FILE` export).
    pub fn to_json(&self) -> String {
        match *self {
            SpanEvent::Issue { cycle, node, txn } => format!(
                "{{\"event\":\"issue\",\"cycle\":{cycle},\"node\":{},\"txn\":{txn}}}",
                node.0
            ),
            SpanEvent::MsgOut {
                cycle,
                node,
                dst,
                kind,
            } => format!(
                "{{\"event\":\"msg-out\",\"cycle\":{cycle},\"node\":{},\"dst\":{},\"kind\":\"{kind}\"}}",
                node.0, dst.0
            ),
            SpanEvent::MsgIn { cycle, node, kind } => format!(
                "{{\"event\":\"msg-in\",\"cycle\":{cycle},\"node\":{},\"kind\":\"{kind}\"}}",
                node.0
            ),
            SpanEvent::Complete {
                cycle,
                node,
                txn,
                miss,
                latency,
            } => format!(
                "{{\"event\":\"complete\",\"cycle\":{cycle},\"node\":{},\"txn\":{txn},\"miss\":{miss},\"latency\":{latency}}}",
                node.0
            ),
        }
    }
}

/// A bounded ring buffer of [`SpanEvent`]s: the fabric's
/// [`commloc_net::TraceBuffer`] over spans. Pushing beyond capacity
/// evicts the oldest event.
pub type SpanLog = TraceBuffer<SpanEvent>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_ring_never_exceeds_capacity() {
        let mut log = SpanLog::new(3);
        for c in 0..50 {
            log.push(SpanEvent::Issue {
                cycle: c,
                node: NodeId(0),
                txn: c,
            });
            assert!(log.len() <= 3);
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.recorded(), 50);
        let cycles: Vec<u64> = log.iter().map(SpanEvent::cycle).collect();
        assert_eq!(cycles, vec![47, 48, 49]);
    }

    #[test]
    fn span_json_lines_are_well_formed() {
        let events = [
            SpanEvent::Issue {
                cycle: 1,
                node: NodeId(2),
                txn: 7,
            },
            SpanEvent::MsgOut {
                cycle: 2,
                node: NodeId(2),
                dst: NodeId(3),
                kind: "read-req",
            },
            SpanEvent::MsgIn {
                cycle: 9,
                node: NodeId(3),
                kind: "read-req",
            },
            SpanEvent::Complete {
                cycle: 30,
                node: NodeId(2),
                txn: 7,
                miss: true,
                latency: 29,
            },
        ];
        for e in events {
            let json = e.to_json();
            assert!(json.starts_with('{') && json.ends_with('}'));
            assert!(json.contains("\"event\":"));
            assert!(json.contains(&format!("\"cycle\":{}", e.cycle())));
        }
    }

    #[test]
    fn components_total_sums_the_six_components() {
        let b = TransactionBreakdown {
            transaction_latency: 100.0,
            message_latency: 30.0,
            critical_path_messages: 2.0,
            message_path: 60.0,
            fixed_overhead: 40.0,
            queue: 3.0,
            injection: 1.0,
            free_hop: 4.0,
            contended_hop: 2.0,
            drain: 11.0,
            protocol: 9.0,
            deliveries: 1000,
        };
        assert!((b.components_total() - 30.0).abs() < 1e-12);
        assert_eq!(b.message_components().len(), 6);
        let header_cols = BREAKDOWN_CSV_HEADER.split(',').count();
        let row_cols = b.to_csv_row().split(',').count();
        assert_eq!(header_cols, row_cols);
        for field in b.to_csv_row().split(',') {
            field.parse::<f64>().expect("numeric field");
        }
    }
}
