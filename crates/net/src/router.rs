//! Per-node router state: input virtual-channel buffers and output
//! channel allocation state.
//!
//! Routers are input-buffered wormhole switches. Each physical input link
//! carries [`DATELINE_VCS`](crate::DATELINE_VCS) virtual channels
//! with private flit buffers; an additional single-VC input port receives
//! flits from the local node's injection channel. Output physical channels
//! are time-multiplexed among their virtual channels flit by flit; a
//! virtual channel, once allocated to a message's head, stays locked to
//! that message until its tail passes (wormhole flow control). Credits
//! track downstream buffer space per virtual channel.
//!
//! The routers hold only state; the cycle algorithm lives in
//! [`crate::fabric`], which owns all routers and the links between them.

use crate::message::Flit;
use crate::topology::VcIndex;
use std::collections::VecDeque;

/// Reference to an input virtual channel within one router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct InputRef {
    pub port: usize,
    pub vc: VcIndex,
}

/// Reference to an output virtual channel within one router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct OutputRef {
    pub port: usize,
    pub vc: VcIndex,
}

/// One input virtual channel: a flit FIFO plus the output assignment of
/// the message currently being forwarded from it.
#[derive(Debug, Default)]
pub(crate) struct VcBuffer {
    pub fifo: VecDeque<Flit>,
    /// Route of the message at the front, assigned when its head flit
    /// reaches the front and cleared when its tail departs.
    pub route: Option<OutputRef>,
}

/// One input port: a set of virtual-channel buffers fed by one physical
/// channel.
#[derive(Debug)]
pub(crate) struct InputPort {
    pub vcs: Vec<VcBuffer>,
}

impl InputPort {
    fn new(vc_count: usize) -> Self {
        Self {
            vcs: (0..vc_count).map(|_| VcBuffer::default()).collect(),
        }
    }
}

/// Credit sentinel for the ejection pseudo-channel, which the node drains
/// unconditionally.
pub(crate) const INFINITE_CREDITS: usize = usize::MAX;

/// Per-output-virtual-channel allocation state.
#[derive(Debug)]
pub(crate) struct OutputVc {
    /// The input VC whose message currently owns this output VC.
    pub locked_by: Option<InputRef>,
    /// Free flit slots in the downstream buffer for this VC.
    pub credits: usize,
    /// Round-robin pointer for allocating this VC among competing input
    /// VCs (flattened input index).
    pub rr_input: usize,
}

/// One output port: per-VC allocation state plus the round-robin pointer
/// that multiplexes the physical channel among its VCs.
#[derive(Debug)]
pub(crate) struct OutputPort {
    pub vcs: Vec<OutputVc>,
    pub rr_vc: usize,
}

impl OutputPort {
    fn new(vc_count: usize, credits: usize) -> Self {
        Self {
            vcs: (0..vc_count)
                .map(|_| OutputVc {
                    locked_by: None,
                    credits,
                    rr_input: 0,
                })
                .collect(),
            rr_vc: 0,
        }
    }
}

/// A single router: input buffers and output allocation state.
#[derive(Debug)]
pub(crate) struct Router {
    pub inputs: Vec<InputPort>,
    pub outputs: Vec<OutputPort>,
}

impl Router {
    /// Builds a router with `link_ports` inter-router ports (a torus has
    /// `2*dims`) carrying `link_vcs` virtual channels each, plus one
    /// single-VC injection input and one single-VC ejection output.
    pub(crate) fn new(link_ports: usize, link_vcs: usize, link_credits: usize) -> Self {
        let mut inputs: Vec<InputPort> =
            (0..link_ports).map(|_| InputPort::new(link_vcs)).collect();
        inputs.push(InputPort::new(1)); // injection input
        let mut outputs: Vec<OutputPort> = (0..link_ports)
            .map(|_| OutputPort::new(link_vcs, link_credits))
            .collect();
        outputs.push(OutputPort::new(1, INFINITE_CREDITS)); // ejection
        Self { inputs, outputs }
    }

    /// Total flits currently buffered in this router. The optimized
    /// engine tracks occupancy incrementally; this per-VC scan remains
    /// for the reference engine and tests.
    pub(crate) fn buffered_flits(&self) -> usize {
        self.inputs
            .iter()
            .flat_map(|p| p.vcs.iter())
            .map(|vc| vc.fifo.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_port_layout() {
        let r = Router::new(4, 2, 8);
        assert_eq!(r.inputs.len(), 5); // 4 link + 1 injection
        assert_eq!(r.outputs.len(), 5); // 4 link + 1 ejection
        assert_eq!(r.inputs[0].vcs.len(), 2);
        assert_eq!(r.inputs[4].vcs.len(), 1);
        assert_eq!(r.outputs[4].vcs.len(), 1);
        assert_eq!(r.outputs[4].vcs[0].credits, INFINITE_CREDITS);
        assert_eq!(r.outputs[0].vcs[0].credits, 8);
    }

    #[test]
    fn new_router_is_empty() {
        let r = Router::new(4, 2, 8);
        assert_eq!(r.buffered_flits(), 0);
    }
}
