//! Per-node router control state.
//!
//! Each node is an input-buffered virtual-channel router:
//!
//! * in-port 0 is packet injection from the local core; in-port `i ≥ 1`
//!   receives the topology's `incoming(node)[i-1]` link;
//! * out-port 0 is ejection to the local core; out-port `i ≥ 1` drives
//!   `outgoing(node)[i-1]`;
//! * every in-port holds `vcs` buffered virtual channels with a three-state
//!   machine (idle → routed → active) mirroring the RC / VA / SA+ST
//!   pipeline of the paper's Fig. 4 router.
//!
//! Since the active-set engine rewrite, [`NodeState`] carries only the
//! *cold* control state of a router: port wiring and the NIC source
//! queue. Route computation reads the out-port straight from the shared
//! routing table (`RoutingTable::next_port`), which stores next hops in
//! this port numbering. Everything the arbitration
//! hot path touches — VC flit rings, per-VC state machines (packed
//! metadata words, `crate::flit::meta`), round-robin pointers,
//! output-VC holder bitmasks, routed/active bitmasks, per-node control
//! records, double-buffered credit cells — lives in flat
//! structure-of-arrays storage owned by the engine core
//! (`crate::shard::ShardState`, of which [`crate::Simulator`] is the
//! single-shard case), indexed by shard-local VC slot or (node,
//! out-port) entry; see the `shard` module docs (and the workspace's
//! `docs/ARCHITECTURE.md`) for the layout and the superstep exchange
//! protocol.
//!
//! ## Deadlock freedom (express dateline classes)
//!
//! Routing is X-then-Y (`RoutingTable::compute_xy`), which eliminates all
//! turn cycles of the base mesh. Express links can still create horizontal
//! cycles (a packet may walk *away* from its destination to reach an
//! express endpoint — e.g. the span-15 "ring wrap"). We break these with a
//! dateline discipline: VCs are split into class A = `{0, 1}` and class
//! B = `{2, 3}`; every packet is admitted in class A and moves permanently
//! to class B when switch traversal sends it over its first express link.
//! Post-express walks never re-enter an express link on a minimal route,
//! so class-B dependencies are acyclic, and class transitions only go
//! A → B. Topologies without express links use all VCs as one class
//! (X-then-Y alone is acyclic there).

use hyppi_topology::{LinkId, NodeId, Topology};
use std::collections::VecDeque;

/// State machine of one input VC, applying to the packet at its queue head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcState {
    /// No packet being processed.
    Idle,
    /// Route computed; awaiting an output VC.
    Routed {
        /// Output port the head packet must leave through.
        out_port: u8,
    },
    /// Output VC held; flits may traverse the switch.
    Active {
        /// Output port the packet is using.
        out_port: u8,
        /// Output VC held on that port.
        out_vc: u8,
    },
}

/// In-progress packet emission from the local core.
#[derive(Debug, Clone, Copy)]
pub struct Emission {
    /// Packet being emitted.
    pub packet: u32,
    /// Flits already pushed into the injection VC.
    pub emitted: u32,
    /// Total flits of the packet.
    pub total: u32,
    /// Injection VC in use.
    pub vc: u8,
    /// Destination (the reference engine copies it into each flit).
    pub dst: NodeId,
    /// Original injection timestamp.
    pub inject_cycle: u64,
}

/// Router + NIC control state of one node (flit buffers live in the
/// simulator's SoA arrays).
#[derive(Debug, Clone)]
pub struct NodeState {
    /// This node's id.
    pub node: NodeId,
    /// Incoming links, in in-port order (port `i+1`).
    pub in_links: Vec<LinkId>,
    /// Outgoing links, in out-port order (port `i+1`).
    pub out_links: Vec<LinkId>,
    /// Packets waiting in the local source queue (unbounded NIC queue).
    pub src_queue: VecDeque<u32>,
    /// Packet currently being emitted into the injection port, if any.
    pub emitting: Option<Emission>,
}

impl NodeState {
    /// Builds the control state for one node.
    pub fn new(topo: &Topology, node: NodeId) -> Self {
        NodeState {
            node,
            in_links: topo.incoming(node).to_vec(),
            out_links: topo.outgoing(node).to_vec(),
            src_queue: VecDeque::new(),
            emitting: None,
        }
    }

    /// Number of in-ports (injection + links).
    #[inline]
    pub fn in_ports(&self) -> usize {
        1 + self.in_links.len()
    }

    /// Number of out-ports (ejection + links).
    #[inline]
    pub fn out_ports(&self) -> usize {
        1 + self.out_links.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyppi_phys::LinkTechnology;
    use hyppi_topology::{mesh, MeshSpec, RoutingTable};

    #[test]
    fn node_state_ports_match_topology() {
        let t = mesh(MeshSpec::paper(LinkTechnology::Electronic));
        // Interior node: 4 neighbours.
        let n = NodeState::new(&t, NodeId(17));
        assert_eq!(n.in_ports(), 5);
        assert_eq!(n.out_ports(), 5);
        // Corner node: 2 neighbours.
        let c = NodeState::new(&t, NodeId(0));
        assert_eq!(c.in_ports(), 3);
    }

    #[test]
    fn route_ports_point_at_real_links() {
        let t = mesh(MeshSpec::paper(LinkTechnology::Electronic));
        let r = RoutingTable::compute_xy(&t);
        for node in [NodeId(0), NodeId(17), NodeId(255)] {
            let n = NodeState::new(&t, node);
            for dst in t.nodes() {
                let port = usize::from(r.next_port(node, dst));
                if dst == node {
                    assert_eq!(port, 0, "{node}: home packets eject");
                    continue;
                }
                // Every routed hop leaves through one of the node's own
                // link ports, the one driving the table's next link.
                assert!((1..n.out_ports()).contains(&port), "{node}->{dst}");
                assert_eq!(Some(n.out_links[port - 1]), r.next_link(&t, node, dst));
                assert_eq!(t.link(n.out_links[port - 1]).src, node);
            }
        }
    }

    #[test]
    fn fresh_state_is_quiescent() {
        let t = mesh(MeshSpec::paper(LinkTechnology::Electronic));
        let n = NodeState::new(&t, NodeId(5));
        assert!(n.src_queue.is_empty());
        assert!(n.emitting.is_none());
    }
}
