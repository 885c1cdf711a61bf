//! Per-link load accounting.
//!
//! Accumulates traffic rates (flits per cycle per source-destination pair)
//! onto the links of their routed paths. This feeds the utilization,
//! `R = dU/dr` and power estimates of the design-space exploration
//! (`hyppi-analytic`).

use crate::graph::Topology;
use crate::ids::{LinkId, NodeId};
use crate::routing::RoutingTable;

/// Flit rate carried by every link, in flits per cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkLoads {
    loads: Vec<f64>,
}

impl LinkLoads {
    /// Zero loads for a topology.
    pub fn zero(topo: &Topology) -> Self {
        LinkLoads {
            loads: vec![0.0; topo.links().len()],
        }
    }

    /// Routes every `(src, dst, flits_per_cycle)` demand and accumulates it
    /// onto the links of the path.
    pub fn from_demands(
        topo: &Topology,
        routes: &RoutingTable,
        demands: impl IntoIterator<Item = (NodeId, NodeId, f64)>,
    ) -> Self {
        let mut loads = Self::zero(topo);
        for (src, dst, rate) in demands {
            if src == dst || rate == 0.0 {
                continue;
            }
            debug_assert!(rate >= 0.0, "negative traffic rate");
            let mut at = src;
            while at != dst {
                let lid = routes
                    .next_link(topo, at, dst)
                    .expect("connected topology always has a next hop");
                loads.loads[lid.index()] += rate;
                at = topo.link(lid).dst;
            }
        }
        loads
    }

    /// Load of one link, flits per cycle.
    #[inline]
    pub fn get(&self, link: LinkId) -> f64 {
        self.loads[link.index()]
    }

    /// Iterates `(link, load)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (LinkId, f64)> + '_ {
        self.loads
            .iter()
            .enumerate()
            .map(|(i, &l)| (LinkId(i as u32), l))
    }

    /// Sum of all link loads (total flit-hops per cycle).
    pub fn total(&self) -> f64 {
        self.loads.iter().sum()
    }

    /// Mean link utilization given each link's capacity in flits per cycle.
    ///
    /// At the paper's operating point every link carries 50 Gb/s = exactly
    /// one 64-bit flit per 0.78125 GHz cycle, so `capacity = 1.0`.
    pub fn mean_utilization(&self, capacity_flits_per_cycle: f64) -> f64 {
        debug_assert!(capacity_flits_per_cycle > 0.0);
        self.total() / (self.loads.len() as f64 * capacity_flits_per_cycle)
    }

    /// The most heavily loaded link and its load.
    pub fn peak(&self) -> (LinkId, f64) {
        self.loads
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, &l)| (LinkId(i as u32), l))
            .expect("topologies have at least one link")
    }

    /// Number of links tracked.
    pub fn len(&self) -> usize {
        self.loads.len()
    }

    /// True when the topology has no links (never for built topologies).
    pub fn is_empty(&self) -> bool {
        self.loads.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{mesh, MeshSpec};
    use hyppi_phys::LinkTechnology;

    fn small() -> (Topology, RoutingTable) {
        let t = mesh(MeshSpec {
            width: 4,
            height: 4,
            core_spacing_mm: 1.0,
            base_tech: LinkTechnology::Electronic,
            capacity: hyppi_phys::Gbps::new(50.0),
        });
        let r = RoutingTable::compute(&t);
        (t, r)
    }

    #[test]
    fn single_demand_loads_its_path() {
        let (t, r) = small();
        let loads = LinkLoads::from_demands(&t, &r, [(NodeId(0), NodeId(15), 0.5)]);
        // Path is 6 hops; each carries 0.5.
        assert!((loads.total() - 3.0).abs() < 1e-12);
        let path = r.path(&t, NodeId(0), NodeId(15));
        for l in path {
            assert!((loads.get(l) - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn loads_superpose_linearly() {
        let (t, r) = small();
        let one = LinkLoads::from_demands(&t, &r, [(NodeId(0), NodeId(15), 0.1)]);
        let two = LinkLoads::from_demands(
            &t,
            &r,
            [(NodeId(0), NodeId(15), 0.1), (NodeId(0), NodeId(15), 0.1)],
        );
        assert!((two.total() - 2.0 * one.total()).abs() < 1e-12);
    }

    #[test]
    fn utilization_is_total_over_links() {
        let (t, r) = small();
        let loads = LinkLoads::from_demands(&t, &r, [(NodeId(0), NodeId(3), 1.0)]);
        // 3 hops of load 1.0 over 48 links.
        assert!((loads.mean_utilization(1.0) - 3.0 / 48.0).abs() < 1e-12);
    }

    #[test]
    fn self_and_zero_demands_are_ignored() {
        let (t, r) = small();
        let loads = LinkLoads::from_demands(
            &t,
            &r,
            [(NodeId(3), NodeId(3), 5.0), (NodeId(0), NodeId(1), 0.0)],
        );
        assert_eq!(loads.total(), 0.0);
    }

    #[test]
    fn peak_finds_hot_link() {
        let (t, r) = small();
        let loads = LinkLoads::from_demands(
            &t,
            &r,
            [
                (NodeId(0), NodeId(1), 0.3),
                (NodeId(0), NodeId(2), 0.3), // shares the 0→1 link
            ],
        );
        let (lid, load) = loads.peak();
        assert!((load - 0.6).abs() < 1e-12);
        assert_eq!(t.link(lid).src, NodeId(0));
        assert_eq!(t.link(lid).dst, NodeId(1));
    }
}
