//! Composed electronic router model.
//!
//! Composes the component models ([`crate::components`]) into the router
//! estimate DSENT reports: area, static power, dynamic energy per flit.
//! The paper's two configurations are the 5-port base mesh router and the
//! 7-port hybrid router with two extra express-link ports (its Fig. 4);
//! routers at express-line endpoints have 6 ports.

use crate::components::{
    AllocatorModel, BufferModel, ClockModel, ComponentEstimate, CrossbarModel,
};
use crate::tech::TechNode;
use hyppi_phys::{Femtojoules, Milliwatts, SquareMicrometers};
use serde::{Deserialize, Serialize};

/// Router microarchitecture parameters (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RouterConfig {
    /// Number of ports (5 base, 6/7 hybrid).
    pub ports: u32,
    /// Virtual channels per port.
    pub vcs: u32,
    /// Buffer depth per VC, flits.
    pub buffer_depth: u32,
    /// Flit width, bits.
    pub flit_bits: u32,
}

impl RouterConfig {
    /// The paper's base 5-port mesh router (Table II).
    pub fn base_mesh() -> Self {
        RouterConfig {
            ports: 5,
            vcs: 4,
            buffer_depth: 8,
            flit_bits: 64,
        }
    }

    /// The hybrid router with `extra_ports` express ports (0, 1 or 2).
    pub fn hybrid(extra_ports: u32) -> Self {
        RouterConfig {
            ports: 5 + extra_ports,
            ..Self::base_mesh()
        }
    }
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self::base_mesh()
    }
}

/// Area / static power / per-flit energy estimate for one router.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RouterEstimate {
    /// Total router footprint.
    pub area: SquareMicrometers,
    /// Total leakage power.
    pub static_power: Milliwatts,
    /// Dynamic energy per flit traversing the router.
    pub energy_per_flit: Femtojoules,
    /// Per-component breakdown in fixed order:
    /// buffers, crossbar, allocators, clock.
    pub breakdown: [ComponentEstimate; 4],
}

/// The composed router model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterModel {
    /// Microarchitecture being modeled.
    pub config: RouterConfig,
    /// Technology node.
    pub node: TechNode,
}

impl RouterModel {
    /// Creates a model for a configuration at a node.
    pub fn new(config: RouterConfig, node: TechNode) -> Self {
        assert!(config.ports >= 2, "a router needs at least two ports");
        assert!(config.vcs >= 1 && config.buffer_depth >= 1 && config.flit_bits >= 1);
        Self { config, node }
    }

    /// The paper's configuration: base mesh router at 11 nm.
    pub fn paper_base() -> Self {
        Self::new(RouterConfig::base_mesh(), TechNode::n11())
    }

    /// Evaluates area, static power and per-flit dynamic energy.
    pub fn estimate(&self) -> RouterEstimate {
        let c = &self.config;
        let buffers = BufferModel {
            ports: c.ports,
            vcs: c.vcs,
            depth: c.buffer_depth,
            flit_bits: c.flit_bits,
        }
        .estimate(&self.node);
        let xbar = CrossbarModel {
            ports: c.ports,
            flit_bits: c.flit_bits,
        }
        .estimate(&self.node);
        let alloc = AllocatorModel {
            ports: c.ports,
            vcs: c.vcs,
        }
        .estimate(&self.node);
        let clock = ClockModel { ports: c.ports }.estimate(&self.node);

        let mut total = buffers.combine(xbar).combine(alloc).combine(clock);
        // Control, pipeline registers and intra-router wiring overhead,
        // proportional to radix.
        total.area +=
            SquareMicrometers::new(self.node.router_overhead_area_um2 * f64::from(c.ports) / 5.0);
        RouterEstimate {
            area: total.area,
            static_power: total.static_power,
            energy_per_flit: total.energy_per_flit,
            breakdown: [buffers, xbar, alloc, clock],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of links in a W×H bidirectional mesh (unidirectional count).
    fn mesh_links(w: u64, h: u64) -> u64 {
        2 * (h * (w - 1) + w * (h - 1))
    }

    #[test]
    fn base_router_estimate_is_stable() {
        let e = RouterModel::paper_base().estimate();
        // Calibrated values; see crate docs. Guard with 1% tolerance.
        assert!(
            (e.area.value() - 9531.0).abs() / 9531.0 < 0.01,
            "{}",
            e.area
        );
        assert!(
            (e.static_power.value() - 5.832).abs() / 5.832 < 0.01,
            "{}",
            e.static_power
        );
        assert!(
            (e.energy_per_flit.as_pj() - 1.926).abs() / 1.926 < 0.01,
            "{}",
            e.energy_per_flit
        );
    }

    #[test]
    fn anchor_electronic_mesh_static_power() {
        // Paper: the 16×16 electronic mesh dissipates 1.53 W static
        // (Table IV footnote). Routers + repeated-wire link leakage.
        let node = TechNode::n11();
        let router = RouterModel::paper_base().estimate();
        let links = mesh_links(16, 16) as f64;
        let link_leak_mw = 64.0 * node.wire_leak_uw_per_mm * 1.0 * 1e-3; // 64 wires × 1 mm
        let total_w = (256.0 * router.static_power.value() + links * link_leak_mw) / 1e3;
        assert!(
            (total_w - 1.53).abs() / 1.53 < 0.01,
            "mesh static power {total_w} W"
        );
    }

    #[test]
    fn anchor_electronic_mesh_area() {
        // Paper §V: the electronic mesh needs 22.1 mm².
        let node = TechNode::n11();
        let router = RouterModel::paper_base().estimate();
        let links = mesh_links(16, 16) as f64;
        let link_area_mm2 = 64.0 * node.wire_pitch_um * 1000.0 / 1e6; // 64 wires × 1 mm
        let total = 256.0 * router.area.as_mm2() + links * link_area_mm2;
        assert!((total - 22.1).abs() / 22.1 < 0.01, "mesh area {total} mm²");
    }

    #[test]
    fn hybrid_router_costs_more() {
        let node = TechNode::n11();
        let base = RouterModel::new(RouterConfig::base_mesh(), node).estimate();
        let hybrid = RouterModel::new(RouterConfig::hybrid(2), node).estimate();
        assert!(hybrid.area > base.area);
        assert!(hybrid.static_power > base.static_power);
        assert!(hybrid.energy_per_flit > base.energy_per_flit);
        // Buffer leakage should scale exactly with port count.
        let ratio = hybrid.breakdown[0].static_power / base.breakdown[0].static_power;
        assert!((ratio - 1.4).abs() < 1e-12);
    }

    #[test]
    fn breakdown_sums_to_totals() {
        let e = RouterModel::paper_base().estimate();
        let sum_static: f64 = e.breakdown.iter().map(|c| c.static_power.value()).sum();
        assert!((sum_static - e.static_power.value()).abs() < 1e-9);
        let sum_energy: f64 = e.breakdown.iter().map(|c| c.energy_per_flit.value()).sum();
        assert!((sum_energy - e.energy_per_flit.value()).abs() < 1e-9);
    }

    #[test]
    fn larger_nodes_cost_more() {
        let cfg = RouterConfig::base_mesh();
        let e11 = RouterModel::new(cfg, TechNode::n11()).estimate();
        let e45 = RouterModel::new(cfg, TechNode::n45()).estimate();
        assert!(e45.area > e11.area);
        assert!(e45.static_power > e11.static_power);
        assert!(e45.energy_per_flit > e11.energy_per_flit);
    }

    #[test]
    #[should_panic(expected = "at least two ports")]
    fn rejects_degenerate_router() {
        let _ = RouterModel::new(
            RouterConfig {
                ports: 1,
                ..RouterConfig::base_mesh()
            },
            TechNode::n11(),
        );
    }
}
