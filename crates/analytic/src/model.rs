//! The per-network analytical model.

use hyppi_dsent::{ElectricalLinkModel, OpticalLinkModel, RouterConfig, RouterModel, TechNode};
use hyppi_phys::LinkTechnology;
use hyppi_topology::{LinkLoads, RoutingTable, Topology, ROUTER_PIPELINE_CYCLES};
use hyppi_traffic::TrafficMatrix;
use serde::{Deserialize, Serialize};

/// Core clock frequency, GHz (Table II: 0.78125 GHz so a 64-bit flit per
/// cycle matches the 50 Gb/s links).
pub const CORE_CLK_GHZ: f64 = 0.78125;

/// A topology with its evaluated per-component cost models.
pub struct NocModel {
    /// The network.
    pub topo: Topology,
    /// Deterministic X-then-Y routing (shared with the simulator).
    pub routes: RoutingTable,
    /// Technology node for the electronics.
    pub node: TechNode,
    link_static_mw: Vec<f64>,
    link_dyn_fj_per_flit: Vec<f64>,
    link_active_mw: Vec<f64>,
    link_area_um2: Vec<f64>,
    router_static_mw: Vec<f64>,
    router_dyn_fj_per_flit: Vec<f64>,
    router_area_um2: Vec<f64>,
}

/// Every factor of the system-level CLEAR, reported separately
/// (the paper's Fig. 5 shows CLEAR, Latency, Power and Area panels).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NocEvaluation {
    /// Aggregate link capacity per node, Gb/s (Table III "C").
    pub capability_gbps_per_node: f64,
    /// Flit-weighted mean packet latency, clock cycles.
    pub latency_clks: f64,
    /// Total power: static + dynamic + optically-active, watts.
    pub power_w: f64,
    /// Static share of the power, watts (Table IV).
    pub static_power_w: f64,
    /// Total area, mm².
    pub area_mm2: f64,
    /// Mean link utilization at the evaluated injection rate.
    pub utilization: f64,
    /// Utilization growth rate R = dU/dr (Table III "R").
    pub r_factor: f64,
    /// The composed CLEAR figure of merit (equation 2).
    pub clear: f64,
}

impl NocModel {
    /// Builds the model: evaluates every link and router against the
    /// DSENT-style estimators at the 11 nm node.
    pub fn new(topo: Topology) -> Self {
        let node = TechNode::n11();
        let routes = RoutingTable::compute_xy(&topo);

        let mut link_static_mw = Vec::with_capacity(topo.links().len());
        let mut link_dyn = Vec::with_capacity(topo.links().len());
        let mut link_active = Vec::with_capacity(topo.links().len());
        let mut link_area = Vec::with_capacity(topo.links().len());
        for l in topo.links() {
            match l.tech {
                LinkTechnology::Electronic => {
                    let e = ElectricalLinkModel {
                        wires: 64,
                        length: l.length,
                        node,
                    }
                    .estimate();
                    link_static_mw.push(e.static_power.value());
                    link_dyn.push(e.energy_per_flit.value());
                    link_active.push(0.0);
                    link_area.push(e.area.value());
                }
                tech => {
                    let e = OpticalLinkModel::paper_link(tech, l.length).estimate();
                    link_static_mw.push(e.static_power.value());
                    link_dyn.push(e.energy_per_flit.value());
                    link_active.push(e.active_power.value());
                    link_area.push(e.area.value());
                }
            }
        }

        let mut router_static_mw = Vec::with_capacity(topo.num_nodes());
        let mut router_dyn = Vec::with_capacity(topo.num_nodes());
        let mut router_area = Vec::with_capacity(topo.num_nodes());
        // Routers differ only by port count; cache per radix. Table II
        // fixes the router design at 5 ports (base) or 7 ports (hybrid,
        // when the node terminates express links) — edge and corner nodes
        // still instantiate the uniform 5-port router.
        let mut cache: std::collections::HashMap<u32, (f64, f64, f64)> =
            std::collections::HashMap::new();
        for n in topo.nodes() {
            let has_express = topo.outgoing(n).iter().any(|&l| topo.link(l).is_express());
            let ports = if has_express { 7 } else { 5 };
            let (s, d, a) = *cache.entry(ports).or_insert_with(|| {
                let est = RouterModel::new(
                    RouterConfig {
                        ports,
                        ..RouterConfig::base_mesh()
                    },
                    node,
                )
                .estimate();
                (
                    est.static_power.value(),
                    est.energy_per_flit.value(),
                    est.area.value(),
                )
            });
            router_static_mw.push(s);
            router_dyn.push(d);
            router_area.push(a);
        }

        NocModel {
            topo,
            routes,
            node,
            link_static_mw,
            link_dyn_fj_per_flit: link_dyn,
            link_active_mw: link_active,
            link_area_um2: link_area,
            router_static_mw,
            router_dyn_fj_per_flit: router_dyn,
            router_area_um2: router_area,
        }
    }

    /// Total static power, watts (Table IV).
    pub fn static_power_w(&self) -> f64 {
        (self.link_static_mw.iter().sum::<f64>() + self.router_static_mw.iter().sum::<f64>()) / 1e3
    }

    /// Total area, mm².
    pub fn area_mm2(&self) -> f64 {
        (self.link_area_um2.iter().sum::<f64>() + self.router_area_um2.iter().sum::<f64>()) / 1e6
    }

    /// Aggregate link capacity per node, Gb/s (Table III "C").
    pub fn capability_gbps_per_node(&self) -> f64 {
        self.topo.total_capacity().value() / self.topo.num_nodes() as f64
    }

    /// Per-flit dynamic energy of one link, fJ.
    pub fn link_dyn_fj(&self, link: usize) -> f64 {
        self.link_dyn_fj_per_flit[link]
    }

    /// Per-flit dynamic energy of one router, fJ.
    pub fn router_dyn_fj(&self, node: usize) -> f64 {
        self.router_dyn_fj_per_flit[node]
    }

    /// Photonic communication-active power of the whole network, watts.
    pub fn active_power_w(&self) -> f64 {
        self.link_active_mw.iter().sum::<f64>() / 1e3
    }

    /// Evaluates the network under a traffic matrix whose hottest node
    /// injects at `injection_rate` flits/cycle (the Soteriou maximum).
    pub fn evaluate(&self, traffic: &TrafficMatrix, injection_rate: f64) -> NocEvaluation {
        assert!(injection_rate > 0.0, "injection rate must be positive");
        let loads = LinkLoads::from_demands(&self.topo, &self.routes, traffic.demands());

        // Utilization and its growth: loads are linear in the injection
        // rate under oblivious routing, so R is exactly U/r.
        let utilization = loads.mean_utilization(1.0);
        let r_factor = utilization / injection_rate;

        // Flit-weighted mean latency over all demands: routed path cost
        // plus the destination router's pipeline.
        let mut lat_sum = 0.0;
        let mut rate_sum = 0.0;
        for (s, d, rate) in traffic.demands() {
            lat_sum +=
                rate * (f64::from(self.routes.cost(s, d)) + f64::from(ROUTER_PIPELINE_CYCLES));
            rate_sum += rate;
        }
        let latency_clks = if rate_sum == 0.0 {
            0.0
        } else {
            lat_sum / rate_sum
        };

        // Power: static + per-flit dynamic at the offered load + photonic
        // active power (lasers lit while the application communicates).
        let cycles_per_second = CORE_CLK_GHZ * 1e9;
        let mut dyn_w = 0.0;
        for (lid, load) in loads.iter() {
            // load [flits/cycle] × fJ/flit × cycles/s = fJ/s.
            dyn_w += load * self.link_dyn_fj_per_flit[lid.index()];
        }
        // Router traversals: one per link crossing plus ejection at the
        // destination; source traversal is counted by its first link hop's
        // upstream router. Per-router loads:
        let mut router_load = vec![0.0; self.topo.num_nodes()];
        for (s, d, rate) in traffic.demands() {
            let mut at = s;
            while at != d {
                router_load[at.index()] += rate;
                let lid = self.routes.next_link(&self.topo, at, d).expect("connected");
                at = self.topo.link(lid).dst;
            }
            router_load[d.index()] += rate;
        }
        for (n, load) in router_load.iter().enumerate() {
            dyn_w += load * self.router_dyn_fj_per_flit[n];
        }
        let dyn_w = dyn_w * cycles_per_second * 1e-15;
        let static_w = self.static_power_w();
        let power_w = static_w + dyn_w + self.active_power_w();

        let capability = self.capability_gbps_per_node();
        let area = self.area_mm2();
        let clear = capability / (latency_clks * power_w * area * r_factor);

        NocEvaluation {
            capability_gbps_per_node: capability,
            latency_clks,
            power_w,
            static_power_w: static_w,
            area_mm2: area,
            utilization,
            r_factor,
            clear,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyppi_topology::{express_mesh, mesh, ExpressSpec, MeshSpec};
    use hyppi_traffic::SoteriouConfig;

    fn e_mesh() -> NocModel {
        NocModel::new(mesh(MeshSpec::paper(LinkTechnology::Electronic)))
    }

    #[test]
    fn anchor_static_power_and_area() {
        let m = e_mesh();
        assert!(
            (m.static_power_w() - 1.53).abs() / 1.53 < 0.01,
            "{}",
            m.static_power_w()
        );
        assert!(
            (m.area_mm2() - 22.1).abs() / 22.1 < 0.01,
            "{}",
            m.area_mm2()
        );
    }

    #[test]
    fn capability_matches_table_iii() {
        assert!((e_mesh().capability_gbps_per_node() - 187.5).abs() < 1e-9);
    }

    #[test]
    fn evaluation_factors_are_sane() {
        let m = e_mesh();
        let t = SoteriouConfig::paper().matrix(&m.topo);
        let e = m.evaluate(&t, 0.1);
        assert!(
            e.latency_clks > 10.0 && e.latency_clks < 80.0,
            "{}",
            e.latency_clks
        );
        assert!(e.power_w > 1.53 && e.power_w < 5.0, "{}", e.power_w);
        assert!(e.utilization > 0.0 && e.utilization < 1.0);
        assert!(e.r_factor > 0.3 && e.r_factor < 3.0, "{}", e.r_factor);
        assert!(e.clear > 0.0);
    }

    #[test]
    fn r_factor_is_rate_independent() {
        // U is linear in r, so R = U/r must not change with the rate.
        let m = e_mesh();
        let cfg = SoteriouConfig::paper();
        let e1 = m.evaluate(&cfg.matrix(&m.topo), 0.1);
        let cfg2 = cfg.with_rate(0.05);
        let e2 = m.evaluate(&cfg2.matrix(&m.topo), 0.05);
        assert!((e1.r_factor - e2.r_factor).abs() < 1e-9);
    }

    #[test]
    fn express_links_increase_capability_and_reduce_latency() {
        let base = e_mesh();
        let hybrid = NocModel::new(express_mesh(
            MeshSpec::paper(LinkTechnology::Electronic),
            ExpressSpec {
                span: 3,
                tech: LinkTechnology::Hyppi,
            },
        ));
        let t = SoteriouConfig::paper();
        let eb = base.evaluate(&t.matrix(&base.topo), 0.1);
        let eh = hybrid.evaluate(&t.matrix(&hybrid.topo), 0.1);
        assert!((eh.capability_gbps_per_node - 218.75).abs() < 1e-9);
        assert!(eh.latency_clks < eb.latency_clks);
        assert!(eh.r_factor < eb.r_factor);
    }

    #[test]
    fn photonic_base_mesh_burns_far_more_power() {
        let e = e_mesh();
        let p = NocModel::new(mesh(MeshSpec::paper(LinkTechnology::Photonic)));
        // 960 links × ≈9.66 mW static ≈ 9.3 W of extra static power, plus
        // active laser power: the paper's reason photonics "fares poorly".
        assert!(p.static_power_w() > 5.0 * e.static_power_w());
        assert!(p.active_power_w() > 1.0);
    }

    #[test]
    fn hyppi_base_mesh_shrinks_area() {
        let e = e_mesh();
        let h = NocModel::new(mesh(MeshSpec::paper(LinkTechnology::Hyppi)));
        // HyPPI waveguides are ≈1 µm pitch vs ≈20 µm for a 64-wire bus.
        assert!(h.area_mm2() < 0.3 * e.area_mm2(), "{}", h.area_mm2());
        // Static power stays comparable to electronics (lasers gated).
        assert!(h.static_power_w() < 1.2 * e.static_power_w());
    }
}
