//! Ablation studies for the design choices `DESIGN.md` §6 calls out.
//!
//! None of these exist in the paper; they probe how sensitive its
//! conclusions are to microarchitectural parameters the paper fixes
//! (Table II) and to our own modeling choices.

use crate::table::TextTable;
use hyppi_netsim::sweep::parallel_map;
use hyppi_netsim::{SimConfig, Simulator};
use hyppi_phys::LinkTechnology;
use hyppi_topology::{express_mesh, mesh, ExpressSpec, MeshSpec, RoutingTable};
use hyppi_traffic::{NpbKernel, NpbTraceSpec};

/// Sensitivity of the NPB latency results to the VC count (Table II
/// fixes 4). Runs the CG window on the plain mesh and the span-3 hybrid.
pub fn vc_sensitivity() -> TextTable {
    parameter_sensitivity("VCs", &[2, 4, 8], |cfg, v| cfg.vcs = v)
}

/// Sensitivity to buffer depth per VC (Table II fixes 8 flits).
pub fn buffer_sensitivity() -> TextTable {
    parameter_sensitivity("Buffers/VC", &[4, 8, 16], |cfg, v| cfg.buffer_depth = v)
}

fn parameter_sensitivity(
    label: &str,
    values: &[usize],
    apply: impl Fn(&mut SimConfig, usize) + Sync,
) -> TextTable {
    let trace = NpbTraceSpec::paper(NpbKernel::Cg).default_window();
    let mut jobs = Vec::new();
    for &v in values {
        for span in [0u16, 3] {
            jobs.push((v, span));
        }
    }
    let results = parallel_map(jobs.clone(), |(v, span)| {
        let topo = if span == 0 {
            mesh(MeshSpec::paper(LinkTechnology::Electronic))
        } else {
            express_mesh(
                MeshSpec::paper(LinkTechnology::Electronic),
                ExpressSpec {
                    span,
                    tech: LinkTechnology::Hyppi,
                },
            )
        };
        let routes = RoutingTable::compute_xy(&topo);
        let mut cfg = SimConfig::paper();
        apply(&mut cfg, v);
        Simulator::new(&topo, &routes, cfg)
            .run_trace(&trace)
            .expect("completes")
    });
    let mut t = TextTable::new(vec![
        label.to_string(),
        "Mesh latency (clks)".to_string(),
        "+HyPPI x3 (clks)".to_string(),
        "gain".to_string(),
        "mesh p99 bound".to_string(),
    ]);
    for (i, &v) in values.iter().enumerate() {
        let mesh_stats = &results[2 * i];
        let hybrid_stats = &results[2 * i + 1];
        t.row(vec![
            format!("{v}"),
            format!("{:.2}", mesh_stats.mean_latency()),
            format!("{:.2}", hybrid_stats.mean_latency()),
            format!(
                "{:.2}x",
                mesh_stats.mean_latency() / hybrid_stats.mean_latency()
            ),
            format!("{}", mesh_stats.all.quantile_upper_bound(0.99)),
        ]);
    }
    t
}

/// Routing-policy comparison on the plain mesh (where both policies are
/// deadlock-safe): X-then-Y ordered vs unrestricted shortest-path
/// Dijkstra. Costs are identical on a mesh; only load distribution (and
/// hence congestion latency) differs.
pub fn routing_policy_comparison() -> TextTable {
    let topo = mesh(MeshSpec::paper(LinkTechnology::Electronic));
    let xy = RoutingTable::compute_xy(&topo);
    let free = RoutingTable::compute(&topo);
    let mut t = TextTable::new(vec!["Kernel", "X-then-Y (clks)", "Free Dijkstra (clks)"]);
    for kernel in [NpbKernel::Ft, NpbKernel::Cg] {
        let trace = NpbTraceSpec::paper(kernel).default_window();
        let lat = |routes: &RoutingTable| {
            Simulator::new(&topo, routes, SimConfig::paper())
                .run_trace(&trace)
                .expect("completes")
                .mean_latency()
        };
        t.row(vec![
            kernel.to_string(),
            format!("{:.2}", lat(&xy)),
            format!("{:.2}", lat(&free)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    // The full-size ablations run in the `repro` binary; the unit test
    // exercises the machinery on a reduced trace for speed.

    #[test]
    fn sensitivity_machinery_runs_small() {
        let trace = NpbTraceSpec {
            kernel: NpbKernel::Lu,
            width: 4,
            height: 4,
        }
        .trace_window(1, 0.5);
        let topo = mesh(MeshSpec {
            width: 4,
            height: 4,
            core_spacing_mm: 1.0,
            base_tech: LinkTechnology::Electronic,
            capacity: hyppi_phys::Gbps::new(50.0),
        });
        let routes = RoutingTable::compute_xy(&topo);
        for vcs in [2usize, 4] {
            let cfg = SimConfig {
                vcs,
                ..SimConfig::paper()
            };
            let stats = Simulator::new(&topo, &routes, cfg)
                .run_trace(&trace)
                .expect("completes");
            assert_eq!(stats.all.count, trace.total_packets() as u64, "vcs {vcs}");
        }
    }
}
