//! Zero-load latency for every pair, on every catalog topology family.
//!
//! Parity pins the active engines to the frozen reference engine, so a
//! timing error both engines share passes every parity suite. This test
//! pins absolute timing instead: on each family of
//! `tests/common/cells.rs` (plain, express, faulted, hyppi,
//! hyppi-faulted), one packet per reachable ordered pair, injected far
//! enough apart that no two are ever in flight together, must take
//! exactly the closed form of an uncontended wormhole path (Dally &
//! Towles, *Principles and Practices of Interconnection Networks*,
//! 2004): the routing table's path cost (a router pipeline plus the link
//! latency for every hop), plus the destination router's pipeline, plus
//! one cycle per flit behind the head (serialization). The head term is
//! the analytic model's zero-load term
//! (`hyppi_analytic::NocModel::evaluate`), so express and optical link
//! latencies, degraded spans and up*/down* detours are all pinned to
//! the cycle; packets of 1, 4 and 32 flits pin the serialization term
//! (32 flits stream through 8-flit buffers, so credits must return in
//! time).

mod common;

use common::cells;
use hyppi_netsim::LatencyStats;
use hyppi_topology::ROUTER_PIPELINE_CYCLES;
use hyppi_traffic::{Trace, TraceEvent};

/// Cycles between consecutive injections: longer than any zero-load
/// path on the catalog meshes, so each packet has the network to itself.
const SPACING: u64 = 200;

#[test]
fn every_pair_takes_its_closed_form_latency() {
    let families: Vec<_> = cells::catalog()
        .into_iter()
        .filter(|c| c.name.ends_with("/open/trace"))
        .collect();
    assert_eq!(families.len(), 5, "one cell per topology family");
    for cell in &families {
        for flits in [1, 4, 32] {
            assert_closed_form(cell, flits);
        }
    }
}

/// Sends one `flits`-flit packet per reachable pair of `cell`'s topology
/// and requires `routes.cost + pipeline + (flits − 1)` on both engines.
fn assert_closed_form(cell: &cells::Cell, flits: u32) {
    let (topo, routes) = (&cell.topo, &cell.routes);
    let what = format!("{}, {flits}-flit packets", cell.name);
    let mut events = Vec::new();
    let mut expected = LatencyStats::default();
    for src in topo.nodes() {
        for dst in topo.nodes() {
            if src == dst || !routes.reachable(src, dst) {
                continue;
            }
            let latency = u64::from(routes.cost(src, dst) + ROUTER_PIPELINE_CYCLES + flits - 1);
            assert!(latency < SPACING, "{what}: spacing too short");
            events.push(TraceEvent {
                cycle: events.len() as u64 * SPACING,
                src,
                dst,
                flits,
            });
            expected.record(latency);
        }
    }
    let pairs = events.len() as u64;
    let trace = Trace::new("zero-load pairs", topo.num_nodes() as u16, 0.0, events);
    for (engine, stats) in [
        (
            "active",
            cell.single().run_trace(&trace).expect("active run"),
        ),
        (
            "seed",
            cell.reference().run_trace(&trace).expect("seed run"),
        ),
    ] {
        assert_eq!(stats.all.count, pairs, "{what} ({engine})");
        assert_eq!(stats.unreachable_pairs, 0, "{what} ({engine})");
        assert_eq!(
            stats.all, expected,
            "{what} ({engine}): zero-load latencies differ from routes.cost + pipeline + flits - 1"
        );
    }
}
