//! Deadlock regression for the express dateline VC discipline.
//!
//! Runs the configuration that deadlocks a stock 4-VC wormhole router —
//! the span-15 express mesh (whose minimal routes wrap around each row)
//! under the FT all-to-all window — once on the P=1 engine and once on
//! a 2×2 shard grid, whose cuts the wrapping express routes cross. With
//! the dateline discipline both runs complete and their statistics are
//! equal; the example exits 1 on [`SimError::CycleLimit`] from either
//! run or on any difference. The sharded run uses one worker thread:
//! the superstep exchange is the same at any worker count, and four
//! workers on a 2-vCPU host take about four times as long, most of it
//! waiting at barriers.
//!
//! To inspect a run that stops draining, pause it at the limit with
//! `run_trace_until(&trace, cfg.max_cycles)`: the returned
//! [`hyppi_netsim::Snapshot`] holds every buffered and in-flight flit,
//! every VC state and every live packet (`docs/SNAPSHOT_FORMAT.md`).
//!
//! ```sh
//! cargo run --release -p hyppi-netsim --example deadlock_debug
//! ```

use hyppi_netsim::{ShardedSimulator, SimConfig, SimError, SimStats, Simulator};
use hyppi_phys::LinkTechnology;
use hyppi_topology::{express_mesh, ExpressSpec, MeshSpec, RoutingTable, ShardSpec};
use hyppi_traffic::{NpbKernel, NpbTraceSpec};

fn main() {
    let trace = NpbTraceSpec::paper(NpbKernel::Ft).default_window();
    let topo = express_mesh(
        MeshSpec::paper(LinkTechnology::Electronic),
        ExpressSpec {
            span: 15,
            tech: LinkTechnology::Hyppi,
        },
    );
    let routes = RoutingTable::compute_xy(&topo);
    let mut cfg = SimConfig::paper();
    cfg.max_cycles = 2_000_000;
    let single = completed("P=1", Simulator::new(&topo, &routes, cfg).run_trace(&trace));
    let quad = ShardSpec { sx: 2, sy: 2 };
    let sharded = completed(
        "4 shards",
        ShardedSimulator::new(&topo, &routes, cfg, quad)
            .with_threads(1)
            .run_trace(&trace),
    );
    if sharded != single {
        eprintln!("SHARD REGRESSION: the 4-shard run's statistics differ from the P=1 run's");
        std::process::exit(1);
    }
    println!(
        "ok: {} packets, mean latency {:.2} clks, equal at P=1 and on 4 shards (no deadlock)",
        single.all.count,
        single.mean_latency()
    );
}

/// The statistics of a run that drained; exits 1 otherwise.
fn completed(label: &str, run: Result<SimStats, SimError>) -> SimStats {
    run.unwrap_or_else(|e| {
        eprintln!("DEADLOCK REGRESSION ({label}): {e}");
        std::process::exit(1);
    })
}
