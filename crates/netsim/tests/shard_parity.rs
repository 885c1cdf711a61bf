//! Sharded-engine parity: `ShardedSimulator` must reproduce the P=1
//! `Simulator`'s `SimStats` **bit-for-bit** — same latency histograms,
//! same per-link utilization, same cycle counts — on every cell of the
//! unified catalog (`tests/common/cells.rs`) on every shard grid, on
//! vertical/horizontal strip and per-row partitions of the all-optical
//! cells, on 16×16 cells across seeds × {plain mesh, express mesh with
//! dateline VCs} × {trace, synthetic, saturation}, and on random
//! partition shapes × seeds with a mid-run snapshot splice. Combined
//! with `tests/parity.rs` (P=1 vs the frozen seed engine) this
//! transitively pins the sharded engine to the seed semantics.
//!
//! Every fixture runs both sequentially (`threads = 1`, full mailbox
//! protocol on one thread) and threaded, so scheduler nondeterminism has
//! a dedicated pin, not just the protocol.

mod common;

use common::cells::{self, express, fixture_trace, uniform_matrix, GRIDS};
use hyppi_netsim::{RunOutcome, ShardedSimulator, SimConfig, SimStats, Simulator};
use hyppi_phys::LinkTechnology;
use hyppi_topology::{mesh, FaultSpec, MeshSpec, NodeId, RoutingTable, ShardSpec, Topology};
use hyppi_traffic::{Trace, TraceEvent};
use proptest::prelude::*;

fn paper_mesh() -> Topology {
    mesh(MeshSpec::paper(LinkTechnology::Electronic))
}

fn paper_express(span: u16) -> Topology {
    express(16, 16, span)
}

/// Every cell of the unified catalog (`tests/common/cells.rs`) on every
/// grid, with the given worker-thread count, must equal P=1 bit-for-bit
/// (one superstep per simulated cycle).
fn assert_catalog_matches_p1(threads: usize) {
    for cell in cells::catalog() {
        let single = cell.run_single();
        for grid in GRIDS {
            let sharded = cell.run_sharded(grid, threads);
            assert_eq!(
                sharded, single,
                "catalog cell diverged: {}, grid {}x{}, threads {threads}",
                cell.name, grid.sx, grid.sy
            );
        }
    }
}

/// The catalog on every grid, one worker thread per shard.
#[test]
fn catalog_per_cycle_matches_p1_on_all_grids() {
    assert_catalog_matches_p1(0);
}

/// The catalog on every grid, all shards stepped on one thread: the full
/// mailbox protocol without scheduler nondeterminism.
#[test]
fn catalog_sequential_matches_p1_on_all_grids() {
    assert_catalog_matches_p1(1);
}

/// Strip and row partitions on the all-optical cells: vertical strips
/// (cuts crossed only by horizontal links), horizontal strips, and one
/// shard per mesh row all stay bit-for-bit with P=1.
#[test]
fn strip_partitions_match_p1() {
    for cell in cells::catalog()
        .into_iter()
        .filter(|c| c.name.starts_with("hyppi"))
    {
        let single = cell.run_single();
        for spec in [
            ShardSpec { sx: 4, sy: 1 },
            ShardSpec { sx: 1, sy: 4 },
            ShardSpec { sx: 1, sy: 8 },
        ] {
            let sharded = cell.run_sharded(spec, 0);
            assert_eq!(
                sharded, single,
                "{}: strips {}x{}",
                cell.name, spec.sx, spec.sy
            );
        }
    }
}

/// The catalog itself is well-formed: 20 base cells plus the bursty,
/// hotspot and router-configuration cells, every (family, loop, workload)
/// combination present exactly once, the closed hotspot cell filling its
/// window, and the all-optical and configuration cells delivering
/// traffic.
#[test]
fn catalog_shape() {
    let cells = cells::catalog();
    assert_eq!(cells.len(), 32);
    let names: std::collections::BTreeSet<_> = cells.iter().map(|c| c.name.clone()).collect();
    assert_eq!(names.len(), 32, "cell names are unique");
    for family in ["plain", "express", "faulted", "hyppi", "hyppi-faulted"] {
        for lp in ["open", "closed"] {
            for wl in ["trace", "synthetic"] {
                assert!(
                    names.contains(&format!("{family}/{lp}/{wl}")),
                    "missing cell {family}/{lp}/{wl}"
                );
            }
        }
    }
    for extra in [
        "plain/open/synthetic-onoff",
        "hyppi/open/synthetic-mmpp",
        "hyppi-faulted/open/synthetic-onoff",
        "plain/open/hotspot",
        "plain/closed/hotspot",
        "hyppi/open/hotspot-mmpp",
        "plain/open/trace-vc1-d1",
        "plain/open/synthetic-vc8-d2",
        "express/open/trace-vc2-d16",
        "express/open/synthetic-vc8-d1",
        "hyppi/open/synthetic-vc1-d16",
        "hyppi/open/trace-vc8-d2",
    ] {
        assert!(names.contains(extra), "missing cell {extra}");
    }
    let closed = cells
        .iter()
        .find(|c| c.name == "plain/closed/hotspot")
        .expect("closed hotspot cell");
    let peak = closed.run_single().peak_outstanding.into_iter().max();
    assert_eq!(peak, Some(4), "closed hotspot cell fills its window");
    for cell in cells
        .iter()
        .filter(|c| c.name.starts_with("hyppi") || c.name.contains("-vc"))
    {
        let stats = cell.run_single();
        assert!(stats.flits_delivered > 0, "{}: vacuous cell", cell.name);
    }
}

/// Completes a bounded run: a pause snapshot is handed to `resume`; a
/// run that drained before its stop cycle is already finished.
fn spliced(
    paused: RunOutcome,
    resume: impl FnOnce(&hyppi_netsim::Snapshot) -> SimStats,
) -> SimStats {
    match paused {
        RunOutcome::Finished(stats) => stats,
        RunOutcome::Paused(snap) => resume(&snap),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random partition shape × threads × seed on the all-optical mesh
    /// ⇒ sharded == P=1 bit-for-bit in `SimStats` (latency histograms
    /// included), with a random mid-run splice thrown in.
    #[test]
    fn random_shape_seed_parity(
        shape in prop_oneof![
            Just(ShardSpec { sx: 2, sy: 1 }),
            Just(ShardSpec { sx: 2, sy: 2 }),
            Just(ShardSpec { sx: 4, sy: 1 }),
            Just(ShardSpec { sx: 1, sy: 4 }),
            Just(ShardSpec { sx: 4, sy: 2 }),
            Just(ShardSpec { sx: 1, sy: 8 }),
        ],
        threads in prop_oneof![Just(1usize), Just(0)],
        synthetic in prop_oneof![Just(false), Just(true)],
        seed in 0u64..1000,
        split in 1u64..600,
    ) {
        let topo = cells::hyppi_mesh(8, 8);
        let routes = RoutingTable::compute_xy(&topo);
        let cfg = SimConfig::paper();
        let engine = || ShardedSimulator::new(&topo, &routes, cfg, shape).with_threads(threads);
        if synthetic {
            let m = cells::uniform_matrix(&topo, 0.02 + (seed % 7) as f64 * 0.02);
            let single = Simulator::new(&topo, &routes, cfg)
                .run_synthetic(&m, 100, 400, seed)
                .expect("P=1 run completes");
            let sharded = engine()
                .run_synthetic(&m, 100, 400, seed)
                .expect("sharded run completes");
            prop_assert_eq!(&sharded, &single);
            let paused = engine()
                .run_synthetic_until(&m, 100, 400, seed, split)
                .expect("bounded run completes");
            let resumed = spliced(paused, |snap| {
                engine()
                    .resume_synthetic(snap, &m, 100, 400, seed)
                    .expect("resumed run completes")
            });
            prop_assert_eq!(&resumed, &single);
        } else {
            let trace = cells::fixture_trace(&topo, seed, 300);
            let single = Simulator::new(&topo, &routes, cfg)
                .run_trace(&trace)
                .expect("P=1 run completes");
            let sharded = engine().run_trace(&trace).expect("sharded run completes");
            prop_assert_eq!(&sharded, &single);
            let paused = engine()
                .run_trace_until(&trace, split)
                .expect("bounded run completes");
            let resumed = spliced(paused, |snap| {
                engine()
                    .resume_trace(snap, &trace)
                    .expect("resumed run completes")
            });
            prop_assert_eq!(&resumed, &single);
        }
    }
}

fn assert_trace_parity(topo: &Topology, trace: &Trace, label: &str) {
    let routes = RoutingTable::compute_xy(topo);
    let cfg = SimConfig::paper();
    let single: SimStats = Simulator::new(topo, &routes, cfg)
        .run_trace(trace)
        .expect("single-shard engine completes");
    for spec in GRIDS {
        for threads in [1, 0] {
            let sharded = ShardedSimulator::new(topo, &routes, cfg, spec)
                .with_threads(threads)
                .run_trace(trace)
                .expect("sharded engine completes");
            assert_eq!(
                sharded, single,
                "trace parity diverged: {label}, grid {}x{}, threads {threads}",
                spec.sx, spec.sy
            );
        }
    }
}

fn assert_synthetic_parity_cfg(
    topo: &Topology,
    rate: f64,
    seed: u64,
    cfg: SimConfig,
    label: &str,
) -> SimStats {
    let routes = RoutingTable::compute_xy(topo);
    let m = uniform_matrix(topo, rate);
    let single = Simulator::new(topo, &routes, cfg)
        .run_synthetic(&m, 150, 500, seed)
        .expect("single-shard engine completes");
    for spec in GRIDS {
        for threads in [1, 0] {
            let sharded = ShardedSimulator::new(topo, &routes, cfg, spec)
                .with_threads(threads)
                .run_synthetic(&m, 150, 500, seed)
                .expect("sharded engine completes");
            assert_eq!(
                sharded, single,
                "synthetic parity diverged: {label}, grid {}x{}, threads {threads}",
                spec.sx, spec.sy
            );
        }
    }
    // Derived tail statistics ride the histograms; spell them out so an
    // estimator change is caught against the P=1 data too.
    assert!(single.all.histogram.iter().sum::<u64>() == single.all.count);
    single
}

fn assert_synthetic_parity(topo: &Topology, rate: f64, seed: u64, label: &str) {
    assert_synthetic_parity_cfg(topo, rate, seed, SimConfig::paper(), label);
}

#[test]
fn trace_parity_16x16_plain_mesh() {
    let topo = paper_mesh();
    for seed in [1u64, 42] {
        let trace = fixture_trace(&topo, seed, 700);
        assert_trace_parity(&topo, &trace, &format!("plain 16x16, seed {seed}"));
    }
}

#[test]
fn trace_parity_16x16_express_span5() {
    // Dateline VC classes in force, 2-cycle optical links in the
    // calendar, express links crossing the vertical shard cuts.
    let topo = paper_express(5);
    for seed in [7u64, 1234] {
        let trace = fixture_trace(&topo, seed, 700);
        assert_trace_parity(&topo, &trace, &format!("express x5 16x16, seed {seed}"));
    }
}

#[test]
fn trace_parity_16x16_express_span15() {
    // Span 15 "ring wrap": express links leap across every column cut,
    // including non-adjacent shard tiles of the 4×2 grid.
    let topo = paper_express(15);
    let trace = fixture_trace(&topo, 99, 500);
    assert_trace_parity(&topo, &trace, "express x15 16x16, seed 99");
}

#[test]
fn synthetic_parity_16x16_both_topologies() {
    let plain = paper_mesh();
    let xpress = paper_express(5);
    for seed in [5u64, 2718] {
        assert_synthetic_parity(&plain, 0.06, seed, &format!("plain 16x16, seed {seed}"));
        assert_synthetic_parity(
            &xpress,
            0.06,
            seed,
            &format!("express x5 16x16, seed {seed}"),
        );
    }
}

#[test]
fn saturation_parity_16x16() {
    // A rate past the uniform saturation knee (~0.247): heavy VC/switch
    // contention with parked sources and boundary credit backpressure —
    // the hardest regime for exchange-timing bugs.
    let topo = paper_mesh();
    assert_synthetic_parity(&topo, 0.32, 11, "plain 16x16 saturated");
}

#[test]
fn saturation_burst_trace_parity_16x16() {
    // All-to-all wormhole burst on the paper mesh: every arbitration
    // path exercised under full buffers.
    let topo = paper_mesh();
    let n = topo.num_nodes() as u16;
    let mut events = Vec::new();
    for s in 0..n {
        for k in 1..8u16 {
            events.push(TraceEvent {
                cycle: u64::from(k) * 4,
                src: NodeId(s),
                dst: NodeId((s + k * 37) % n),
                flits: if k % 2 == 0 { 32 } else { 1 },
            });
        }
    }
    let trace = Trace::new("saturation burst", n, 0.0, events);
    assert_trace_parity(&topo, &trace, "16x16 all-to-all burst");
}

/// Closed-loop cells, windows 1, 4 and 16: ejections in one shard must
/// return source credits to NICs in *any* other shard through the
/// mailbox grid (the all-pairs adjacency closed-loop plans switch on),
/// with next-cycle visibility identical to the P=1 in-shard decrement.
/// Rate 0.30 keeps windows full and sources parked; every grid × both
/// execution modes must stay bit-for-bit.
#[test]
fn closed_loop_synthetic_parity_windows() {
    let topo = paper_mesh();
    for window in [1usize, 4, 16] {
        let stats = assert_synthetic_parity_cfg(
            &topo,
            0.30,
            13 + window as u64,
            SimConfig::paper_closed_loop(window),
            &format!("plain 16x16 closed loop, window {window}"),
        );
        let peak = stats.peak_outstanding.iter().max().copied().unwrap_or(0);
        assert_eq!(peak as usize, window, "window never filled");
    }
}

/// Closed-loop on the express mesh: source credits and the dateline VC
/// discipline interact across express links that leap over shard cuts.
#[test]
fn closed_loop_express_parity() {
    let topo = paper_express(5);
    assert_synthetic_parity_cfg(
        &topo,
        0.25,
        7,
        SimConfig::paper_closed_loop(4),
        "express x5 16x16 closed loop, window 4",
    );
}

/// Closed-loop trace cell: wormhole data packets (32 flits) crossing
/// shard cuts while the window gates their sources — the minted
/// immigrant handles must carry the true origin for the credit return.
#[test]
fn closed_loop_trace_parity() {
    let topo = paper_mesh();
    let trace = fixture_trace(&topo, 4242, 600);
    let routes = RoutingTable::compute_xy(&topo);
    let cfg = SimConfig::paper_closed_loop(2);
    let single = Simulator::new(&topo, &routes, cfg)
        .run_trace(&trace)
        .expect("single-shard engine completes");
    for spec in GRIDS {
        for threads in [1, 0] {
            let sharded = ShardedSimulator::new(&topo, &routes, cfg, spec)
                .with_threads(threads)
                .run_trace(&trace)
                .expect("sharded engine completes");
            assert_eq!(
                sharded, single,
                "closed-loop trace parity diverged: grid {}x{}, threads {threads}",
                spec.sx, spec.sy
            );
        }
    }
}

/// Oversubscribed execution: fewer worker threads than shards (the
/// mailbox protocol claims to support it — each worker owns several
/// shards and posts/collects for all of them). 4 quadrant shards on 2
/// and on 3 workers (uneven chunks), open- and closed-loop.
#[test]
fn oversubscribed_workers_match_single_shard() {
    let topo = paper_mesh();
    let routes = RoutingTable::compute_xy(&topo);
    let m = uniform_matrix(&topo, 0.10);
    for cfg in [SimConfig::paper(), SimConfig::paper_closed_loop(4)] {
        let single = Simulator::new(&topo, &routes, cfg)
            .run_synthetic(&m, 150, 500, 31)
            .expect("single-shard engine completes");
        for (spec, threads) in [
            (ShardSpec::quadrants(), 2),
            (ShardSpec::quadrants(), 3),
            (ShardSpec { sx: 4, sy: 2 }, 3),
        ] {
            let sharded = ShardedSimulator::new(&topo, &routes, cfg, spec)
                .with_threads(threads)
                .run_synthetic(&m, 150, 500, 31)
                .expect("oversubscribed sharded engine completes");
            assert_eq!(
                sharded, single,
                "oversubscribed parity diverged: grid {}x{} on {threads} threads, window {}",
                spec.sx, spec.sy, cfg.max_outstanding
            );
        }
    }
}

/// Faults sitting exactly on the shard cut lines: a dead span and a
/// degraded span across the x = 7↔8 column cut (a boundary of every
/// grid in `GRIDS`), a dead span across the y = 7↔8 row cut of the 2×2
/// and 4×2 grids, and a dead router in the first column east of the
/// x-cut. Boundary classification must stay correct — a dead boundary
/// link simply never exists in the ingest tables, a degraded one mails
/// its flits with the raised latency — and the resilience counters must
/// absorb across shards exactly like the other statistics.
#[test]
fn trace_parity_faulted_16x16_faults_on_cuts() {
    let healthy = paper_mesh();
    let healthy_routes = RoutingTable::compute_xy(&healthy);
    let spec = FaultSpec::none()
        .dead_link(NodeId(3 * 16 + 7), NodeId(3 * 16 + 8))
        .degraded_span(NodeId(9 * 16 + 7), NodeId(9 * 16 + 8))
        .dead_link(NodeId(7 * 16 + 5), NodeId(8 * 16 + 5))
        .dead_router(NodeId(6 * 16 + 8));
    let topo = spec.apply(&healthy);
    let routes = RoutingTable::compute_xy_avoiding(&topo).expect("fault set keeps mesh routable");
    let cfg = SimConfig::paper();
    let trace = fixture_trace(&healthy, 17, 700);
    let single = Simulator::new(&topo, &routes, cfg)
        .with_baseline(&healthy, &healthy_routes)
        .run_trace(&trace)
        .expect("single-shard engine completes");
    assert!(
        single.unreachable_pairs > 0,
        "dead-router traffic never hit"
    );
    assert!(single.rerouted_hops > 0, "cut faults never forced a detour");
    for grid in GRIDS {
        for threads in [1, 0] {
            let sharded = ShardedSimulator::new(&topo, &routes, cfg, grid)
                .with_threads(threads)
                .with_baseline(&healthy, &healthy_routes)
                .run_trace(&trace)
                .expect("sharded engine completes");
            assert_eq!(
                sharded, single,
                "faulted-cut trace parity diverged: grid {}x{}, threads {threads}",
                grid.sx, grid.sy
            );
        }
    }
}

/// Closed-loop synthetic cell on the faulted express mesh, with a
/// *degraded express link* that leaps over the x = 7↔8 column cut: the
/// halved class-B VC set, the dateline transition, the mailbox flit
/// exchange and the cross-shard source-credit return all interact.
#[test]
fn closed_loop_faulted_express_parity_on_cut() {
    let healthy = paper_express(5);
    let healthy_routes = RoutingTable::compute_xy(&healthy);
    let cut_express = healthy
        .links()
        .iter()
        .find(|l| l.is_express() && (l.src.0 % 16) < 8 && (l.dst.0 % 16) >= 8)
        .expect("a span-5 express link crosses the column cut");
    let spec = FaultSpec::none()
        .degraded_span(cut_express.src, cut_express.dst)
        .dead_link(NodeId(5 * 16 + 7), NodeId(5 * 16 + 8));
    let topo = spec.apply(&healthy);
    let routes = RoutingTable::compute_xy_avoiding(&topo).expect("fault set keeps mesh routable");
    let cfg = SimConfig::paper_closed_loop(4);
    let m = uniform_matrix(&topo, 0.25);
    let single = Simulator::new(&topo, &routes, cfg)
        .with_baseline(&healthy, &healthy_routes)
        .run_synthetic(&m, 150, 500, 23)
        .expect("single-shard engine completes");
    assert!(single.accepted_flits > 0);
    for grid in GRIDS {
        for threads in [1, 0] {
            let sharded = ShardedSimulator::new(&topo, &routes, cfg, grid)
                .with_threads(threads)
                .with_baseline(&healthy, &healthy_routes)
                .run_synthetic(&m, 150, 500, 23)
                .expect("sharded engine completes");
            assert_eq!(
                sharded, single,
                "faulted express closed-loop parity diverged: grid {}x{}, threads {threads}",
                grid.sx, grid.sy
            );
        }
    }
}

#[test]
fn sharded_32x32_uniform_runs_and_matches() {
    // The target workload of the shard subsystem: a 32×32 mesh the
    // serial sweeps could not open. One short synthetic cell, quadrant
    // shards, threaded — pinned bit-for-bit against P=1.
    let topo = cells::plain_mesh(32, 32);
    let routes = RoutingTable::compute_xy(&topo);
    let cfg = SimConfig::paper();
    let m = uniform_matrix(&topo, 0.08);
    let single = Simulator::new(&topo, &routes, cfg)
        .run_synthetic(&m, 50, 200, 42)
        .expect("completes");
    let sharded = ShardedSimulator::new(&topo, &routes, cfg, ShardSpec::quadrants())
        .run_synthetic(&m, 50, 200, 42)
        .expect("completes");
    assert_eq!(sharded, single);
    assert!(single.all.count > 1000, "workload is non-trivial");
}
