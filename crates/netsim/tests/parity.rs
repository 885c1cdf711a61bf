//! Engine parity: the active-set engine must reproduce the seed engine's
//! `SimStats` **bit-for-bit** — same latency histograms, same energy
//! counts, same per-link utilization, same cycle counts — on a fixture
//! matrix of seeds × topologies × workloads. This pins the paper's
//! Fig. 6 / Table V numbers across engine rewrites.
//!
//! `ReferenceSimulator` (in `hyppi_netsim::reference`) is the frozen seed
//! implementation; any intentional microarchitectural change must land in
//! both engines.

mod common;

use common::cells::{self, express, fixture_trace, plain_mesh, uniform_matrix};
use hyppi_netsim::{
    ReferenceSimulator, ShardedSimulator, SimConfig, SimError, SimStats, Simulator,
};
use hyppi_topology::NodeId;
use hyppi_topology::{FaultSpec, RoutingTable, ShardSpec, Topology};
use hyppi_traffic::{NpbKernel, SyntheticPattern, Trace, TraceEvent};

/// The unified cell catalog (`tests/common/cells.rs`): every cell's P=1
/// run must equal the frozen reference engine bit-for-bit. The sharded,
/// snapshot, and telemetry suites iterate the same catalog,
/// so a cell added there is transitively pinned to the seed semantics
/// through this test.
#[test]
fn catalog_matches_reference_engine() {
    for cell in cells::catalog() {
        let single = cell.run_single();
        let reference = cell.run_reference();
        assert_eq!(single, reference, "catalog cell diverged: {}", cell.name);
    }
}

/// `SimError::CycleLimit { stuck_packets }` is what a run that stops
/// draining reports. With `max_cycles` cut short on every catalog cell,
/// the frozen reference, the P=1 engine and the quadrant grid (one
/// worker and four) must stop with the same stuck-packet count, and a
/// run bounded at the limit must pause exactly there: that snapshot is
/// the image of the stuck state (`docs/SNAPSHOT_FORMAT.md`).
#[test]
fn cycle_limit_reports_the_same_stuck_count_on_every_engine() {
    let quadrants = ShardSpec { sx: 2, sy: 2 };
    for limit in [60, 250] {
        for mut cell in cells::catalog() {
            cell.cfg.max_cycles = limit;
            let what = format!("{} at max_cycles {limit}", cell.name);
            let stuck = |engine: &str, run: Result<SimStats, SimError>| match run {
                Err(SimError::CycleLimit { stuck_packets }) => stuck_packets,
                other => panic!("{what} ({engine}): expected a cycle limit, got {other:?}"),
            };
            let expected = stuck("seed", cell.try_reference());
            let single = cell.try_run(cell.single());
            assert_eq!(stuck("P=1", single), expected, "{what}: P=1");
            for threads in [1, 4] {
                let sharded = cell.try_run(cell.sharded(quadrants, threads));
                assert_eq!(
                    stuck("quadrants", sharded),
                    expected,
                    "{what}: quadrants, {threads} workers"
                );
            }
            for (engine, bounded) in [
                ("seed", cell.reference_until(limit)),
                ("P=1", cell.run_until(cell.single(), limit)),
                (
                    "quadrants",
                    cell.run_until(cell.sharded(quadrants, 4), limit),
                ),
            ] {
                let snap = bounded.expect("bounded run").expect_paused();
                assert_eq!(snap.now(), limit, "{what} ({engine})");
            }
        }
    }
}

/// Every `SyntheticPattern` through the matrix rows it builds — fill
/// rows (uniform, hotspot), one exception per row (transpose,
/// complement), every pair stored (Soteriou, NPB) — at P=1 and on a 2×1
/// shard grid, bit-for-bit against the frozen reference engine.
#[test]
fn every_synthetic_pattern_matches_reference() {
    let small = plain_mesh(8, 8);
    // The rescaled NPB shapes need a multiple of the 16×16 base mesh.
    let base = plain_mesh(16, 16);
    let mut cases: Vec<(SyntheticPattern, &Topology)> = vec![
        (SyntheticPattern::Uniform, &small),
        (SyntheticPattern::Transpose, &small),
        (SyntheticPattern::Complement, &small),
        (SyntheticPattern::Hotspot, &small),
        (SyntheticPattern::Soteriou, &small),
    ];
    cases.extend(NpbKernel::ALL.map(|k| (SyntheticPattern::Npb(k), &small)));
    cases.extend(NpbKernel::ALL.map(|k| (SyntheticPattern::NpbScaled(k), &base)));
    let cfg = SimConfig::paper();
    for (pattern, topo) in cases {
        let routes = RoutingTable::compute_xy(topo);
        let m = pattern.matrix(topo, 0.08);
        let (warmup, measure, seed) = (50, 200, 7);
        let reference = ReferenceSimulator::new(topo, &routes, cfg)
            .run_synthetic(&m, warmup, measure, seed)
            .expect("reference engine completes");
        assert!(reference.all.count > 0, "{pattern}: no packets measured");
        let single = Simulator::new(topo, &routes, cfg)
            .run_synthetic(&m, warmup, measure, seed)
            .expect("P=1 engine completes");
        assert_eq!(single, reference, "{pattern}: P=1 diverged");
        let sharded = ShardedSimulator::new(topo, &routes, cfg, ShardSpec { sx: 2, sy: 1 })
            .run_synthetic(&m, warmup, measure, seed)
            .expect("sharded engine completes");
        assert_eq!(sharded, reference, "{pattern}: 2x1 shards diverged");
    }
}

fn assert_trace_parity_cfg(topo: &Topology, trace: &Trace, cfg: SimConfig, label: &str) {
    let routes = RoutingTable::compute_xy(topo);
    let new = Simulator::new(topo, &routes, cfg)
        .run_trace(trace)
        .expect("active-set engine completes");
    let reference = ReferenceSimulator::new(topo, &routes, cfg)
        .run_trace(trace)
        .expect("reference engine completes");
    assert_eq!(new, reference, "trace parity diverged: {label}");
}

fn assert_trace_parity(topo: &Topology, trace: &Trace, label: &str) {
    assert_trace_parity_cfg(topo, trace, SimConfig::paper(), label);
}

fn assert_synthetic_parity_cfg(
    topo: &Topology,
    rate: f64,
    seed: u64,
    cfg: SimConfig,
    label: &str,
) -> hyppi_netsim::SimStats {
    let routes = RoutingTable::compute_xy(topo);
    let m = uniform_matrix(topo, rate);
    let new = Simulator::new(topo, &routes, cfg)
        .run_synthetic(&m, 150, 600, seed)
        .expect("active-set engine completes");
    let reference = ReferenceSimulator::new(topo, &routes, cfg)
        .run_synthetic(&m, 150, 600, seed)
        .expect("reference engine completes");
    assert_eq!(new, reference, "synthetic parity diverged: {label}");
    // `SimStats` equality already covers the histogram arrays; spell the
    // derived tail statistics out too so a change to the percentile
    // estimator itself (not just the collection) is caught against the
    // frozen engine's data.
    for q in [0.5, 0.95, 0.99] {
        assert_eq!(
            new.all.percentile(q),
            reference.all.percentile(q),
            "p{} diverged: {label}",
            (q * 100.0) as u32
        );
    }
    assert!(new.all.histogram.iter().sum::<u64>() == new.all.count);
    new
}

fn assert_synthetic_parity(topo: &Topology, seed: u64, label: &str) {
    assert_synthetic_parity_cfg(topo, 0.08, seed, SimConfig::paper(), label);
}

/// Faulted-mesh trace cell: apply `spec` to `healthy`, route around the
/// faults with the up*/down* table, run both engines with the healthy
/// baseline installed, and pin bit-for-bit equality.
fn assert_fault_trace_parity(
    healthy: &Topology,
    spec: &FaultSpec,
    trace: &Trace,
    cfg: SimConfig,
    label: &str,
) -> SimStats {
    let healthy_routes = RoutingTable::compute_xy(healthy);
    let topo = spec.apply(healthy);
    let routes = RoutingTable::compute_xy_avoiding(&topo).expect("fault set keeps mesh routable");
    let new = Simulator::new(&topo, &routes, cfg)
        .with_baseline(healthy, &healthy_routes)
        .run_trace(trace)
        .expect("active-set engine completes");
    let reference = ReferenceSimulator::new(&topo, &routes, cfg)
        .with_baseline(healthy, &healthy_routes)
        .run_trace(trace)
        .expect("reference engine completes");
    assert_eq!(new, reference, "faulted trace parity diverged: {label}");
    new
}

/// Faulted-mesh synthetic cell (same parity rule, Bernoulli injection).
fn assert_fault_synthetic_parity(
    healthy: &Topology,
    spec: &FaultSpec,
    rate: f64,
    seed: u64,
    cfg: SimConfig,
    label: &str,
) -> SimStats {
    let healthy_routes = RoutingTable::compute_xy(healthy);
    let topo = spec.apply(healthy);
    let routes = RoutingTable::compute_xy_avoiding(&topo).expect("fault set keeps mesh routable");
    let m = uniform_matrix(&topo, rate);
    let new = Simulator::new(&topo, &routes, cfg)
        .with_baseline(healthy, &healthy_routes)
        .run_synthetic(&m, 150, 600, seed)
        .expect("active-set engine completes");
    let reference = ReferenceSimulator::new(&topo, &routes, cfg)
        .with_baseline(healthy, &healthy_routes)
        .run_synthetic(&m, 150, 600, seed)
        .expect("reference engine completes");
    assert_eq!(new, reference, "faulted synthetic parity diverged: {label}");
    new
}

/// The fixture matrix from the issue: ≥3 seeds × {plain mesh, express
/// mesh with dateline VCs}, trace-driven.
#[test]
fn trace_parity_plain_mesh_three_seeds() {
    let topo = plain_mesh(8, 8);
    for seed in [1u64, 7, 42] {
        let trace = fixture_trace(&topo, seed, 600);
        assert_trace_parity(&topo, &trace, &format!("plain 8x8, seed {seed}"));
    }
}

#[test]
fn trace_parity_express_mesh_three_seeds() {
    // Span 5 on a 16-wide mesh: dateline VC classes in force, mixed 1- and
    // 2-cycle link latencies in the calendar.
    let topo = express(16, 2, 5);
    for seed in [3u64, 11, 1234] {
        let trace = fixture_trace(&topo, seed, 600);
        assert_trace_parity(&topo, &trace, &format!("express 16x2 span 5, seed {seed}"));
    }
}

#[test]
fn trace_parity_express_wraparound_span() {
    // Span 15 "ring wrap" — the hardest deadlock-discipline case.
    let topo = express(16, 2, 15);
    let trace = fixture_trace(&topo, 99, 400);
    assert_trace_parity(&topo, &trace, "express 16x2 span 15, seed 99");
}

#[test]
fn synthetic_parity_three_seeds_both_topologies() {
    let plain = plain_mesh(6, 6);
    let xpress = express(8, 4, 3);
    for seed in [5u64, 17, 2718] {
        assert_synthetic_parity(&plain, seed, &format!("plain 6x6, seed {seed}"));
        assert_synthetic_parity(&xpress, seed, &format!("express 8x4 span 3, seed {seed}"));
    }
}

/// Saturating all-to-all wormhole burst: heavy VC/switch contention, so
/// every arbitration path is exercised, not just the quiescent fast path.
#[test]
fn trace_parity_under_saturation() {
    let topo = plain_mesh(4, 4);
    let mut events = Vec::new();
    for s in 0..16u16 {
        for k in 1..16u16 {
            events.push(TraceEvent {
                cycle: u64::from(k) * 4,
                src: NodeId(s),
                dst: NodeId((s + k) % 16),
                flits: if k % 2 == 0 { 32 } else { 1 },
            });
        }
    }
    let trace = Trace::new("saturation", 16, 0.0, events);
    assert_trace_parity(&topo, &trace, "4x4 all-to-all saturation");
}

/// Closed-loop NIC cells: windows 1, 4 and 16 over trace and synthetic
/// workloads on both topology families. The credit-gated emission, the
/// source-credit return, the emission-restarted latency clocks, and the
/// new accepted/backlog/outstanding statistics must all match the frozen
/// engine bit-for-bit (the frozen engine carries the mirror
/// implementation — see `reference.rs`).
#[test]
fn closed_loop_trace_parity_windows() {
    let plain = plain_mesh(6, 6);
    let xpress = express(16, 2, 5);
    for window in [1usize, 4, 16] {
        let cfg = SimConfig::paper_closed_loop(window);
        let trace = fixture_trace(&plain, 21 + window as u64, 500);
        assert_trace_parity_cfg(&plain, &trace, cfg, &format!("plain 6x6, window {window}"));
        let trace = fixture_trace(&xpress, 77 + window as u64, 400);
        assert_trace_parity_cfg(
            &xpress,
            &trace,
            cfg,
            &format!("express 16x2 span 5, window {window}"),
        );
    }
}

/// Synthetic closed-loop cells at a rate past the small-mesh knee, so
/// windows actually fill, sources park, and credits un-park them.
#[test]
fn closed_loop_synthetic_parity_windows() {
    let topo = plain_mesh(6, 6);
    for window in [1usize, 4, 16] {
        let cfg = SimConfig::paper_closed_loop(window);
        let stats = assert_synthetic_parity_cfg(
            &topo,
            0.35,
            9 + window as u64,
            cfg,
            &format!("plain 6x6 saturated, window {window}"),
        );
        // The cells are not vacuous: the window filled somewhere…
        let peak = stats.peak_outstanding.iter().max().copied().unwrap_or(0);
        assert_eq!(peak as usize, window, "window never filled");
        assert!(stats.accepted_flits > 0);
        // …and when it is tight (service rate window/RTT below the
        // offered 0.35), the overload piles up at the NICs instead of in
        // the network.
        if window <= 4 {
            assert!(stats.peak_backlog.iter().any(|&b| b > 1));
        }
    }
}

/// Golden scalar anchors for the paper-default configuration, recorded
/// from the seed engine. These pin absolute values (not just engine
/// agreement) so a bug introduced symmetrically into both engines is
/// still caught.
#[test]
fn golden_zero_load_anchors() {
    // 2-node mesh, single flit: 7-cycle zero-load latency (3 + 1 + 3).
    let topo = plain_mesh(2, 1);
    let routes = RoutingTable::compute_xy(&topo);
    let trace = Trace::new(
        "golden",
        2,
        0.0,
        vec![TraceEvent {
            cycle: 0,
            src: NodeId(0),
            dst: NodeId(1),
            flits: 1,
        }],
    );
    for stats in [
        Simulator::new(&topo, &routes, SimConfig::paper())
            .run_trace(&trace)
            .unwrap(),
        ReferenceSimulator::new(&topo, &routes, SimConfig::paper())
            .run_trace(&trace)
            .unwrap(),
    ] {
        assert_eq!(stats.all.max, 7);
        assert_eq!(stats.all.count, 1);
        assert_eq!(stats.flits_delivered, 1);
        assert_eq!(stats.total_flit_hops(), 1);
        // Source switch + destination switch.
        assert_eq!(stats.total_router_traversals(), 2);
        // The log-linear histogram buckets 7-cycle latencies exactly
        // (values below 8 are their own bucket), so every percentile of
        // the single-packet run is 7.
        assert_eq!(stats.all.histogram[7], 1);
        assert_eq!(stats.all.histogram.iter().sum::<u64>(), 1);
        assert_eq!(stats.all.p50(), 7);
        assert_eq!(stats.all.p99(), 7);
    }
}

/// Latency histograms and their percentile read-outs agree bit-for-bit
/// between the engines under heavy contention, where latencies span many
/// octaves of the log-linear histogram.
#[test]
fn histogram_parity_under_contention() {
    let topo = plain_mesh(4, 4);
    let routes = RoutingTable::compute_xy(&topo);
    let cfg = SimConfig::paper();
    let mut events = Vec::new();
    for s in 0..16u16 {
        for k in 1..16u16 {
            events.push(TraceEvent {
                cycle: 0,
                src: NodeId(s),
                dst: NodeId((s + k) % 16),
                flits: 32,
            });
        }
    }
    let trace = Trace::new("histogram burst", 16, 0.0, events);
    let new = Simulator::new(&topo, &routes, cfg)
        .run_trace(&trace)
        .expect("completes");
    let reference = ReferenceSimulator::new(&topo, &routes, cfg)
        .run_trace(&trace)
        .expect("completes");
    assert_eq!(new.all.histogram, reference.all.histogram);
    assert_eq!(new.data.histogram, reference.data.histogram);
    // The burst spreads latencies across several buckets, so the tail
    // statistics are non-degenerate.
    assert!(new.all.histogram.iter().filter(|&&c| c > 0).count() > 3);
    assert!(new.all.p50() < new.all.p99());
    for q in [0.5, 0.9, 0.95, 0.99, 1.0] {
        assert_eq!(new.all.percentile(q), reference.all.percentile(q));
    }
}

/// Faulted plain mesh, trace-driven: dead links (detours), a degraded
/// span (raised latency + halved VCs), and a dead router (admission
/// drops) must all stay bit-for-bit across the engines — and the new
/// resilience counters must actually fire.
#[test]
fn trace_parity_faulted_plain_mesh() {
    let healthy = plain_mesh(8, 8);
    let spec = FaultSpec::none()
        .dead_link(NodeId(27), NodeId(28))
        .dead_link(NodeId(12), NodeId(20))
        .degraded_span(NodeId(35), NodeId(36))
        .dead_router(NodeId(45));
    for seed in [2u64, 13] {
        let trace = fixture_trace(&healthy, seed, 500);
        let stats = assert_fault_trace_parity(
            &healthy,
            &spec,
            &trace,
            SimConfig::paper(),
            &format!("faulted plain 8x8, seed {seed}"),
        );
        assert!(stats.unreachable_pairs > 0, "dead-router traffic never hit");
        assert!(stats.rerouted_hops > 0, "dead links never forced a detour");
        assert_eq!(
            stats.all.count + stats.unreachable_pairs,
            500,
            "every trace event is either delivered or dropped"
        );
    }
}

/// Faulted express mesh: a dead regular span plus a *degraded express
/// span* — the halved-VC discipline must keep at least one VC in each
/// dateline class, and the up*/down* detours must coexist with the
/// class-B transition.
#[test]
fn trace_parity_faulted_express_mesh() {
    let healthy = express(16, 2, 5);
    let elink = healthy
        .links()
        .iter()
        .find(|l| l.is_express())
        .expect("express mesh has express links");
    let spec = FaultSpec::none()
        .dead_link(NodeId(3), NodeId(4))
        .degraded_span(elink.src, elink.dst);
    for seed in [8u64, 21] {
        let trace = fixture_trace(&healthy, seed, 400);
        let stats = assert_fault_trace_parity(
            &healthy,
            &spec,
            &trace,
            SimConfig::paper(),
            &format!("faulted express 16x2 span 5, seed {seed}"),
        );
        assert_eq!(stats.unreachable_pairs, 0, "no dead routers in this cell");
        assert_eq!(stats.all.count, 400);
    }
}

/// Faulted synthetic cells, open loop and closed loop: the admission-time
/// drop of unreachable pairs must be counted identically by both engines
/// and must not occupy closed-loop window slots.
#[test]
fn synthetic_parity_faulted_mesh_open_and_closed_loop() {
    let healthy = plain_mesh(6, 6);
    let spec = FaultSpec::none()
        .dead_link(NodeId(14), NodeId(15))
        .degraded_span(NodeId(20), NodeId(26))
        .dead_router(NodeId(28));
    let open = assert_fault_synthetic_parity(
        &healthy,
        &spec,
        0.08,
        31,
        SimConfig::paper(),
        "faulted plain 6x6 open loop",
    );
    assert!(open.unreachable_pairs > 0);
    assert!(open.rerouted_hops > 0);
    for window in [1usize, 4] {
        let closed = assert_fault_synthetic_parity(
            &healthy,
            &spec,
            0.30,
            9 + window as u64,
            SimConfig::paper_closed_loop(window),
            &format!("faulted plain 6x6 closed loop, window {window}"),
        );
        assert!(closed.unreachable_pairs > 0);
        assert!(closed.accepted_flits > 0);
    }
}
