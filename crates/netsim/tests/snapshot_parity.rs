//! Checkpoint/restore parity: running `N` cycles must equal running to
//! cycle `c`, snapshotting, restoring, and running the remainder —
//! **bit-for-bit** in `SimStats` (latency histograms included) — on
//! `Simulator`, `ShardedSimulator`, and `ReferenceSimulator`, across
//! open/closed-loop, express, faulted, and shard-cut cells, including
//! re-partitioned restores (P=4 snapshot resumed at P=1 and back).
//!
//! Because all three engines are already pinned bit-for-bit against each
//! other (`tests/parity.rs`, `tests/shard_parity.rs`), these fixtures
//! make snapshot equality transitive: any divergence in what the
//! snapshot captures — arbitration pointers, credit state, wormhole
//! remaps, the run cursor — shows up as a statistics diff.
//!
//! The property block at the bottom additionally splices random cells at
//! random cycles and audits per-cycle flit conservation across the
//! splice (injected = delivered + in-network, every cycle) on a
//! manually-stepped restored engine.

mod common;

use common::cells::{self, fixture_trace, uniform_matrix};
use hyppi_netsim::reference::ReferenceSimulator;
use hyppi_netsim::snapshot::{Snapshot, SnapshotError};
use hyppi_netsim::{RunOutcome, ShardedSimulator, SimConfig, SimError, SimStats, Simulator};
use hyppi_phys::LinkTechnology;
use hyppi_topology::{
    express_mesh, ExpressSpec, FaultSpec, MeshSpec, NodeId, RoutingTable, ShardSpec, Topology,
};
use hyppi_traffic::{Trace, TraceEvent, TrafficMatrix};
use proptest::prelude::*;

fn small_mesh(w: u16, h: u16) -> Topology {
    cells::plain_mesh(w, h)
}

fn express8(span: u16) -> Topology {
    cells::express(8, 8, span)
}

/// Split cycles every fixture is spliced at: mid-warmup, dense traffic,
/// and deep into the run (possibly inside an idle fast-forward gap).
const SPLITS: [u64; 4] = [1, 57, 300, 2048];

/// The unified cell catalog (`tests/common/cells.rs`): every cell's P=1
/// whole run must equal its spliced run (pause + snapshot + resume) at
/// every split, and the sharded engine's spliced run must match too.
#[test]
fn catalog_splices_match_whole_runs() {
    for cell in cells::catalog() {
        let whole = cell.run_single();
        for split in [57u64, 300] {
            let spliced = cell.run_single_spliced(split);
            assert_eq!(spliced, whole, "{}: P=1 splice at {split}", cell.name);
            let sharded = cell.run_sharded_spliced(ShardSpec { sx: 2, sy: 1 }, 0, split);
            assert_eq!(sharded, whole, "{}: sharded splice at {split}", cell.name);
        }
    }
}

/// P=1 splice: whole run == run-until + resume, for every split.
fn assert_trace_splice(topo: &Topology, cfg: SimConfig, trace: &Trace, label: &str) -> SimStats {
    let routes = RoutingTable::compute_xy(topo);
    let whole = Simulator::new(topo, &routes, cfg)
        .run_trace(trace)
        .expect("whole run completes");
    for split in SPLITS {
        let spliced = match Simulator::new(topo, &routes, cfg)
            .run_trace_until(trace, split)
            .expect("bounded run completes")
        {
            RunOutcome::Finished(stats) => stats,
            RunOutcome::Paused(snap) => {
                assert_eq!(snap.now(), split, "{label}: pause boundary");
                Simulator::new(topo, &routes, cfg)
                    .resume_trace(&snap, trace)
                    .expect("resumed run completes")
            }
        };
        assert_eq!(spliced, whole, "{label}: split at {split}");
    }
    whole
}

fn assert_synthetic_splice(
    topo: &Topology,
    cfg: SimConfig,
    rate: f64,
    warmup: u64,
    measure: u64,
    seed: u64,
    label: &str,
) -> SimStats {
    let routes = RoutingTable::compute_xy(topo);
    let m = uniform_matrix(topo, rate);
    let whole = Simulator::new(topo, &routes, cfg)
        .run_synthetic(&m, warmup, measure, seed)
        .expect("whole run completes");
    for split in SPLITS {
        let spliced = match Simulator::new(topo, &routes, cfg)
            .run_synthetic_until(&m, warmup, measure, seed, split)
            .expect("bounded run completes")
        {
            RunOutcome::Finished(stats) => stats,
            RunOutcome::Paused(snap) => Simulator::new(topo, &routes, cfg)
                .resume_synthetic(&snap, &m, warmup, measure, seed)
                .expect("resumed run completes"),
        };
        assert_eq!(spliced, whole, "{label}: split at {split}");
    }
    whole
}

#[test]
fn trace_splice_plain_8x8() {
    let topo = small_mesh(8, 8);
    for seed in [1u64, 42] {
        let trace = fixture_trace(&topo, seed, 400);
        assert_trace_splice(
            &topo,
            SimConfig::paper(),
            &trace,
            &format!("plain 8x8, seed {seed}"),
        );
    }
}

#[test]
fn trace_splice_express_span3() {
    // Dateline VC classes mid-flight at the split: restored packets must
    // keep their (pre/post)-dateline class or VC allocation diverges.
    let topo = express8(3);
    let trace = fixture_trace(&topo, 7, 400);
    assert_trace_splice(&topo, SimConfig::paper(), &trace, "express x3 8x8");
}

#[test]
fn trace_splice_closed_loop() {
    // Closed-loop window state (outstanding counts, parked sources)
    // across the splice.
    let topo = small_mesh(8, 8);
    let trace = fixture_trace(&topo, 99, 400);
    assert_trace_splice(
        &topo,
        SimConfig::paper_closed_loop(2),
        &trace,
        "closed-loop 8x8, window 2",
    );
}

#[test]
fn trace_splice_faulted() {
    // Faults + baseline: the plan fingerprint covers the faulted
    // topology and routes, and `rerouted_hops` accounting must survive
    // the splice.
    let healthy = small_mesh(8, 8);
    let healthy_routes = RoutingTable::compute_xy(&healthy);
    let spec = FaultSpec::none()
        .dead_link(NodeId(3 * 8 + 3), NodeId(3 * 8 + 4))
        .degraded_span(NodeId(5 * 8 + 3), NodeId(5 * 8 + 4))
        .dead_router(NodeId(6 * 8 + 1));
    let topo = spec.apply(&healthy);
    let routes = RoutingTable::compute_xy_avoiding(&topo).expect("routable");
    let cfg = SimConfig::paper();
    let trace = fixture_trace(&healthy, 17, 400);
    let whole = Simulator::new(&topo, &routes, cfg)
        .with_baseline(&healthy, &healthy_routes)
        .run_trace(&trace)
        .expect("whole run completes");
    assert!(whole.rerouted_hops > 0, "faults never forced a detour");
    for split in SPLITS {
        let spliced = match Simulator::new(&topo, &routes, cfg)
            .with_baseline(&healthy, &healthy_routes)
            .run_trace_until(&trace, split)
            .expect("bounded run completes")
        {
            RunOutcome::Finished(stats) => stats,
            RunOutcome::Paused(snap) => Simulator::new(&topo, &routes, cfg)
                .with_baseline(&healthy, &healthy_routes)
                .resume_trace(&snap, &trace)
                .expect("resumed run completes"),
        };
        assert_eq!(spliced, whole, "faulted splice at {split}");
    }
}

#[test]
fn synthetic_splice_open_and_closed_loop() {
    let topo = small_mesh(8, 8);
    assert_synthetic_splice(
        &topo,
        SimConfig::paper(),
        0.10,
        150,
        500,
        5,
        "open-loop 8x8",
    );
    assert_synthetic_splice(
        &topo,
        SimConfig::paper_closed_loop(4),
        0.25,
        150,
        500,
        13,
        "closed-loop 8x8, window 4",
    );
}

/// Live packets at a snapshot boundary: origins minus completions, from
/// header bytes 80..96.
fn live_packets(snap: &Snapshot) -> u64 {
    let b = snap.bytes();
    let origins = u64::from_le_bytes(b[80..88].try_into().unwrap());
    let completed = u64::from_le_bytes(b[88..96].try_into().unwrap());
    origins - completed
}

/// Sharded splice matrix: snapshot under one shard grid, restore under
/// another (including P=1 both ways), sequential and threaded. The splits
/// hold 4, 5 and 12 live packets: the packet table's order (by origin,
/// then admission number) must not depend on the partition.
#[test]
fn sharded_repartition_splice() {
    let topo = small_mesh(8, 8);
    let routes = RoutingTable::compute_xy(&topo);
    let cfg = SimConfig::paper();
    let trace = fixture_trace(&topo, 4242, 500);
    let whole = Simulator::new(&topo, &routes, cfg)
        .run_trace(&trace)
        .expect("whole run completes");
    let grids = [
        ShardSpec { sx: 2, sy: 1 },
        ShardSpec { sx: 2, sy: 2 },
        ShardSpec { sx: 4, sy: 2 },
    ];
    for split in [7u64, 1339, 2605] {
        // Snapshots taken at P=1 and at each grid…
        let mut snaps: Vec<(String, Snapshot)> = Vec::new();
        snaps.push((
            "P=1".into(),
            Simulator::new(&topo, &routes, cfg)
                .run_trace_until(&trace, split)
                .expect("bounded run completes")
                .expect_paused(),
        ));
        assert!(
            live_packets(&snaps[0].1) >= 2,
            "split {split} holds fewer than two live packets"
        );
        for grid in grids {
            for threads in [1usize, 0] {
                let snap = ShardedSimulator::new(&topo, &routes, cfg, grid)
                    .with_threads(threads)
                    .run_trace_until(&trace, split)
                    .expect("bounded run completes")
                    .expect_paused();
                snaps.push((format!("{}x{} t{threads}", grid.sx, grid.sy), snap));
            }
        }
        // …must all be byte-identical (the format is partition-
        // independent and the engines are lockstep)…
        for (label, snap) in &snaps[1..] {
            assert_eq!(
                snap.bytes(),
                snaps[0].1.bytes(),
                "snapshot bytes diverge at split {split}: {label} vs P=1"
            );
        }
        // …and resume to the whole-run statistics under every engine.
        let (_, snap) = &snaps[0];
        let resumed = Simulator::new(&topo, &routes, cfg)
            .resume_trace(snap, &trace)
            .expect("P=1 resume completes");
        assert_eq!(resumed, whole, "P=1 resume at {split}");
        for grid in grids {
            for threads in [1usize, 0] {
                let resumed = ShardedSimulator::new(&topo, &routes, cfg, grid)
                    .with_threads(threads)
                    .resume_trace(snap, &trace)
                    .expect("sharded resume completes");
                assert_eq!(
                    resumed, whole,
                    "grid {}x{} t{threads} resume at {split}",
                    grid.sx, grid.sy
                );
            }
        }
    }
}

/// The acceptance-criteria cell spelled out: a P=4 (quadrants) snapshot
/// restored and finished at P=1, and a P=1 snapshot finished at P=4, on
/// a closed-loop synthetic workload crossing every shard cut.
#[test]
fn p4_snapshot_restores_at_p1_and_back() {
    let topo = small_mesh(8, 8);
    let routes = RoutingTable::compute_xy(&topo);
    let cfg = SimConfig::paper_closed_loop(4);
    let m = uniform_matrix(&topo, 0.25);
    let (warmup, measure, seed) = (150u64, 500u64, 23u64);
    let whole = Simulator::new(&topo, &routes, cfg)
        .run_synthetic(&m, warmup, measure, seed)
        .expect("whole run completes");
    let split = 200u64;
    let p4 = ShardedSimulator::new(&topo, &routes, cfg, ShardSpec::quadrants())
        .run_synthetic_until(&m, warmup, measure, seed, split)
        .expect("bounded run completes")
        .expect_paused();
    let at_p1 = Simulator::new(&topo, &routes, cfg)
        .resume_synthetic(&p4, &m, warmup, measure, seed)
        .expect("P=1 resume completes");
    assert_eq!(at_p1, whole, "P=4 snapshot resumed at P=1");
    let p1 = Simulator::new(&topo, &routes, cfg)
        .run_synthetic_until(&m, warmup, measure, seed, split)
        .expect("bounded run completes")
        .expect_paused();
    let at_p4 = ShardedSimulator::new(&topo, &routes, cfg, ShardSpec::quadrants())
        .resume_synthetic(&p1, &m, warmup, measure, seed)
        .expect("P=4 resume completes");
    assert_eq!(at_p4, whole, "P=1 snapshot resumed at P=4");
}

/// Reference-engine splice: the frozen oracle carries the mirror
/// implementation, and its snapshots interchange with the production
/// engines' (logical content equality — the oracle proves the format
/// captures engine-independent state).
#[test]
fn reference_splice_and_cross_engine_restore() {
    let topo = small_mesh(8, 8);
    let routes = RoutingTable::compute_xy(&topo);
    let cfg = SimConfig::paper();
    let trace = fixture_trace(&topo, 77, 400);
    let whole = ReferenceSimulator::new(&topo, &routes, cfg)
        .run_trace(&trace)
        .expect("whole run completes");
    for split in SPLITS {
        let spliced = match ReferenceSimulator::new(&topo, &routes, cfg)
            .run_trace_until(&trace, split)
            .expect("bounded run completes")
        {
            RunOutcome::Finished(stats) => stats,
            RunOutcome::Paused(snap) => {
                // Cross-engine: the oracle's snapshot resumes on the
                // production engine, and vice versa, to the same stats.
                let on_fast = Simulator::new(&topo, &routes, cfg)
                    .resume_trace(&snap, &trace)
                    .expect("production resume completes");
                assert_eq!(on_fast, whole, "reference snapshot on Simulator at {split}");
                let fast_snap = Simulator::new(&topo, &routes, cfg)
                    .run_trace_until(&trace, split)
                    .expect("bounded run completes")
                    .expect_paused();
                let on_ref = ReferenceSimulator::new(&topo, &routes, cfg)
                    .resume_trace(&fast_snap, &trace)
                    .expect("reference resume completes");
                assert_eq!(on_ref, whole, "Simulator snapshot on reference at {split}");
                ReferenceSimulator::new(&topo, &routes, cfg)
                    .resume_trace(&snap, &trace)
                    .expect("reference resume completes")
            }
        };
        assert_eq!(spliced, whole, "reference splice at {split}");
    }
}

#[test]
fn reference_synthetic_splice_closed_loop_express() {
    let topo = express8(3);
    let routes = RoutingTable::compute_xy(&topo);
    let cfg = SimConfig::paper_closed_loop(4);
    let m = uniform_matrix(&topo, 0.20);
    let (warmup, measure, seed) = (150u64, 400u64, 31u64);
    let whole = ReferenceSimulator::new(&topo, &routes, cfg)
        .run_synthetic(&m, warmup, measure, seed)
        .expect("whole run completes");
    for split in [57u64, 300] {
        let snap = ReferenceSimulator::new(&topo, &routes, cfg)
            .run_synthetic_until(&m, warmup, measure, seed, split)
            .expect("bounded run completes")
            .expect_paused();
        let spliced = ReferenceSimulator::new(&topo, &routes, cfg)
            .resume_synthetic(&snap, &m, warmup, measure, seed)
            .expect("resumed run completes");
        assert_eq!(spliced, whole, "reference synthetic splice at {split}");
        let cross = Simulator::new(&topo, &routes, cfg)
            .resume_synthetic(&snap, &m, warmup, measure, seed)
            .expect("cross resume completes");
        assert_eq!(cross, whole, "cross-engine synthetic splice at {split}");
        // The reference writes class byte 1 on express routes; a sharded
        // engine reads it as class A, on both sides of the cut.
        let sharded = ShardedSimulator::new(&topo, &routes, cfg, ShardSpec { sx: 2, sy: 1 })
            .resume_synthetic(&snap, &m, warmup, measure, seed)
            .expect("sharded cross resume completes");
        assert_eq!(sharded, whole, "sharded cross-engine splice at {split}");
    }
}

// ---- error handling -----------------------------------------------------

#[test]
fn restore_rejects_mismatches() {
    let topo = small_mesh(8, 8);
    let routes = RoutingTable::compute_xy(&topo);
    let cfg = SimConfig::paper();
    let trace = fixture_trace(&topo, 1, 300);
    let snap = Simulator::new(&topo, &routes, cfg)
        .run_trace_until(&trace, 57)
        .expect("bounded run completes")
        .expect_paused();

    // Wrong configuration → plan fingerprint mismatch.
    let other_cfg = SimConfig {
        vcs: 2,
        ..SimConfig::paper()
    };
    let err = Simulator::new(&topo, &routes, other_cfg)
        .resume_trace(&snap, &trace)
        .expect_err("vcs=2 plan must reject");
    assert_eq!(err, SimError::Snapshot(SnapshotError::PlanMismatch));

    // Wrong topology → plan fingerprint mismatch.
    let other_topo = small_mesh(4, 4);
    let other_routes = RoutingTable::compute_xy(&other_topo);
    let err = Simulator::new(&other_topo, &other_routes, cfg)
        .resume_trace(&snap, &fixture_trace(&other_topo, 1, 50))
        .expect_err("4x4 plan must reject");
    assert_eq!(err, SimError::Snapshot(SnapshotError::PlanMismatch));

    // Same mesh and config, up*/down* routes → plan fingerprint mismatch.
    let updown = RoutingTable::compute_xy_avoiding(&topo).expect("healthy mesh routes");
    let err = Simulator::new(&topo, &updown, cfg)
        .resume_trace(&snap, &trace)
        .expect_err("up*/down* plan must reject");
    assert_eq!(err, SimError::Snapshot(SnapshotError::PlanMismatch));

    // Different trace → workload fingerprint mismatch.
    let other_trace = fixture_trace(&topo, 2, 300);
    let err = Simulator::new(&topo, &routes, cfg)
        .resume_trace(&snap, &other_trace)
        .expect_err("different trace must reject");
    assert_eq!(err, SimError::Snapshot(SnapshotError::WorkloadMismatch));

    // Truncated body: the header parses and the checksum rejects it;
    // with the checksum resealed, the decoder runs out of bytes.
    let bytes = snap.bytes();
    let resume_cut = |cut: &[u8]| {
        let cut = Snapshot::from_bytes(cut.to_vec()).expect("header is intact");
        Simulator::new(&topo, &routes, cfg)
            .resume_trace(&cut, &trace)
            .expect_err("truncated snapshot must reject")
    };
    let mut cut = bytes[..bytes.len() - 3].to_vec();
    assert_eq!(resume_cut(&cut), SimError::Snapshot(SnapshotError::Corrupt));
    reseal(&mut cut);
    assert_eq!(
        resume_cut(&cut),
        SimError::Snapshot(SnapshotError::Truncated)
    );

    // Damaged magic is rejected at construction.
    let mut bad = bytes.to_vec();
    bad[0] ^= 0xFF;
    let err = Snapshot::from_bytes(bad).expect_err("bad magic must reject");
    assert_eq!(err, SnapshotError::BadMagic);

    // Unknown version is rejected at construction.
    let mut newer = bytes.to_vec();
    newer[8] = 0xFE;
    let err = Snapshot::from_bytes(newer).expect_err("future version must reject");
    assert_eq!(err, SnapshotError::BadVersion { found: 0xFE });
}

/// Offset of the body checksum (format v3 onward) in the snapshot header.
const CHECKSUM_AT: usize = 56;

/// Rewrites the body checksum (FNV-1a 64 over every byte but the
/// checksum field) of damaged snapshot bytes, so the decoder gets past
/// the checksum to the check a test targets.
fn reseal(bytes: &mut [u8]) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (i, &b) in bytes.iter().enumerate() {
        if !(CHECKSUM_AT..CHECKSUM_AT + 8).contains(&i) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    bytes[CHECKSUM_AT..CHECKSUM_AT + 8].copy_from_slice(&h.to_le_bytes());
}

/// The damage workload — a 4×4 mesh under uniform traffic at 0.1 with
/// `(warmup, measure, seed)` = (100, 300, 7) — and its snapshot bytes,
/// paused at cycle 150.
fn damage_cell() -> (Topology, RoutingTable, TrafficMatrix, Vec<u8>) {
    let topo = small_mesh(4, 4);
    let routes = RoutingTable::compute_xy(&topo);
    let m = uniform_matrix(&topo, 0.1);
    let bytes = Simulator::new(&topo, &routes, SimConfig::paper())
        .run_synthetic_until(&m, 100, 300, 7, 150)
        .expect("bounded run completes")
        .expect_paused()
        .into_bytes();
    (topo, routes, m, bytes)
}

/// The damage workload's snapshot with `damage` applied to its bytes,
/// resumed on the P=1 and the reference engine: both must return
/// `expected`.
fn assert_damaged_synthetic_resume(damage: impl Fn(&mut [u8]), expected: SnapshotError) {
    let (topo, routes, m, mut bytes) = damage_cell();
    let cfg = SimConfig::paper();
    let (warmup, measure, seed) = (100, 300, 7);
    damage(&mut bytes);
    let bad = Snapshot::from_bytes(bytes).expect("header is intact");
    let err = Simulator::new(&topo, &routes, cfg)
        .resume_synthetic(&bad, &m, warmup, measure, seed)
        .expect_err("active engine must reject");
    assert_eq!(err, SimError::Snapshot(expected));
    let err = ReferenceSimulator::new(&topo, &routes, cfg)
        .resume_synthetic(&bad, &m, warmup, measure, seed)
        .expect_err("reference engine must reject");
    assert_eq!(err, SimError::Snapshot(expected));
}

/// A node count the bytes cannot hold is rejected before the decoder
/// allocates for it (byte 15 is the high byte of `num_nodes`: flipping
/// its top bit asks for 2³¹ nodes' statistics).
#[test]
fn restore_rejects_counts_the_bytes_cannot_hold() {
    assert_damaged_synthetic_resume(
        |b| {
            b[15] ^= 0x80;
            reseal(b);
        },
        SnapshotError::Truncated,
    );
}

/// More completed than admitted packets is impossible; a resumed run
/// would otherwise underflow its stuck-packet count at the cycle cap.
#[test]
fn restore_rejects_more_completions_than_origins() {
    assert_damaged_synthetic_resume(
        |b| {
            let origins = u64::from_le_bytes(b[80..88].try_into().unwrap());
            b[88..96].copy_from_slice(&(origins + 1).to_le_bytes());
            reseal(b);
        },
        SnapshotError::Corrupt,
    );
}

/// An in-flight link flit addressed to a node the mesh lacks is
/// rejected at decode, not left to index the routing table. Synthetic
/// packets are single flits (head and tail: flag byte 3), and the link
/// section ends the snapshot with zero counts after the last event, so
/// the last nonzero byte is that event's flag byte, right after its
/// destination.
#[test]
fn restore_rejects_link_flits_addressed_off_the_mesh() {
    assert_damaged_synthetic_resume(
        |b| {
            let flags = b.iter().rposition(|&x| x != 0).expect("nonzero bytes");
            assert_eq!(b[flags], 3, "the last in-flight event is a single flit");
            b[flags - 2..flags].copy_from_slice(&16u16.to_le_bytes());
            reseal(b);
        },
        SnapshotError::Corrupt,
    );
}

/// Byte-flip mutation sweep over the damage workload's snapshot: every
/// byte (every 16th under `debug_assertions`) XORed with 0x01, 0x80 and
/// 0xFF, resumed on the P=1 engine under a 20,000-cycle cap. As flipped,
/// the header checks or the checksum reject every case with a typed
/// error. With the checksum resealed, the decoder's semantic checks are
/// all that stands between the bytes and the engine: every case must
/// then fail typed or run to an end — never panic.
#[test]
fn byte_flips_fail_typed_and_resealed_flips_never_panic() {
    let (topo, routes, m, bytes) = damage_cell();
    let cfg = SimConfig {
        max_cycles: 20_000,
        ..SimConfig::paper()
    };
    let resume = |b: Vec<u8>| -> Result<SimStats, SimError> {
        let snap = Snapshot::from_bytes(b).map_err(SimError::Snapshot)?;
        Simulator::new(&topo, &routes, cfg).resume_synthetic(&snap, &m, 100, 300, 7)
    };
    let stride = if cfg!(debug_assertions) { 16 } else { 1 };
    let mut panics = Vec::new();
    for at in (0..bytes.len()).step_by(stride) {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut b = bytes.clone();
            b[at] ^= mask;
            match resume(b.clone()) {
                Err(SimError::Snapshot(_)) => {}
                other => panic!("byte {at} ^ {mask:#04x} was accepted: {other:?}"),
            }
            reseal(&mut b);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| resume(b)));
            if outcome.is_err() {
                panics.push((at, mask));
            }
        }
    }
    assert!(panics.is_empty(), "resealed flips panicked: {panics:?}");
}

/// A manual-stepping snapshot (no workload pinned) resumes under any
/// workload: the trace cursor is rebuilt by scanning.
#[test]
fn manual_snapshot_resumes_into_trace_run() {
    let topo = small_mesh(4, 4);
    let routes = RoutingTable::compute_xy(&topo);
    let cfg = SimConfig::paper();
    // Whole run: two packets admitted at cycle 0, two more at cycle 40.
    let mk_events = || {
        vec![
            TraceEvent {
                cycle: 0,
                src: NodeId(0),
                dst: NodeId(15),
                flits: 32,
            },
            TraceEvent {
                cycle: 0,
                src: NodeId(5),
                dst: NodeId(10),
                flits: 1,
            },
            TraceEvent {
                cycle: 40,
                src: NodeId(15),
                dst: NodeId(0),
                flits: 32,
            },
            TraceEvent {
                cycle: 40,
                src: NodeId(3),
                dst: NodeId(12),
                flits: 1,
            },
        ]
    };
    let trace = Trace::new("manual", 16, 0.0, mk_events());
    let whole = Simulator::new(&topo, &routes, cfg)
        .run_trace(&trace)
        .expect("whole run completes");
    // Manually step through the first 20 cycles (admitting as the run
    // loop would), snapshot, then hand off to `resume_trace`.
    let mut sim = Simulator::new(&topo, &routes, cfg);
    let mut events = mk_events();
    events.retain(|e| {
        if e.cycle < 20 {
            sim.admit(e.src, e.dst, e.flits, e.cycle);
        }
        e.cycle >= 20
    });
    for now in 0..20 {
        sim.step(now);
    }
    let snap = sim.snapshot(20);
    assert_eq!(snap.now(), 20);
    let resumed = Simulator::new(&topo, &routes, cfg)
        .resume_trace(&snap, &trace)
        .expect("resumed run completes");
    assert_eq!(resumed, whole);
}

// ---- property: random cells, random splits, flit conservation -----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random (topology, pattern, window, faults, split): splice parity
    /// on all three engines plus a per-cycle flit-conservation audit of
    /// the restored state (injected = delivered + in-network at every
    /// cycle boundary after the splice).
    #[test]
    fn random_cell_splices_cleanly(
        (w, h) in prop_oneof![Just((6u16, 6u16)), Just((8, 4)), Just((8, 8))],
        express_span in prop_oneof![Just(0u16), Just(3)],
        window in prop_oneof![Just(0usize), Just(2), Just(8)],
        faulted in prop_oneof![Just(false), Just(true)],
        seed in 0u64..1000,
        split in 1u64..900,
    ) {
        let healthy = if express_span > 0 {
            express_mesh(
                MeshSpec {
                    width: w,
                    height: h,
                    core_spacing_mm: 1.0,
                    base_tech: LinkTechnology::Electronic,
                    capacity: hyppi_phys::Gbps::new(50.0),
                },
                ExpressSpec { span: express_span, tech: LinkTechnology::Hyppi },
            )
        } else {
            small_mesh(w, h)
        };
        let topo = if faulted {
            FaultSpec::none()
                .dead_link(NodeId(1), NodeId(2))
                .degraded_span(NodeId(w), NodeId(w + 1))
                .apply(&healthy)
        } else {
            healthy.clone()
        };
        let routes = if faulted {
            RoutingTable::compute_xy_avoiding(&topo).expect("routable")
        } else {
            RoutingTable::compute_xy(&topo)
        };
        let cfg = if window == 0 {
            SimConfig::paper()
        } else {
            SimConfig::paper_closed_loop(window)
        };
        let trace = fixture_trace(&topo, seed, 250);

        let whole = Simulator::new(&topo, &routes, cfg)
            .run_trace(&trace)
            .expect("whole run completes");

        // Production splice.
        let outcome = Simulator::new(&topo, &routes, cfg)
            .run_trace_until(&trace, split)
            .expect("bounded run completes");
        let snap = match outcome {
            RunOutcome::Finished(stats) => {
                prop_assert_eq!(stats, whole);
                return Ok(());
            }
            RunOutcome::Paused(snap) => snap,
        };
        let resumed = Simulator::new(&topo, &routes, cfg)
            .resume_trace(&snap, &trace)
            .expect("resumed run completes");
        prop_assert_eq!(&resumed, &whole);

        // Sharded restore of the same snapshot.
        let sharded = ShardedSimulator::new(&topo, &routes, cfg, ShardSpec { sx: 2, sy: 1 })
            .resume_trace(&snap, &trace)
            .expect("sharded resume completes");
        prop_assert_eq!(&sharded, &whole);

        // Reference-engine restore of the same snapshot.
        let reference = ReferenceSimulator::new(&topo, &routes, cfg)
            .resume_trace(&snap, &trace)
            .expect("reference resume completes");
        prop_assert_eq!(&reference, &whole);

        // Conservation audit across the splice: restore into a manually
        // stepped engine and check the flit ledger every cycle while
        // feeding it the trace's remaining events.
        let mut sim = Simulator::new(&topo, &routes, cfg)
            .restore(&snap)
            .expect("manual restore");
        let mut pending: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.cycle >= split)
            .cloned()
            .collect();
        let audit_until = split + 400;
        let mut next = 0usize;
        for now in split..audit_until {
            while next < pending.len() && pending[next].cycle <= now {
                let e = pending[next];
                sim.admit(e.src, e.dst, e.flits, now);
                next += 1;
            }
            sim.step(now);
            let s = sim.stats();
            prop_assert!(
                s.flits_injected == s.flits_delivered + sim.in_network_flits(),
                "conservation broke at cycle {now}: injected {} != delivered {} + in-network {}",
                s.flits_injected,
                s.flits_delivered,
                sim.in_network_flits()
            );
        }
        pending.clear();
    }
}
