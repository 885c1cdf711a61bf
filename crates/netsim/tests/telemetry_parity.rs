//! Telemetry never perturbs the parity oracle.
//!
//! The probe hooks threaded through the active engine observe state but
//! must not change it: a run with a [`MetricsSampler`] and a
//! [`PacketTracer`] attached as a pair has to produce `SimStats`
//! **bit-for-bit identical** to the same run with the zero-cost
//! [`NoopProbe`] — across open and closed-loop configs, express
//! topologies, faulted meshes, and both the single-shard and the
//! sharded engine (whose probed runs are forced single-worker).
//!
//! The probes are also sanity-checked for liveness: a run that delivers
//! packets must produce inject/eject events and non-empty samples, so a
//! silently disconnected hook can't fake a parity pass.

mod common;

use common::cells;
use hyppi_netsim::telemetry::PacketEventKind;
use hyppi_netsim::{MetricsSampler, PacketTracer, ShardedSimulator, SimConfig, Simulator};
use hyppi_phys::{Gbps, LinkTechnology};
use hyppi_topology::{
    express_mesh, ExpressSpec, FaultSpec, MeshSpec, NodeId, RoutingTable, ShardSpec, Topology,
};
use hyppi_traffic::SyntheticPattern;
use proptest::prelude::*;

fn grid(w: u16, h: u16) -> Topology {
    cells::plain_mesh(w, h)
}

/// The unified cell catalog (`tests/common/cells.rs`): a fully-probed
/// run of every cell must equal the plain run bit-for-bit, on the P=1
/// engine and on the sharded engine (probed runs are single-worker, so
/// one probe observes every shard of every cycle).
#[test]
fn catalog_probed_runs_match_plain() {
    for cell in cells::catalog() {
        let plain = cell.run_single();
        let (probed, rec) = cell.run_single_probed();
        assert_eq!(probed, plain, "{}: probed P=1 diverged", cell.name);
        if plain.all.count > 0 {
            let sampler = &rec.0;
            assert!(!sampler.samples().is_empty(), "{}: no samples", cell.name);
        }
        let (sharded, _) = cell.run_sharded_probed(ShardSpec { sx: 2, sy: 1 });
        assert_eq!(sharded, plain, "{}: probed sharded diverged", cell.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// NoopProbe run == all-probes-attached run, bit for bit, on both
    /// engines, across open/closed-loop × express × faulted cells.
    #[test]
    fn probed_run_stats_are_bit_identical(
        (w, h) in (4u16..=6, 3u16..=5),
        express in prop_oneof![Just(false), Just(true)],
        faulted in prop_oneof![Just(false), Just(true)],
        window in prop_oneof![Just(0usize), Just(2), Just(8)],
        rate in 0.02f64..0.20,
        seed in 0u64..1000,
    ) {
        let healthy = if express {
            express_mesh(
                MeshSpec {
                    width: w,
                    height: h,
                    core_spacing_mm: 1.0,
                    base_tech: LinkTechnology::Electronic,
                    capacity: Gbps::new(50.0),
                },
                ExpressSpec { span: 3, tech: LinkTechnology::Hyppi },
            )
        } else {
            grid(w, h)
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
        let m = SyntheticPattern::Uniform.matrix(&topo, rate);
        let (warmup, measure) = (100, 400);

        // Single-shard engine: plain vs fully probed.
        let plain = Simulator::new(&topo, &routes, cfg)
            .run_synthetic(&m, warmup, measure, seed)
            .expect("plain run completes");
        let mut rec = (MetricsSampler::new(50), PacketTracer::new(100_000));
        let probed = Simulator::new(&topo, &routes, cfg)
            .run_synthetic_probed(&m, warmup, measure, seed, &mut rec)
            .expect("probed run completes");
        prop_assert_eq!(&probed, &plain);

        // Probe liveness: delivered packets must leave a trail. (The
        // sampler flushes on interval boundaries, so the final partial
        // interval is not in the sum — bound it, don't equate it.)
        if plain.all.count > 0 {
            let sampler = &rec.0;
            prop_assert!(!sampler.samples().is_empty());
            let injected: u64 = sampler.samples().iter().map(|s| s.injected).sum();
            prop_assert!(injected > 0 && injected <= plain.flits_injected);
            let delivered: u64 = sampler.samples().iter().map(|s| s.delivered).sum();
            prop_assert!(delivered <= plain.flits_delivered);
            let tracer = &rec.1;
            prop_assert!(
                tracer.events().any(|e| e.kind == PacketEventKind::Inject)
            );
            prop_assert!(
                tracer.events().any(|e| e.kind == PacketEventKind::Eject)
            );
        }

        // Sharded engine (its probed runs force a single worker): the
        // same bit-for-bit contract, and sharded probed == P=1 plain.
        let mut rec2 = (MetricsSampler::new(50), PacketTracer::new(100_000));
        let sharded_probed =
            ShardedSimulator::new(&topo, &routes, cfg, ShardSpec { sx: 2, sy: 1 })
                .run_synthetic_probed(&m, warmup, measure, seed, &mut rec2)
                .expect("sharded probed run completes");
        prop_assert_eq!(&sharded_probed, &plain);

        // The sharded run's sampler sees the same traffic (modulo the
        // unflushed final partial interval).
        if plain.all.count > 0 {
            let sampler = &rec2.0;
            let injected: u64 = sampler.samples().iter().map(|s| s.injected).sum();
            prop_assert!(injected > 0 && injected <= plain.flits_injected);
        }
    }
}

/// Engine self-profiling accounts the superstep phases without touching
/// statistics, including on multi-worker runs.
#[test]
fn profiled_run_matches_plain_and_accounts_phases() {
    let topo = grid(8, 8);
    let routes = RoutingTable::compute_xy(&topo);
    let cfg = SimConfig::paper();
    let m = SyntheticPattern::Uniform.matrix(&topo, 0.10);
    let plain = ShardedSimulator::new(&topo, &routes, cfg, ShardSpec::quadrants())
        .run_synthetic(&m, 100, 400, 7)
        .expect("plain run completes");
    let (profiled, prof) = ShardedSimulator::new(&topo, &routes, cfg, ShardSpec::quadrants())
        .run_synthetic_profiled(&m, 100, 400, 7)
        .expect("profiled run completes");
    assert_eq!(profiled, plain);
    assert_eq!(prof.workers, 4);
    assert!(prof.supersteps > 0);
    // Phases were actually timed: a 500+ cycle 4-shard run cannot take
    // zero accounted nanoseconds.
    assert!(prof.total_ns() > 0);
    // Barriers exist on a multi-shard run.
    assert!(prof.barrier_ns > 0);
    let f = prof.fraction(prof.step_ns)
        + prof.fraction(prof.exchange_ns)
        + prof.fraction(prof.barrier_ns);
    assert!((f - 1.0).abs() < 1e-9);
}
