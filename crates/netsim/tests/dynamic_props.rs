//! Property tests for the dynamic-traffic and multi-tenancy subsystems.
//!
//! Two families:
//!
//! 1. **Burst modulation is mean-preserving.** The ON/OFF and MMPP
//!    factor processes are constructed with stationary mean exactly 1,
//!    so a bursty run offers the same long-run load as the steady run it
//!    modulates — only the clustering changes. Checked both at the
//!    traffic layer (slot-average of the pure factor function over
//!    random seeds and burstiness levels) and through the engine (the
//!    injected-flit count of a bursty synthetic run tracks the steady
//!    run's within sampling noise).
//! 2. **Per-tenant lanes partition the aggregate, per cycle.** Under
//!    manual stepping with a tenant map attached, the summed per-tenant
//!    counters (injected, delivered, accepted, completed packets,
//!    latency mass) must equal the aggregate `SimStats` at *every* cycle
//!    boundary — not just at run end — for arbitrary packet schedules,
//!    including cross-tile pairs the synthetic tenant matrices never
//!    generate.
//! 3. **Disjoint XY tiles are isolated.** Tenant traffic stays inside
//!    its rectangle and XY routes between two points of a rectangle stay
//!    inside it, so tenants share no router and no link; with injection
//!    drawn per (seed, node, cycle), a tenant's lane is bit-identical
//!    whatever its neighbour offers.

use hyppi_netsim::{ShardedSimulator, SimConfig, SimStats, Simulator};
use hyppi_phys::{Gbps, LinkTechnology};
use hyppi_topology::{mesh, MeshSpec, NodeId, RoutingTable, ShardSpec, Topology};
use hyppi_traffic::{
    BurstSpec, SyntheticPattern, TenantSpec, TenantWorkload, TrafficMatrix, BURST_SLOT_CYCLES,
};
use proptest::prelude::*;

fn grid(w: u16, h: u16) -> Topology {
    mesh(MeshSpec {
        width: w,
        height: h,
        core_spacing_mm: 1.0,
        base_tech: LinkTechnology::Electronic,
        capacity: Gbps::new(50.0),
    })
}

fn uniform(topo: &Topology, rate: f64) -> TrafficMatrix {
    let n = topo.num_nodes();
    let mut m = TrafficMatrix::zero(n);
    let per_pair = rate / (n - 1) as f64;
    for s in topo.nodes() {
        for d in topo.nodes() {
            if s != d {
                m.set(s, d, per_pair);
            }
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The pure factor function's slot average converges to 1 for random
    /// seeds and burstiness levels — so `rate × factor` offers the
    /// configured mean rate in the long run, for both modulators.
    #[test]
    fn factor_process_is_mean_one(
        onoff in prop_oneof![Just(true), Just(false)],
        burstiness in 1.5f64..6.0,
        seed in 0u64..(1u64 << 48),
        node in 0usize..64,
    ) {
        let spec = if onoff {
            BurstSpec::onoff(burstiness)
        } else {
            BurstSpec::mmpp(burstiness)
        };
        let slots = 60_000u64;
        let mean: f64 = (0..slots)
            .map(|s| spec.factor_at(seed, node, s * BURST_SLOT_CYCLES))
            .sum::<f64>()
            / slots as f64;
        prop_assert!(
            (mean - 1.0).abs() < 0.08,
            "{spec}: long-run factor mean {mean} drifted from 1 (seed {seed})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Through the engine: a bursty synthetic run injects the same
    /// long-run flit volume as the steady run it modulates, within
    /// sampling noise. Burstiness is capped so `rate × factor` stays
    /// below 1 and the mean is never clamp-biased.
    #[test]
    fn bursty_offered_rate_matches_steady(
        onoff in prop_oneof![Just(true), Just(false)],
        burstiness in prop_oneof![Just(2.0f64), Just(3.0), Just(4.0)],
        seed in 0u64..10_000,
    ) {
        let topo = grid(6, 6);
        let routes = RoutingTable::compute_xy(&topo);
        let m = uniform(&topo, 0.05);
        let steady = Simulator::new(&topo, &routes, SimConfig::paper())
            .run_synthetic(&m, 100, 4000, seed)
            .expect("steady run completes");
        let mut cfg = SimConfig::paper();
        cfg.burst = if onoff {
            BurstSpec::onoff(burstiness)
        } else {
            BurstSpec::mmpp(burstiness)
        };
        let bursty = Simulator::new(&topo, &routes, cfg)
            .run_synthetic(&m, 100, 4000, seed)
            .expect("bursty run completes");
        let ratio = bursty.flits_injected as f64 / steady.flits_injected as f64;
        prop_assert!(
            (ratio - 1.0).abs() < 0.25,
            "{}: injected {} vs steady {} (ratio {ratio:.3}, seed {seed})",
            cfg.burst, bursty.flits_injected, steady.flits_injected
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Per-tenant conservation under manual stepping: at every cycle
    /// boundary the summed tenant lanes equal the aggregate — injected,
    /// delivered, accepted flits, completed packets and latency mass.
    /// Packets are arbitrary (src, dst) pairs, so cross-tile traffic
    /// (which the tenant matrices never generate, but the engine must
    /// still attribute consistently) is exercised too.
    #[test]
    fn tenant_lanes_partition_aggregate_each_cycle(
        packets in proptest::collection::vec(
            (0u64..300, 0u16..36, 0u16..36, prop_oneof![Just(1u32), Just(32u32)]),
            1..40,
        ),
        closed in prop_oneof![Just(false), Just(true)],
    ) {
        let topo = grid(6, 6);
        let routes = RoutingTable::compute_xy(&topo);
        let spec = TenantSpec::pair(
            TenantWorkload { pattern: SyntheticPattern::Hotspot, rate: 0.06 },
            TenantWorkload { pattern: SyntheticPattern::Uniform, rate: 0.08 },
        );
        let map = spec.map(&topo);
        let cfg = if closed {
            SimConfig::paper_closed_loop(4)
        } else {
            SimConfig::paper()
        };
        let mut events: Vec<(u64, NodeId, NodeId, u32)> = packets
            .into_iter()
            .map(|(cycle, s, d, flits)| (cycle, NodeId(s), NodeId(d), flits))
            .filter(|e| e.1 != e.2)
            .collect();
        prop_assume!(!events.is_empty());
        events.sort_by_key(|e| e.0);

        let mut sim = Simulator::new(&topo, &routes, cfg).with_tenants(&map);
        let mut next = 0usize;
        let mut now = 0u64;
        loop {
            while next < events.len() && events[next].0 <= now {
                let (cycle, src, dst, flits) = events[next];
                sim.admit(src, dst, flits, cycle.max(now));
                next += 1;
            }
            sim.step(now);
            let stats = sim.stats();
            prop_assert_eq!(stats.tenants.len(), 2);
            let inj: u64 = stats.tenants.iter().map(|t| t.flits_injected).sum();
            let del: u64 = stats.tenants.iter().map(|t| t.flits_delivered).sum();
            let acc: u64 = stats.tenants.iter().map(|t| t.accepted_flits).sum();
            let cnt: u64 = stats.tenants.iter().map(|t| t.latency.count).sum();
            let sum: u64 = stats.tenants.iter().map(|t| t.latency.sum).sum();
            prop_assert_eq!(inj, stats.flits_injected);
            prop_assert_eq!(del, stats.flits_delivered);
            prop_assert_eq!(acc, stats.accepted_flits);
            prop_assert_eq!(cnt, stats.all.count);
            prop_assert_eq!(sum, stats.all.sum);
            now += 1;
            if next == events.len() && sim.pending_packets() == 0 && sim.in_network_flits() == 0 {
                break;
            }
            prop_assert!(now < 200_000, "single-stepped run did not drain");
        }
        // The partition is non-trivial: with sources on both halves of
        // the mesh, both lanes carry traffic.
        let stats = sim.stats();
        if events.iter().any(|e| map.tenant_of(e.1) == 0)
            && events.iter().any(|e| map.tenant_of(e.1) == 1)
        {
            prop_assert!(stats.tenants.iter().all(|t| t.flits_injected > 0));
        }
    }
}

/// A hotspot victim at 0.08 beside a uniform aggressor on a 16×16 mesh:
/// the victim's lane must not move as the aggressor goes from idle to
/// saturated, at P=1 and at P=4.
#[test]
fn disjoint_tenants_are_isolated() {
    let topo = grid(16, 16);
    let routes = RoutingTable::compute_xy(&topo);
    let spec = TenantSpec::pair(
        TenantWorkload {
            pattern: SyntheticPattern::Hotspot,
            rate: 0.08,
        },
        TenantWorkload {
            pattern: SyntheticPattern::Uniform,
            rate: 0.0,
        },
    );
    let map = spec.map(&topo);
    let victim = |shards: usize, aggressor: f64| {
        let m = spec.with_rate(1, aggressor).matrix(&topo);
        let stats: SimStats = if shards == 1 {
            Simulator::new(&topo, &routes, SimConfig::paper())
                .with_tenants(&map)
                .run_synthetic(&m, 300, 1200, 7)
        } else {
            ShardedSimulator::new(
                &topo,
                &routes,
                SimConfig::paper(),
                ShardSpec::for_count(shards),
            )
            .with_tenants(&map)
            .run_synthetic(&m, 300, 1200, 7)
        }
        .expect("run completes");
        (stats.tenants[0].clone(), stats.tenants[1].flits_injected)
    };
    let (quiet, quiet_aggressor) = victim(1, 0.02);
    assert!(quiet.latency.count > 0, "the victim lane is empty");
    for shards in [1, 4] {
        for aggressor in [0.02, 0.16, 0.40] {
            let (lane, aggressor_flits) = victim(shards, aggressor);
            assert_eq!(
                lane, quiet,
                "victim moved: P={shards}, aggressor at {aggressor}"
            );
            if aggressor > 0.02 {
                assert!(
                    aggressor_flits > quiet_aggressor,
                    "the aggressor did not load up"
                );
            }
        }
    }
}
