//! Property tests for bursty injection.
//!
//! **Burst modulation is mean-preserving.** The ON/OFF and MMPP factor
//! processes are constructed with stationary mean exactly 1, so a
//! bursty run offers the same long-run load as the steady run it
//! modulates — only the clustering changes. Checked both at the traffic
//! layer (slot-average of the pure factor function over random seeds
//! and burstiness levels) and through the engine (the injected-flit
//! count of a bursty synthetic run tracks the steady run's within
//! sampling noise).

use hyppi_netsim::{SimConfig, Simulator};
use hyppi_phys::{Gbps, LinkTechnology};
use hyppi_topology::{mesh, MeshSpec, RoutingTable, Topology};
use hyppi_traffic::{BurstSpec, TrafficMatrix, BURST_SLOT_CYCLES};
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
