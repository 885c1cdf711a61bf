//! Property tests for the closed-loop injection subsystem.
//!
//! Three families of invariants, per the PR-4 issue:
//!
//! 1. **Packet conservation** — at every sampled cycle of a manually
//!    stepped run, flits injected = flits ejected + flits in the network
//!    (the in-network gauge is computed from buffer occupancy and the
//!    link calendar, independently of the injection counter).
//! 2. **Window discipline** — no source ever exceeds its
//!    `max_outstanding` window, live (sampled every cycle) and in the
//!    recorded `peak_outstanding` statistics.
//! 3. **Accepted ≤ offered** — closed-loop accepted throughput never
//!    exceeds the open-loop offered load at the same rate, across seeds ×
//!    patterns × windows.
//!
//! Plus the PR's acceptance pin: on the paper's 16×16 mesh the
//! closed-loop accepted-load curve flattens at ≈0.247 flits/node/cycle —
//! the open-loop saturation point found in PR 2 — while the open-loop
//! run keeps tracking its rising offered load.

use hyppi::prelude::*;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Conservation + window bound, sampled at every cycle of a manually
    /// stepped closed-loop run over an arbitrary packet mix.
    #[test]
    fn conservation_holds_at_every_cycle(
        (w, h) in (3u16..=6, 3u16..=6),
        window in 1usize..=6,
        packets in proptest::collection::vec(
            (0u64..300, 0u16..64, 0u16..64, prop_oneof![Just(1u32), Just(32u32)]),
            1..40,
        ),
    ) {
        let topo = grid(w, h);
        let n = w * h;
        let mut events: Vec<TraceEvent> = packets
            .into_iter()
            .map(|(cycle, s, d, flits)| TraceEvent {
                cycle,
                src: NodeId(s % n),
                dst: NodeId(d % n),
                flits,
            })
            .filter(|e| e.src != e.dst)
            .collect();
        prop_assume!(!events.is_empty());
        events.sort_by_key(|e| e.cycle);
        let total_flits: u64 = events.iter().map(|e| u64::from(e.flits)).sum();
        let total_packets = events.len() as u64;

        let routes = RoutingTable::compute_xy(&topo);
        let mut sim = Simulator::new(&topo, &routes, SimConfig::paper_closed_loop(window));
        let mut next = 0usize;
        let mut now = 0u64;
        loop {
            while next < events.len() && events[next].cycle <= now {
                let e = events[next];
                sim.admit(e.src, e.dst, e.flits, e.cycle);
                next += 1;
            }
            sim.step(now);
            // Conservation: the NIC emission counter equals ejections
            // plus what the buffers and the link calendar still hold.
            let s = sim.stats();
            prop_assert!(
                s.flits_injected == s.flits_delivered + sim.in_network_flits(),
                "conservation violated at cycle {}: injected {}, delivered {}, in-network {}",
                now, s.flits_injected, s.flits_delivered, sim.in_network_flits()
            );
            // Window: live occupancy never exceeds the configured cap.
            for (node, &o) in sim.outstanding_packets().iter().enumerate() {
                prop_assert!(
                    (o as usize) <= window,
                    "node {} at {} outstanding, window {}",
                    node, o, window
                );
            }
            now += 1;
            if next == events.len()
                && sim.pending_packets() == 0
                && sim.in_network_flits() == 0
            {
                break;
            }
            prop_assert!(now < 500_000, "run did not drain");
        }
        // Everything admitted was delivered exactly once.
        let s = sim.stats();
        prop_assert_eq!(s.flits_delivered, total_flits);
        prop_assert_eq!(s.flits_injected, total_flits);
        prop_assert_eq!(s.all.count, total_packets);
        // The recorded peaks respect the window too.
        prop_assert!(s.peak_outstanding.iter().all(|&o| (o as usize) <= window));
    }
}

proptest! {
    // Each case runs two full synthetic simulations; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Closed-loop accepted throughput never exceeds the open-loop
    /// offered load at the same rate (modulo Bernoulli sampling noise),
    /// across seeds × patterns × windows; and the window statistics stay
    /// disciplined in both modes.
    #[test]
    fn closed_loop_accepted_bounded_by_offered(
        seed in 0u64..1000,
        window_i in 0usize..3,
        pattern_i in 0usize..3,
    ) {
        let window = [1usize, 4, 16][window_i];
        let pattern = [
            SyntheticPattern::Uniform,
            SyntheticPattern::Transpose,
            SyntheticPattern::Hotspot,
        ][pattern_i];
        let topo = grid(6, 6);
        let routes = RoutingTable::compute_xy(&topo);
        let rate = 0.25;
        let m = pattern.matrix(&topo, rate);
        let (warmup, measure) = (100u64, 500u64);
        let closed = Simulator::new(&topo, &routes, SimConfig::paper_closed_loop(window))
            .run_synthetic(&m, warmup, measure, seed)
            .expect("closed-loop run completes");
        let open = Simulator::new(&topo, &routes, SimConfig::paper())
            .run_synthetic(&m, warmup, measure, seed)
            .expect("open-loop run completes");
        let nodes = topo.num_nodes();
        let acc_closed = closed.accepted_throughput(nodes, measure);
        let acc_open = open.accepted_throughput(nodes, measure);
        // Accepted load cannot beat the offered (arrival) rate…
        prop_assert!(
            acc_closed <= rate * 1.10 + 0.02,
            "accepted {} vs offered {}",
            acc_closed, rate
        );
        // …nor the open-loop network, which the window can only throttle.
        prop_assert!(
            acc_closed <= acc_open * 1.05 + 0.02,
            "closed {} vs open {}",
            acc_closed, acc_open
        );
        // Window bookkeeping: bounded closed-loop, untracked open-loop.
        prop_assert!(closed.peak_outstanding.iter().all(|&o| (o as usize) <= window));
        prop_assert!(open.peak_outstanding.iter().all(|&o| o == 0));
        // Identical seeds admit the identical Bernoulli stream, so every
        // admitted packet completes in both modes.
        prop_assert_eq!(closed.flits_injected, open.flits_injected);
    }
}

/// The PR's acceptance pin: a closed-loop uniform sweep on the paper's
/// 16×16 mesh flattens its accepted load at ≈0.247 flits/node/cycle (the
/// PR-2 open-loop saturation point) while the open-loop run keeps
/// tracking its rising offered load past the knee.
#[test]
fn accepted_load_flattens_at_the_open_loop_saturation_point() {
    let topo = mesh(MeshSpec::paper(LinkTechnology::Electronic));
    let routes = RoutingTable::compute_xy(&topo);
    let gen = |r: f64| SyntheticPattern::Uniform.matrix(&topo, r);
    let cfg = SweepConfig {
        warmup: 300,
        measure: 1200,
        seeds: vec![11],
        ..SweepConfig::paper()
    };
    let closed = SweepRunner::new(
        &topo,
        &routes,
        SimConfig::paper_closed_loop(hyppi::experiments::CLOSED_LOOP_WINDOW),
        cfg.clone(),
    );
    let open = SweepRunner::new(&topo, &routes, SimConfig::paper(), cfg);

    const KNEE: f64 = 0.247; // PR-2: uniform 16×16 saturation load
    let offered = [0.32, 0.42];
    let points: Vec<_> = offered
        .iter()
        .map(|&r| {
            let p = closed.run_point(&gen(r));
            assert!(p.stable, "closed-loop run at {r} hit the cycle cap");
            p
        })
        .collect();
    let accepted: Vec<f64> = points.iter().map(|p| p.accepted).collect();
    // Flat: pushing offered load 31% higher moves accepted load by < 5%.
    assert!(
        (accepted[0] - accepted[1]).abs() < 0.05 * accepted[0],
        "accepted curve not flat past the knee: {accepted:?}"
    );
    // …and flat *at the open-loop saturation plateau*.
    for (r, a) in offered.iter().zip(&accepted) {
        assert!(
            (a - KNEE).abs() < 0.035,
            "accepted {a} at offered {r} is not the ≈{KNEE} plateau"
        );
    }
    // Open loop, the same offered points keep rising: every admitted
    // packet is eventually delivered, so measured throughput tracks the
    // offered load beyond the knee instead of flattening.
    let p = open.run_point(&gen(offered[1]));
    assert!(p.stable);
    assert!(
        p.throughput > KNEE + 0.1,
        "open-loop measured throughput {} should track offered {}",
        p.throughput,
        offered[1]
    );
    // The closed-loop latency stayed window-bounded (network latency),
    // nothing like the open-loop queueing blow-up at the same load.
    let lat_closed = points[1].mean_latency();
    let lat_open = p.mean_latency();
    assert!(
        lat_closed * 3.0 < lat_open,
        "closed {lat_closed} vs open {lat_open}"
    );
}
