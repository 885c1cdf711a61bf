//! The single-shard name of the engine, plus the run error and outcome
//! types both names share.
//!
//! The engine core — calendar wheel, active node bitsets, SoA flit
//! slab, dirty-list route computation, mask-walk arbitration — lives in
//! [`crate::shard`] as `ShardState`: per-cycle cost scales with the
//! number of in-flight flits, not with network size (the seed engine
//! survives verbatim in [`crate::reference`] as the parity oracle).
//! [`Simulator`] is [`Engine`] at P=1: its `run_*` / `resume_*` /
//! `snapshot` / `restore` methods are the ones written once for
//! [`crate::ShardedSimulator`] too, and with a single shard the mailbox
//! grid and barriers degenerate to no-ops. Only the 3-argument
//! constructor and the manual-stepping API below are its own.
//!
//! Stage order, arbitration order, credit timing, and statistics are
//! bit-for-bit identical to the reference engine; `tests/parity.rs`
//! enforces this across seeds, topologies, and workloads, and
//! `tests/shard_parity.rs` pins the sharded engine against this one.

use crate::config::SimConfig;
use crate::shard::Engine;
use crate::snapshot::{Snapshot, SnapshotError};
use crate::stats::SimStats;
use hyppi_topology::{NodeId, RoutingTable, ShardSpec, Topology};
use hyppi_traffic::Trace;

/// Simulation failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The run exceeded [`SimConfig::max_cycles`] without draining; with a
    /// correct configuration this indicates deadlock or overload.
    CycleLimit {
        /// Packets still incomplete at the limit.
        stuck_packets: u64,
    },
    /// A snapshot could not be restored (see [`SnapshotError`]).
    Snapshot(SnapshotError),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::CycleLimit { stuck_packets } => {
                write!(f, "cycle limit hit with {stuck_packets} packets in flight")
            }
            SimError::Snapshot(e) => write!(f, "snapshot restore failed: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<SnapshotError> for SimError {
    fn from(e: SnapshotError) -> Self {
        SimError::Snapshot(e)
    }
}

/// Result of a bounded run ([`Simulator::run_trace_until`] and friends):
/// either the workload drained before the stop cycle, or the run paused
/// at the stop boundary and handed back a [`Snapshot`] to resume from.
// One RunOutcome exists per bounded run, so the variant-size asymmetry
// (inline SimStats vs a Vec-backed Snapshot) costs nothing worth boxing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum RunOutcome {
    /// The run completed; here are its statistics.
    Finished(SimStats),
    /// The run paused at the requested cycle boundary; resume with the
    /// matching `resume_*` entry point (or persist the snapshot first —
    /// the byte format is stable, see `docs/SNAPSHOT_FORMAT.md`).
    Paused(Snapshot),
}

impl RunOutcome {
    /// Unwraps the completed-run statistics; panics on [`Paused`]
    /// (convenience for `stop_at = u64::MAX` call sites).
    ///
    /// [`Paused`]: RunOutcome::Paused
    pub fn expect_finished(self) -> SimStats {
        match self {
            RunOutcome::Finished(stats) => stats,
            RunOutcome::Paused(_) => panic!("run paused before completing"),
        }
    }

    /// Unwraps the pause snapshot; panics on [`Finished`] (convenience
    /// for call sites that know the workload outlives the stop cycle).
    ///
    /// [`Finished`]: RunOutcome::Finished
    pub fn expect_paused(self) -> Snapshot {
        match self {
            RunOutcome::Finished(_) => panic!("run finished before the stop cycle"),
            RunOutcome::Paused(snap) => snap,
        }
    }
}

/// Trace-event cursor for a snapshot that didn't pin this trace: the
/// first event not yet admitted at the snapshot boundary.
pub(crate) fn rescan_trace_cursor(trace: &Trace, now: u64) -> u64 {
    trace
        .events
        .iter()
        .position(|e| e.cycle >= now)
        .unwrap_or(trace.events.len()) as u64
}

/// The P=1 [`Engine`]: construct once per (topology, routing) pair and
/// run a trace or a synthetic load, or drive it cycle by cycle with the
/// manual-stepping API below.
pub type Simulator<'a> = Engine<'a, true>;

impl<'a> Simulator<'a> {
    /// Builds a simulator. `routes` must have been computed for `topo`
    /// (use [`RoutingTable::compute_xy`] — the deadlock-freedom argument
    /// assumes X-then-Y ordering).
    pub fn new(topo: &'a Topology, routes: &'a RoutingTable, cfg: SimConfig) -> Self {
        Engine::partitioned(topo, routes, cfg, ShardSpec::SINGLE)
    }

    // ---- manual stepping (instrumentation API) --------------------------
    //
    // The `run_*` entry points own the clock, fast-forward idle gaps and
    // consume the simulator. For conservation audits and property tests
    // the engine can instead be driven cycle by cycle: `admit` packets,
    // `step` the clock, and read the gauges between cycles. No
    // fast-forwarding happens here — the caller advances `now` by 1.

    /// Queues a packet at its source NIC for manual stepping. `cycle` is
    /// the admission timestamp used for latency accounting (pass the
    /// current cycle). Mirrors the run loops' admission rule on faulted
    /// topologies: a pair with no route is dropped and counted in
    /// [`SimStats::unreachable_pairs`] instead of being queued.
    pub fn admit(&mut self, src: NodeId, dst: NodeId, flits: u32, cycle: u64) {
        if !self.plan.routes.reachable(src, dst) {
            self.shards[0].stats.unreachable_pairs += 1;
            return;
        }
        self.shards[0].admit(&self.plan, src, dst, flits, cycle);
    }

    /// Runs one simulated cycle (all five pipeline stages plus the
    /// credit drain). Call with a monotonically increasing `now`.
    pub fn step(&mut self, now: u64) {
        self.shards[0].step(&self.plan, now);
    }

    /// The statistics accumulated so far.
    pub fn stats(&self) -> &SimStats {
        &self.shards[0].stats
    }

    /// Flits currently inside the network: buffered in router VCs plus
    /// in flight on links. Together with [`SimStats::flits_injected`] and
    /// [`SimStats::flits_delivered`] this forms an independently checkable
    /// conservation ledger: injected = delivered + in-network, at every
    /// cycle boundary.
    pub fn in_network_flits(&self) -> u64 {
        let shard = &self.shards[0];
        shard.ctl.iter().map(|c| u64::from(c.buffered)).sum::<u64>() + shard.inflight_arrivals
    }

    /// Packets admitted but not yet fully emitted (NIC queues plus
    /// in-progress emissions).
    pub fn pending_packets(&self) -> u64 {
        self.shards[0].pending_sources
    }

    /// Closed-loop window occupancy per node (packets emitted but not yet
    /// fully ejected), node-id indexed. All-zero on open-loop
    /// configurations.
    pub fn outstanding_packets(&self) -> &[u32] {
        &self.shards[0].outstanding
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyppi_phys::{Gbps, LinkTechnology};
    use hyppi_topology::{express_mesh, mesh, ExpressSpec, MeshSpec};
    use hyppi_traffic::TraceEvent;

    fn small_mesh(w: u16, h: u16) -> Topology {
        mesh(MeshSpec {
            width: w,
            height: h,
            core_spacing_mm: 1.0,
            base_tech: LinkTechnology::Electronic,
            capacity: Gbps::new(50.0),
        })
    }

    fn run(topo: &Topology, events: Vec<TraceEvent>) -> SimStats {
        let routes = RoutingTable::compute_xy(topo);
        let trace = Trace::new("test", topo.num_nodes() as u16, 0.0, events);
        Simulator::new(topo, &routes, SimConfig::paper())
            .run_trace(&trace)
            .expect("run completes")
    }

    #[test]
    fn single_flit_zero_load_latency() {
        // 2×1 mesh, one hop: 3 (src router) + 1 (link) + 3 (dst router)
        // = 7 cycles.
        let t = small_mesh(2, 1);
        let stats = run(
            &t,
            vec![TraceEvent {
                cycle: 0,
                src: NodeId(0),
                dst: NodeId(1),
                flits: 1,
            }],
        );
        assert_eq!(stats.all.count, 1);
        assert_eq!(stats.all.max, 7);
        assert_eq!(stats.flits_delivered, 1);
    }

    #[test]
    fn latency_grows_by_four_per_electronic_hop() {
        // Zero-load: each extra hop adds 3 (router) + 1 (link).
        let t = small_mesh(8, 1);
        let lat = |dst: u16| {
            run(
                &t,
                vec![TraceEvent {
                    cycle: 0,
                    src: NodeId(0),
                    dst: NodeId(dst),
                    flits: 1,
                }],
            )
            .all
            .max
        };
        assert_eq!(lat(1), 7);
        assert_eq!(lat(2), 11);
        assert_eq!(lat(7), 31);
    }

    #[test]
    fn data_packet_serialization_latency() {
        // A 32-flit packet: head arrives like a 1-flit packet, tail follows
        // 31 cycles later (1 flit/cycle link bandwidth).
        let t = small_mesh(2, 1);
        let stats = run(
            &t,
            vec![TraceEvent {
                cycle: 0,
                src: NodeId(0),
                dst: NodeId(1),
                flits: 32,
            }],
        );
        assert_eq!(stats.all.count, 1);
        assert_eq!(stats.all.max, 7 + 31);
        assert_eq!(stats.flits_delivered, 32);
    }

    #[test]
    fn optical_express_link_costs_two_cycles() {
        let spec = MeshSpec {
            width: 8,
            height: 1,
            core_spacing_mm: 1.0,
            base_tech: LinkTechnology::Electronic,
            capacity: Gbps::new(50.0),
        };
        let t = express_mesh(
            spec,
            ExpressSpec {
                span: 3,
                tech: LinkTechnology::Hyppi,
            },
        );
        let stats = run(
            &t,
            vec![TraceEvent {
                cycle: 0,
                src: NodeId(0),
                dst: NodeId(3),
                flits: 1,
            }],
        );
        // One express hop: 3 + 2 + 3 = 8 vs 3 regular hops (15).
        assert_eq!(stats.all.max, 8);
    }

    #[test]
    fn all_packets_delivered_under_load() {
        // Saturating burst: every node sends to the opposite corner region.
        let t = small_mesh(4, 4);
        let mut events = Vec::new();
        for s in 0..16u16 {
            for k in 0..8u16 {
                events.push(TraceEvent {
                    cycle: u64::from(k) * 2,
                    src: NodeId(s),
                    dst: NodeId(15 - s),
                    flits: if k % 2 == 0 { 32 } else { 1 },
                });
            }
        }
        let total_flits: u64 = events.iter().map(|e| u64::from(e.flits)).sum();
        let stats = run(&t, events);
        assert_eq!(stats.all.count, 16 * 8);
        assert_eq!(stats.flits_delivered, total_flits);
    }

    #[test]
    fn determinism() {
        let t = small_mesh(4, 4);
        let mk = || {
            let mut events = Vec::new();
            for s in 0..16u16 {
                events.push(TraceEvent {
                    cycle: 0,
                    src: NodeId(s),
                    dst: NodeId((s + 5) % 16),
                    flits: 32,
                });
            }
            events
        };
        let a = run(&t, mk());
        let b = run(&t, mk());
        assert_eq!(a, b);
    }

    #[test]
    fn congestion_increases_latency() {
        let t = small_mesh(4, 1);
        // One packet alone…
        let solo = run(
            &t,
            vec![TraceEvent {
                cycle: 0,
                src: NodeId(0),
                dst: NodeId(3),
                flits: 32,
            }],
        );
        // …vs the same packet competing with cross traffic on the line.
        let mut events = vec![TraceEvent {
            cycle: 0,
            src: NodeId(0),
            dst: NodeId(3),
            flits: 32,
        }];
        for k in 0..6 {
            events.push(TraceEvent {
                cycle: k * 4,
                src: NodeId(1),
                dst: NodeId(3),
                flits: 32,
            });
        }
        let busy = run(&t, events);
        assert!(busy.all.max > solo.all.max);
        assert_eq!(busy.flits_delivered, 32 * 7);
    }

    #[test]
    fn express_mesh_under_all_to_all_drains() {
        // Deadlock regression test: span-5 express (the dip/overshoot case)
        // under all-to-all wormhole traffic.
        let spec = MeshSpec {
            width: 16,
            height: 2,
            core_spacing_mm: 1.0,
            base_tech: LinkTechnology::Electronic,
            capacity: Gbps::new(50.0),
        };
        for span in [3u16, 5, 15] {
            let t = express_mesh(
                spec,
                ExpressSpec {
                    span,
                    tech: LinkTechnology::Hyppi,
                },
            );
            let n = t.num_nodes() as u16;
            let mut events = Vec::new();
            for s in 0..n {
                for k in 1..n {
                    events.push(TraceEvent {
                        cycle: u64::from(k) * 8,
                        src: NodeId(s),
                        dst: NodeId((s + k) % n),
                        flits: 32,
                    });
                }
            }
            let stats = run(&t, events);
            assert_eq!(
                stats.all.count,
                u64::from(n) * u64::from(n - 1),
                "span {span}"
            );
        }
    }

    #[test]
    fn synthetic_injection_measures_only_after_warmup() {
        let t = small_mesh(4, 4);
        let routes = RoutingTable::compute_xy(&t);
        let mut m = hyppi_traffic::TrafficMatrix::zero(16);
        for s in 0..16u16 {
            m.set(NodeId(s), NodeId((s + 3) % 16), 0.05);
        }
        let stats = Simulator::new(&t, &routes, SimConfig::paper())
            .run_synthetic(&m, 200, 800, 42)
            .expect("completes");
        assert!(stats.all.count > 0);
        // Delivered flits include warmup packets; measured count excludes.
        assert!(stats.flits_delivered >= stats.all.count);
    }

    #[test]
    fn fast_forward_skips_idle_gaps() {
        let t = small_mesh(2, 1);
        let stats = run(
            &t,
            vec![
                TraceEvent {
                    cycle: 0,
                    src: NodeId(0),
                    dst: NodeId(1),
                    flits: 1,
                },
                TraceEvent {
                    cycle: 1_000_000,
                    src: NodeId(1),
                    dst: NodeId(0),
                    flits: 1,
                },
            ],
        );
        assert_eq!(stats.all.count, 2);
        // Latency of the late packet is still 7: the gap was skipped, not
        // simulated.
        assert_eq!(stats.all.max, 7);
    }

    #[test]
    #[should_panic(expected = "latencies must be >= 1")]
    fn rejects_zero_latency_links() {
        // The arrival calendar books a flit at `now + latency`; latency 0
        // would land in the bucket stage 1 already drained this cycle and
        // deliver a whole wheel revolution late, silently breaking parity.
        let mut t = hyppi_topology::Topology::empty("zero-lat", 2, 1);
        t.add_bidi(
            NodeId(0),
            NodeId(1),
            hyppi_topology::LinkClass::Regular,
            LinkTechnology::Electronic,
            hyppi_phys::Micrometers::new(1000.0),
            0,
            Gbps::new(50.0),
        );
        let routes = RoutingTable::compute_xy(&t);
        let _ = Simulator::new(&t, &routes, SimConfig::paper());
    }

    #[test]
    #[should_panic(expected = "at least 2 VCs")]
    fn rejects_one_vc_on_a_dateline_mesh() {
        // With one VC the dateline leaves class A none: every source
        // would park and the quiet network would read as drained.
        let (base, tech) = (LinkTechnology::Electronic, LinkTechnology::Hyppi);
        let t = express_mesh(MeshSpec::paper(base), ExpressSpec { span: 3, tech });
        let mut cfg = SimConfig::paper();
        cfg.vcs = 1;
        let _ = Simulator::new(&t, &RoutingTable::compute_xy(&t), cfg);
    }

    #[test]
    fn wheel_covers_every_link_latency() {
        // The calendar's correctness needs wheel length > max link
        // latency; verify on the express mesh (2-cycle optical links).
        let t = express_mesh(
            MeshSpec::paper(LinkTechnology::Electronic),
            ExpressSpec {
                span: 5,
                tech: LinkTechnology::Hyppi,
            },
        );
        let routes = RoutingTable::compute_xy(&t);
        let sim = Simulator::new(&t, &routes, SimConfig::paper());
        let max_lat = t
            .links()
            .iter()
            .map(|l| u64::from(l.latency_cycles))
            .max()
            .unwrap();
        let shard = &sim.shards[0];
        assert!(shard.wheel.len() as u64 > max_lat);
        assert!(shard.wheel.len().is_power_of_two());
    }

    #[test]
    fn active_sets_empty_after_drain() {
        // After a run drains, every active-set structure must be empty —
        // leaked membership would break the idle fast-forward.
        let t = small_mesh(4, 4);
        let routes = RoutingTable::compute_xy(&t);
        let mut sim = Simulator::new(&t, &routes, SimConfig::paper());
        sim.admit(NodeId(0), NodeId(15), 32, 0);
        let mut now = 0;
        while !(sim.in_network_flits() == 0 && sim.pending_packets() == 0) {
            sim.step(now);
            now += 1;
            assert!(now < 10_000, "run did not drain");
        }
        let shard = &sim.shards[0];
        assert!(shard.quiescent());
        assert!(shard.rc_dirty.is_empty());
        assert!(shard.wheel.iter().all(|b| b.is_empty()));
        assert_eq!(shard.inflight_arrivals, 0);
        assert!(shard.ctl.iter().all(|c| c.buffered == 0));
        assert_eq!(shard.stats.flits_delivered, 32);
    }
}
