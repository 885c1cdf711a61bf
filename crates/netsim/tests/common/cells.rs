//! The unified parity-cell catalog.
//!
//! Every parity suite (`parity.rs`, `shard_parity.rs`,
//! `snapshot_parity.rs`, `telemetry_parity.rs`) iterates the same cell
//! matrix — topology family × {open, closed} loop × {trace, synthetic}
//! workload, plus VC-count and buffer-depth variants — so a cell added
//! here is pinned across every engine dimension at once: P=1 vs the
//! frozen reference, sharded vs P=1, spliced vs whole, probed vs plain.
//!
//! The topology families:
//!
//! * **plain** — electronic 6×6 mesh, every link 1 cycle;
//! * **express** — electronic 8×4 with 2-cycle optical span-3 express
//!   links (dateline VC discipline, mixed-latency calendar);
//! * **faulted** — the plain mesh with dead links, a degraded span and a
//!   dead router (up*/down* detours + admission drops + baseline
//!   accounting);
//! * **hyppi** — all-optical 8×8 (every link 2 cycles, the paper's
//!   HyPPI latency): every mailbox flit lands two cycles out;
//! * **hyppi-faulted** — the all-optical mesh with faults sitting on the
//!   default shard-cut lines (degraded cut links mail their flits with
//!   the raised latency).
//!
//! Keep the meshes small: four suites iterate the full matrix in debug
//! mode under `cargo test -q`.

use hyppi_netsim::{
    Engine, MetricsSampler, PacketTracer, ReferenceSimulator, RunOutcome, ShardedSimulator,
    SimConfig, SimError, SimStats, Simulator,
};
use hyppi_phys::{Gbps, LinkTechnology};
use hyppi_topology::{
    express_mesh, mesh, ExpressSpec, FaultSpec, MeshSpec, NodeId, RoutingTable, ShardSpec, Topology,
};
use hyppi_traffic::{BurstSpec, SyntheticPattern, Trace, TraceEvent, TrafficMatrix};

/// Synthetic warm-up cycles used by every synthetic cell.
pub const WARMUP: u64 = 100;
/// Synthetic measured injection cycles used by every synthetic cell.
pub const MEASURE: u64 = 400;

/// Plain electronic mesh (1-cycle links).
pub fn plain_mesh(w: u16, h: u16) -> Topology {
    mesh(MeshSpec {
        width: w,
        height: h,
        core_spacing_mm: 1.0,
        base_tech: LinkTechnology::Electronic,
        capacity: Gbps::new(50.0),
    })
}

/// Electronic mesh with 2-cycle optical express links.
pub fn express(w: u16, h: u16, span: u16) -> Topology {
    express_mesh(
        MeshSpec {
            width: w,
            height: h,
            core_spacing_mm: 1.0,
            base_tech: LinkTechnology::Electronic,
            capacity: Gbps::new(50.0),
        },
        ExpressSpec {
            span,
            tech: LinkTechnology::Hyppi,
        },
    )
}

/// All-optical mesh: every link is a 2-cycle HyPPI link.
pub fn hyppi_mesh(w: u16, h: u16) -> Topology {
    mesh(MeshSpec {
        width: w,
        height: h,
        core_spacing_mm: 1.0,
        base_tech: LinkTechnology::Hyppi,
        capacity: Gbps::new(50.0),
    })
}

/// Deterministic pseudo-random trace (packet mix of 1- and 32-flit
/// packets, bursty cycles, idle gaps) derived from `seed` via SplitMix64
/// so the fixture is reproducible without an RNG dependency. This is the
/// generator family every parity suite historically rolled by hand.
pub fn fixture_trace(topo: &Topology, seed: u64, packets: usize) -> Trace {
    let n = topo.num_nodes() as u64;
    let mut z = seed;
    let mut next = move || {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = z;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    };
    let mut events = Vec::with_capacity(packets);
    let mut cycle = 0u64;
    for _ in 0..packets {
        // Mostly dense bursts, occasionally a long idle gap (exercises
        // the idle fast-forward path).
        cycle += match next() % 10 {
            0 => 500 + next() % 2000,
            1..=4 => 0,
            _ => next() % 4,
        };
        let src = next() % n;
        let mut dst = next() % n;
        if dst == src {
            dst = (dst + 1) % n;
        }
        events.push(TraceEvent {
            cycle,
            src: NodeId(src as u16),
            dst: NodeId(dst as u16),
            flits: if next() % 3 == 0 { 32 } else { 1 },
        });
    }
    Trace::new("parity cell", topo.num_nodes() as u16, 0.0, events)
}

/// Uniform-random synthetic matrix at a fixed per-node rate.
pub fn uniform_matrix(topo: &Topology, rate: f64) -> TrafficMatrix {
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

/// Workload dimension of the cell matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CellWorkload {
    /// SplitMix64 fixture trace.
    Trace { seed: u64, packets: usize },
    /// Bernoulli synthetic injection over a pattern's matrix.
    Synthetic {
        pattern: SyntheticPattern,
        rate: f64,
        seed: u64,
    },
}

/// One fully-built parity cell: topology (faults applied), routes, the
/// healthy baseline when faulted, the loop config, and the workload.
pub struct Cell {
    /// `family/loop/workload`, e.g. `"hyppi/closed/trace"`.
    pub name: String,
    /// The simulated topology (faults applied when the cell is faulted).
    pub topo: Topology,
    /// Routes for `topo` (fault-avoiding up*/down* when faulted).
    pub routes: RoutingTable,
    /// The healthy topology + XY routes the faults were applied to;
    /// `None` on healthy cells.
    pub baseline: Option<(Topology, RoutingTable)>,
    /// Engine configuration: Table II, open- or closed-loop, bursty, or
    /// with another VC count and buffer depth.
    pub cfg: SimConfig,
    pub workload: CellWorkload,
}

/// The shard grids every sharded suite pins cells on: vertical halves,
/// the default quadrants, and a finer column split.
pub const GRIDS: [ShardSpec; 3] = [
    ShardSpec { sx: 2, sy: 1 },
    ShardSpec { sx: 2, sy: 2 },
    ShardSpec { sx: 4, sy: 2 },
];

impl Cell {
    /// The cell's trace (trace cells only).
    pub fn trace(&self) -> Option<Trace> {
        match self.workload {
            CellWorkload::Trace { seed, packets } => Some(fixture_trace(&self.topo, seed, packets)),
            CellWorkload::Synthetic { .. } => None,
        }
    }

    /// The cell's traffic matrix and seed (synthetic cells only).
    pub fn matrix(&self) -> Option<(TrafficMatrix, u64)> {
        match self.workload {
            CellWorkload::Synthetic {
                pattern,
                rate,
                seed,
            } => {
                let m = match pattern {
                    SyntheticPattern::Uniform => uniform_matrix(&self.topo, rate),
                    _ => pattern.matrix(&self.topo, rate),
                };
                Some((m, seed))
            }
            CellWorkload::Trace { .. } => None,
        }
    }

    /// Builds the P=1 engine for this cell (baseline installed).
    pub fn single(&self) -> Simulator<'_> {
        let sim = Simulator::new(&self.topo, &self.routes, self.cfg);
        match &self.baseline {
            Some((h, hr)) => sim.with_baseline(h, hr),
            None => sim,
        }
    }

    /// Builds the sharded engine for this cell (baseline installed).
    pub fn sharded(&self, spec: ShardSpec, threads: usize) -> ShardedSimulator<'_> {
        let sim =
            ShardedSimulator::new(&self.topo, &self.routes, self.cfg, spec).with_threads(threads);
        match &self.baseline {
            Some((h, hr)) => sim.with_baseline(h, hr),
            None => sim,
        }
    }

    /// Builds the frozen reference engine for this cell (baseline
    /// installed).
    pub fn reference(&self) -> ReferenceSimulator<'_> {
        let sim = ReferenceSimulator::new(&self.topo, &self.routes, self.cfg);
        match &self.baseline {
            Some((h, hr)) => sim.with_baseline(h, hr),
            None => sim,
        }
    }

    /// Runs the cell's workload to completion on `sim` (either engine
    /// name), returning the run's error instead of panicking.
    pub fn try_run<const ONE_SHARD: bool>(
        &self,
        sim: Engine<'_, ONE_SHARD>,
    ) -> Result<SimStats, SimError> {
        match self.workload {
            CellWorkload::Trace { .. } => sim.run_trace(&self.trace().expect("trace cell")),
            CellWorkload::Synthetic { .. } => {
                let (m, seed) = self.matrix().expect("synthetic cell");
                sim.run_synthetic(&m, WARMUP, MEASURE, seed)
            }
        }
    }

    /// Runs the cell's workload on `sim` until it drains or reaches the
    /// cycle boundary `stop_at`.
    pub fn run_until<const ONE_SHARD: bool>(
        &self,
        sim: Engine<'_, ONE_SHARD>,
        stop_at: u64,
    ) -> Result<RunOutcome, SimError> {
        match self.workload {
            CellWorkload::Trace { .. } => {
                sim.run_trace_until(&self.trace().expect("trace cell"), stop_at)
            }
            CellWorkload::Synthetic { .. } => {
                let (m, seed) = self.matrix().expect("synthetic cell");
                sim.run_synthetic_until(&m, WARMUP, MEASURE, seed, stop_at)
            }
        }
    }

    /// [`Self::try_run`] on the frozen reference engine.
    pub fn try_reference(&self) -> Result<SimStats, SimError> {
        let sim = self.reference();
        match self.workload {
            CellWorkload::Trace { .. } => sim.run_trace(&self.trace().expect("trace cell")),
            CellWorkload::Synthetic { .. } => {
                let (m, seed) = self.matrix().expect("synthetic cell");
                sim.run_synthetic(&m, WARMUP, MEASURE, seed)
            }
        }
    }

    /// [`Self::run_until`] on the frozen reference engine.
    pub fn reference_until(&self, stop_at: u64) -> Result<RunOutcome, SimError> {
        let sim = self.reference();
        match self.workload {
            CellWorkload::Trace { .. } => {
                sim.run_trace_until(&self.trace().expect("trace cell"), stop_at)
            }
            CellWorkload::Synthetic { .. } => {
                let (m, seed) = self.matrix().expect("synthetic cell");
                sim.run_synthetic_until(&m, WARMUP, MEASURE, seed, stop_at)
            }
        }
    }

    /// Runs the cell on the P=1 production engine.
    pub fn run_single(&self) -> SimStats {
        self.try_run(self.single()).expect("P=1 run completes")
    }

    /// Runs the cell on the frozen reference engine.
    pub fn run_reference(&self) -> SimStats {
        self.try_reference().expect("reference run completes")
    }

    /// Runs the cell on the sharded engine.
    pub fn run_sharded(&self, spec: ShardSpec, threads: usize) -> SimStats {
        self.try_run(self.sharded(spec, threads))
            .expect("sharded run completes")
    }

    /// Runs the cell on the engine `build` makes, pausing at `stop_at`
    /// and resuming the snapshot on a fresh instance — the mid-run
    /// splice every snapshot suite pins.
    fn spliced<'c, const ONE_SHARD: bool>(
        &'c self,
        build: impl Fn() -> Engine<'c, ONE_SHARD>,
        stop_at: u64,
    ) -> SimStats {
        let snap = match self
            .run_until(build(), stop_at)
            .expect("bounded run completes")
        {
            RunOutcome::Finished(stats) => return stats,
            RunOutcome::Paused(snap) => snap,
        };
        match self.workload {
            CellWorkload::Trace { .. } => {
                build().resume_trace(&snap, &self.trace().expect("trace cell"))
            }
            CellWorkload::Synthetic { .. } => {
                let (m, seed) = self.matrix().expect("synthetic cell");
                build().resume_synthetic(&snap, &m, WARMUP, MEASURE, seed)
            }
        }
        .expect("resumed run completes")
    }

    /// [`Self::spliced`] on the sharded engine.
    pub fn run_sharded_spliced(&self, spec: ShardSpec, threads: usize, stop_at: u64) -> SimStats {
        self.spliced(|| self.sharded(spec, threads), stop_at)
    }

    /// [`Self::spliced`] on the P=1 engine.
    pub fn run_single_spliced(&self, stop_at: u64) -> SimStats {
        self.spliced(|| self.single(), stop_at)
    }

    /// Runs the cell on `sim` with a metrics sampler and a packet tracer
    /// attached, returning the stats and both probes.
    fn probed<const ONE_SHARD: bool>(
        &self,
        sim: Engine<'_, ONE_SHARD>,
    ) -> (SimStats, (MetricsSampler, PacketTracer)) {
        let mut rec = (MetricsSampler::new(50), PacketTracer::new(100_000));
        let stats = match self.workload {
            CellWorkload::Trace { .. } => {
                sim.run_trace_probed(&self.trace().expect("trace cell"), &mut rec)
            }
            CellWorkload::Synthetic { .. } => {
                let (m, seed) = self.matrix().expect("synthetic cell");
                sim.run_synthetic_probed(&m, WARMUP, MEASURE, seed, &mut rec)
            }
        };
        (stats.expect("probed run completes"), rec)
    }

    /// [`Self::probed`] on the P=1 engine.
    pub fn run_single_probed(&self) -> (SimStats, (MetricsSampler, PacketTracer)) {
        self.probed(self.single())
    }

    /// [`Self::probed`] on the sharded engine (probed sharded runs are
    /// forced single-worker).
    pub fn run_sharded_probed(
        &self,
        spec: ShardSpec,
    ) -> (SimStats, (MetricsSampler, PacketTracer)) {
        self.probed(self.sharded(spec, 0))
    }
}

/// Fault set for the electronic 6×6 mesh: two dead spans, a degraded
/// span, and a dead router (admission drops).
fn electronic_faults() -> FaultSpec {
    FaultSpec::none()
        .dead_link(NodeId(14), NodeId(15))
        .degraded_span(NodeId(20), NodeId(26))
        .dead_router(NodeId(28))
}

/// Fault set for the all-optical 8×8 mesh, sitting on the default shard
/// cuts (x = 3↔4 and y = 3↔4 for the quadrant grid): a dead span and a
/// degraded span across the column cut, a dead span across the row cut.
fn hyppi_faults() -> FaultSpec {
    FaultSpec::none()
        .dead_link(NodeId(3 * 8 + 3), NodeId(3 * 8 + 4))
        .degraded_span(NodeId(5 * 8 + 3), NodeId(5 * 8 + 4))
        .dead_link(NodeId(3 * 8 + 5), NodeId(4 * 8 + 5))
}

fn build(
    family: &str,
    healthy: Topology,
    faults: Option<FaultSpec>,
    cfg: SimConfig,
    loop_name: &str,
    workload: CellWorkload,
) -> Cell {
    let wl_name = match workload {
        CellWorkload::Trace { .. } => "trace",
        CellWorkload::Synthetic { .. } => "synthetic",
    };
    let name = format!("{family}/{loop_name}/{wl_name}");
    match faults {
        None => {
            let routes = RoutingTable::compute_xy(&healthy);
            Cell {
                name,
                topo: healthy,
                routes,
                baseline: None,
                cfg,
                workload,
            }
        }
        Some(spec) => {
            let healthy_routes = RoutingTable::compute_xy(&healthy);
            let topo = spec.apply(&healthy);
            let routes =
                RoutingTable::compute_xy_avoiding(&topo).expect("fault set keeps mesh routable");
            Cell {
                name,
                topo,
                routes,
                baseline: Some((healthy, healthy_routes)),
                cfg,
                workload,
            }
        }
    }
}

/// The full cell matrix: 5 topology families × {open, closed(4)} ×
/// {trace, synthetic} = 20 base cells, plus six bursty / hotspot cells
/// and six router-configuration cells.
/// Closed-loop synthetic cells run past the small-mesh knee so NIC
/// windows actually fill.
///
/// The base synthetic cells are uniform; the extra cells pin bursty
/// injection and a non-uniform matrix across every suite:
///
/// * `plain/open/synthetic-onoff` — ON/OFF modulated injection;
/// * `hyppi/open/synthetic-mmpp` — MMPP arrivals over 2-cycle cut
///   links;
/// * `hyppi-faulted/open/synthetic-onoff` — bursty sources while the
///   shard-cut links are faulted (bursty-on-faulted-cut);
/// * `plain/open/hotspot` — a quarter of all traffic aimed at the four
///   corners, so a few ejection ports and the links into them carry
///   most of the load;
/// * `plain/closed/hotspot` — the same pattern under source credits,
///   fast enough that the 4-packet windows fill;
/// * `hyppi/open/hotspot-mmpp` — the hotspot *and* bursty modulation on
///   the all-optical mesh.
///
/// The configuration cells (`<family>/open/<workload>-vc<V>-d<D>`) run
/// V ∈ {1, 2, 8} virtual channels and buffer depths D ∈ {1, 2, 16} on the
/// plain, express and hyppi families; every other cell runs Table II's
/// 4 VCs × 8 flits.
pub fn catalog() -> Vec<Cell> {
    type Family = (&'static str, fn() -> Topology, Option<fn() -> FaultSpec>);
    let families: Vec<Family> = vec![
        ("plain", (|| plain_mesh(6, 6)) as fn() -> Topology, None),
        ("express", || express(8, 4, 3), None),
        ("faulted", || plain_mesh(6, 6), Some(electronic_faults)),
        ("hyppi", || hyppi_mesh(8, 8), None),
        ("hyppi-faulted", || hyppi_mesh(8, 8), Some(hyppi_faults)),
    ];
    let mut cells = Vec::new();
    for (family, mk_topo, mk_faults) in families {
        for (loop_name, cfg, open) in [
            ("open", SimConfig::paper(), true),
            ("closed", SimConfig::paper_closed_loop(4), false),
        ] {
            // Seeds vary per (family, loop) so cells don't share traffic.
            let seed_base = 1000 + cells.len() as u64;
            let rate = if open { 0.08 } else { 0.25 };
            cells.push(build(
                family,
                mk_topo(),
                mk_faults.map(|f| f()),
                cfg,
                loop_name,
                CellWorkload::Trace {
                    seed: seed_base,
                    packets: 400,
                },
            ));
            cells.push(build(
                family,
                mk_topo(),
                mk_faults.map(|f| f()),
                cfg,
                loop_name,
                CellWorkload::Synthetic {
                    pattern: SyntheticPattern::Uniform,
                    rate,
                    seed: seed_base + 1,
                },
            ));
        }
    }

    // Bursty cells: the burst spec rides in `SimConfig`, so every run
    // path (single, reference, sharded, spliced, probed) picks it up
    // with no harness changes.
    let mut onoff_cfg = SimConfig::paper();
    onoff_cfg.burst = BurstSpec::onoff(4.0);
    let mut mmpp_cfg = SimConfig::paper();
    mmpp_cfg.burst = BurstSpec::mmpp(3.0);
    for (family, topo, faults, cfg, suffix) in [
        ("plain", plain_mesh(6, 6), None, onoff_cfg, "onoff"),
        ("hyppi", hyppi_mesh(8, 8), None, mmpp_cfg, "mmpp"),
        (
            "hyppi-faulted",
            hyppi_mesh(8, 8),
            Some(hyppi_faults()),
            onoff_cfg,
            "onoff",
        ),
    ] {
        let seed = 2000 + cells.len() as u64;
        let mut cell = build(
            family,
            topo,
            faults,
            cfg,
            "open",
            CellWorkload::Synthetic {
                pattern: SyntheticPattern::Uniform,
                rate: 0.08,
                seed,
            },
        );
        cell.name = format!("{}-{suffix}", cell.name);
        cells.push(cell);
    }

    // Hotspot cells: the catalog's non-uniform matrices.
    for (family, topo, cfg, loop_name, rate, suffix) in [
        (
            "plain",
            plain_mesh(6, 6),
            SimConfig::paper(),
            "open",
            0.06,
            "hotspot",
        ),
        (
            "plain",
            plain_mesh(6, 6),
            SimConfig::paper_closed_loop(4),
            "closed",
            0.2,
            "hotspot",
        ),
        (
            "hyppi",
            hyppi_mesh(8, 8),
            mmpp_cfg,
            "open",
            0.06,
            "hotspot-mmpp",
        ),
    ] {
        let seed = 2000 + cells.len() as u64;
        let mut cell = build(
            family,
            topo,
            None,
            cfg,
            loop_name,
            CellWorkload::Synthetic {
                pattern: SyntheticPattern::Hotspot,
                rate,
                seed,
            },
        );
        cell.name = format!("{family}/{loop_name}/{suffix}");
        cells.push(cell);
    }

    // Router-configuration cells: VC counts and buffer depths away from
    // Table II's 4 × 8. Eight VCs give a plain-mesh router 40 arbitration
    // slots and a span-3 express router up to 56; express cells keep the
    // dateline's minimum of 2 VCs.
    for (family, topo, vcs, buffer_depth, trace) in [
        ("plain", plain_mesh(6, 6), 1, 1, true),
        ("plain", plain_mesh(6, 6), 8, 2, false),
        ("express", express(8, 4, 3), 2, 16, true),
        ("express", express(8, 4, 3), 8, 1, false),
        ("hyppi", hyppi_mesh(8, 8), 1, 16, false),
        ("hyppi", hyppi_mesh(8, 8), 8, 2, true),
    ] {
        let seed = 3000 + cells.len() as u64;
        let cfg = SimConfig {
            vcs,
            buffer_depth,
            ..SimConfig::paper()
        };
        let workload = if trace {
            CellWorkload::Trace { seed, packets: 400 }
        } else {
            CellWorkload::Synthetic {
                pattern: SyntheticPattern::Uniform,
                rate: 0.08,
                seed,
            }
        };
        let mut cell = build(family, topo, None, cfg, "open", workload);
        cell.name = format!("{}-vc{vcs}-d{buffer_depth}", cell.name);
        cells.push(cell);
    }

    cells
}
