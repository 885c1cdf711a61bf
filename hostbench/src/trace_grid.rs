//! The trace-driven workloads: a grid of (trace × topology) cells, each
//! run to completion through `run_trace`.
//!
//! * `npb16_fig6` — the paper's Fig. 6 grid: four NPB kernels × {plain
//!   mesh, HyPPI express spans 3/5/15} on 16×16 at P=1. Checked cell by
//!   cell against the frozen `ReferenceSimulator`.
//! * `cg64_hyppi_p2` — the rescaled CG trace on a 64×64 all-HyPPI mesh
//!   through the sharded engine at P=2 (derived W=2 windows, one worker
//!   thread). Checked against the P=1 `Simulator`.

use crate::host;
use crate::symmetry::{self, Symmetry};
use crate::{Layers, Sample, Tally, Workload};
use hyppi_netsim::json::{Json, Obj};
use hyppi_netsim::{
    MetricsSampler, ReferenceSimulator, ShardedSimulator, SimConfig, SimStats, Simulator,
};
use hyppi_phys::{Gbps, LinkTechnology};
use hyppi_topology::{
    express_mesh, mesh, ExpressSpec, MeshSpec, RoutingTable, ShardSpec, Topology,
};
use hyppi_traffic::{NpbKernel, NpbTraceSpec, ScaledNpbSpec, Trace};
use std::time::Instant;

/// Express spans of the Fig. 6 grid; 0 is the plain electronic mesh.
const FIG6_SPANS: [u16; 4] = [0, 3, 5, 15];

/// Which engine the checked outputs come from.
#[derive(Debug, Clone, Copy)]
enum Oracle {
    /// The frozen full-scan `ReferenceSimulator`.
    Reference,
    /// The P=1 active-set `Simulator` (checks a sharded run).
    SingleShard,
}

/// A topology the grid runs on: a `side × side` mesh of `tech` links with
/// optional HyPPI express links of the given span.
#[derive(Debug, Clone, Copy)]
struct TopoSpec {
    side: u16,
    tech: LinkTechnology,
    express: Option<u16>,
}

impl TopoSpec {
    fn build(self) -> Topology {
        let TopoSpec {
            side,
            tech,
            express,
        } = self;
        let spec = MeshSpec {
            width: side,
            height: side,
            core_spacing_mm: 1.0,
            base_tech: tech,
            capacity: Gbps::new(50.0),
        };
        match express {
            None => mesh(spec),
            Some(span) => express_mesh(
                spec,
                ExpressSpec {
                    span,
                    tech: LinkTechnology::Hyppi,
                },
            ),
        }
    }
}

/// A trace generator of the grid.
#[derive(Debug, Clone, Copy)]
enum TraceSpec {
    /// `NpbTraceSpec::paper(kernel).trace_window(phases, volume)`.
    Npb16 {
        kernel: NpbKernel,
        phases: u32,
        volume: f64,
    },
    /// `ScaledNpbSpec::new(kernel, side, side)
    ///     .trace_window_decimated(phases, volume, stride)`.
    Scaled {
        kernel: NpbKernel,
        side: u16,
        phases: u32,
        volume: f64,
        stride: u16,
    },
}

impl TraceSpec {
    fn generate(self) -> Trace {
        match self {
            TraceSpec::Npb16 {
                kernel,
                phases,
                volume,
            } => NpbTraceSpec::paper(kernel).trace_window(phases, volume),
            TraceSpec::Scaled {
                kernel,
                side,
                phases,
                volume,
                stride,
            } => ScaledNpbSpec::new(kernel, side, side)
                .trace_window_decimated(phases, volume, stride),
        }
    }

    fn label(self) -> String {
        match self {
            TraceSpec::Npb16 {
                kernel,
                phases,
                volume,
            } => format!("{kernel} 16x16 phases={phases} volume={volume}"),
            TraceSpec::Scaled {
                kernel,
                side,
                phases,
                volume,
                stride,
            } => format!("{kernel} {side}x{side} phases={phases} volume={volume} stride={stride}"),
        }
    }
}

/// Every trace runs on every topology; cells are ordered trace-major.
pub struct TraceGrid {
    traces: Vec<TraceSpec>,
    topos: Vec<TopoSpec>,
    shards: usize,
    cfg: SimConfig,
    oracle: Oracle,
    sym: Symmetry,
    allowed: usize,
    /// Checked outputs, one per cell.
    expected: Vec<SimStats>,
    /// Event and flit counts of each generated trace (manifest).
    trace_sizes: Vec<(usize, u64)>,
}

impl TraceGrid {
    /// The paper's Fig. 6 grid (see the module docs). CG and MG run their
    /// Fig. 6 `default_window`; FT keeps its window's volume but a
    /// balanced 1-in-8 partner subset of the all-to-all (the decimation
    /// `ScaledNpbSpec::default_window` applies to FT at 32×32, here at the
    /// identity scale), and LU runs 5 of its 20 wavefront phases. That
    /// keeps one reference check plus several timed iterations within a
    /// run.
    pub fn npb16_fig6(seed: u64, smoke: bool) -> Self {
        let window = |kernel| match (smoke, kernel) {
            (_, NpbKernel::Ft) => TraceSpec::Scaled {
                kernel,
                side: 16,
                phases: 1,
                volume: 1.0 / 3.0,
                stride: if smoke { 64 } else { 8 },
            },
            (true, _) => TraceSpec::Npb16 {
                kernel,
                phases: 1,
                volume: 0.05,
            },
            (false, _) => {
                let (phases, volume) = match kernel {
                    NpbKernel::Cg => (4, 0.25),
                    NpbKernel::Mg => (2, 0.25),
                    _ => (5, 1.0),
                };
                TraceSpec::Npb16 {
                    kernel,
                    phases,
                    volume,
                }
            }
        };
        let topos = FIG6_SPANS
            .iter()
            .map(|&span| TopoSpec {
                side: 16,
                tech: LinkTechnology::Electronic,
                express: (span > 0).then_some(span),
            })
            .collect();
        let mut cfg = SimConfig::paper();
        cfg.max_cycles = 2_000_000; // deadlock guard, as in perfcheck
        Self::new(
            NpbKernel::ALL.into_iter().map(window).collect(),
            topos,
            1,
            cfg,
            Oracle::Reference,
            seed,
        )
    }

    /// The 64×64 all-HyPPI CG cell at P=2 (see the module docs).
    pub fn cg64_hyppi_p2(seed: u64, smoke: bool) -> Self {
        let (side, stride) = if smoke { (32, 4) } else { (64, 1) };
        let mut cfg = SimConfig::paper();
        cfg.max_cycles = 20_000_000;
        Self::new(
            vec![TraceSpec::Scaled {
                kernel: NpbKernel::Cg,
                side,
                phases: 1,
                volume: 0.25,
                stride,
            }],
            vec![TopoSpec {
                side,
                tech: LinkTechnology::Hyppi,
                express: None,
            }],
            2,
            cfg,
            Oracle::SingleShard,
            seed,
        )
    }

    fn new(
        traces: Vec<TraceSpec>,
        topos: Vec<TopoSpec>,
        shards: usize,
        cfg: SimConfig,
        oracle: Oracle,
        seed: u64,
    ) -> Self {
        let built: Vec<Topology> = topos.iter().map(|t| t.build()).collect();
        let allowed = symmetry::allowed(&built, shards);
        assert_eq!(allowed.first(), Some(&Symmetry::Identity));
        TraceGrid {
            traces,
            topos,
            shards,
            cfg,
            oracle,
            sym: symmetry::for_seed(&allowed, seed),
            allowed: allowed.len(),
            expected: Vec::new(),
            trace_sizes: Vec::new(),
        }
    }

    /// The seeded trace: generated, then mapped through the symmetry.
    fn seeded_trace(&self, spec: TraceSpec, topo: &Topology) -> Trace {
        self.sym.apply(topo, spec.generate())
    }

    /// The sharded engine, running its superstep protocol on the calling
    /// thread. With one worker per shard, a P=2 run on a 2-thread host has
    /// no slack: any other runnable thread stalls a barrier, and wall time
    /// spread 36% across runs (CPU time 7%).
    fn engine<'a>(&self, topo: &'a Topology, routes: &'a RoutingTable) -> ShardedSimulator<'a> {
        ShardedSimulator::new(topo, routes, self.cfg, ShardSpec::for_count(self.shards))
            .with_threads(1)
    }

    fn matches(&self, tally: &mut Tally, cell: usize, stats: &SimStats, what: &str) {
        tally.check(
            self.expected.get(cell) == Some(stats),
            &format!("{what}: cell {cell} differs from the checked output"),
        );
    }
}

impl Workload for TraceGrid {
    fn threads(&self) -> usize {
        1
    }

    fn inputs(&self) -> Obj {
        let topos: Vec<Json> = self
            .topos
            .iter()
            .map(|t| Json::Str(t.build().name))
            .collect();
        let traces: Vec<Json> = self
            .traces
            .iter()
            .zip(&self.trace_sizes)
            .map(|(t, &(events, flits))| {
                Obj::new()
                    .field("trace", t.label())
                    .field("events", events)
                    .field("flits", flits)
                    .build()
            })
            .collect();
        Obj::new()
            .field("topologies", Json::Arr(topos))
            .field("traces", Json::Arr(traces))
            .field("shards", self.shards)
            .field("sim_config", format!("{:?}", self.cfg))
            .field("symmetry", self.sym.name())
            .field("symmetries_allowed", self.allowed)
            .field(
                "oracle",
                match self.oracle {
                    Oracle::Reference => "ReferenceSimulator",
                    Oracle::SingleShard => "Simulator (P=1)",
                },
            )
    }

    fn check(&mut self, tally: &mut Tally) {
        let topos: Vec<Topology> = self.topos.iter().map(|t| t.build()).collect();
        let routes: Vec<RoutingTable> = topos.iter().map(RoutingTable::compute_xy).collect();
        let mut expected = Vec::new();
        for &spec in &self.traces {
            let trace = self.seeded_trace(spec, &topos[0]);
            self.trace_sizes
                .push((trace.events.len(), trace.total_flits()));
            for (topo, routes) in topos.iter().zip(&routes) {
                let what = format!("{} on {}", spec.label(), topo.name);
                let out = match self.oracle {
                    Oracle::Reference => {
                        ReferenceSimulator::new(topo, routes, self.cfg).run_trace(&trace)
                    }
                    Oracle::SingleShard => Simulator::new(topo, routes, self.cfg).run_trace(&trace),
                };
                let stats = tally.run(&what, out).unwrap_or_default();
                tally.check(
                    stats.flits_injected == stats.flits_delivered && stats.all.count > 0,
                    &format!("{what}: injected flits must all be delivered"),
                );
                expected.push(stats);
            }
        }
        self.expected = expected;
    }

    fn outputs(&self) -> Obj {
        let cells: Vec<Json> = self
            .expected
            .iter()
            .map(|s| {
                Obj::new()
                    .field("mean_latency", s.mean_latency())
                    .field("p99_latency", s.all.p99())
                    .field("cycles", s.cycles)
                    .field("packets", s.all.count)
                    .build()
            })
            .collect();
        Obj::new().field("cells", Json::Arr(cells))
    }

    fn iterate(&self, tally: &mut Tally) -> Sample {
        let mut s = Sample::default();
        let t = Instant::now();
        let topos: Vec<Topology> = self.topos.iter().map(|t| t.build()).collect();
        let routes: Vec<RoutingTable> = topos.iter().map(RoutingTable::compute_xy).collect();
        s.setup_s += t.elapsed().as_secs_f64();
        let mut cell = 0;
        for &spec in &self.traces {
            let t = Instant::now();
            let trace = self.seeded_trace(spec, &topos[0]);
            s.setup_s += t.elapsed().as_secs_f64();
            for (topo, routes) in topos.iter().zip(&routes) {
                let t = Instant::now();
                let out = if self.shards == 1 {
                    let sim = Simulator::new(topo, routes, self.cfg);
                    s.setup_s += t.elapsed().as_secs_f64();
                    let t = Instant::now();
                    let out = sim.run_trace(&trace);
                    s.cycle_s += t.elapsed().as_secs_f64();
                    out
                } else {
                    let sim = self.engine(topo, routes);
                    s.setup_s += t.elapsed().as_secs_f64();
                    let t = Instant::now();
                    let out = sim.run_trace(&trace);
                    s.cycle_s += t.elapsed().as_secs_f64();
                    out
                };
                if let Some(stats) = tally.run("plain run", out) {
                    s.cycles += stats.cycles;
                    self.matches(tally, cell, &stats, "plain run");
                }
                cell += 1;
            }
        }
        s
    }

    fn trace(&self, tally: &mut Tally) -> (Layers, f64) {
        let mut l = Layers::default();
        let wall = Instant::now();
        let mut topos = Vec::new();
        let mut routes = Vec::new();
        for spec in &self.topos {
            let t = Instant::now();
            let topo = spec.build();
            l.add("topology.build_s", t.elapsed().as_secs_f64());
            let t = Instant::now();
            let (r, grown) = host::rss_growth(|| RoutingTable::compute_xy(&topo));
            l.add("topology.routes_s", t.elapsed().as_secs_f64());
            l.add("topology.routes_rss_mb", grown);
            topos.push(topo);
            routes.push(r);
        }
        let mut cell = 0;
        for &spec in &self.traces {
            let t = Instant::now();
            let trace = self.seeded_trace(spec, &topos[0]);
            l.add("traffic.trace_s", t.elapsed().as_secs_f64());
            l.add("traffic.trace_flits", trace.total_flits() as f64);
            for (topo, routes) in topos.iter().zip(&routes) {
                let t = Instant::now();
                let sim = self.engine(topo, routes);
                l.add("sim.plan_s", t.elapsed().as_secs_f64());
                l.add("shard.window", sim.lookahead() as f64);
                let t = Instant::now();
                let out = sim.run_trace_profiled(&trace);
                let run_s = t.elapsed().as_secs_f64();
                if let Some((stats, p)) = tally.run("profiled run", out) {
                    l.add("sim.run_s", run_s);
                    l.add("sim.cycles", stats.cycles as f64);
                    l.add("sim.flit_hops", stats.total_flit_hops() as f64);
                    l.add("sim.packets", stats.all.count as f64);
                    l.add("shard.step_s", p.step_ns as f64 * 1e-9);
                    l.add("shard.exchange_s", p.exchange_ns as f64 * 1e-9);
                    l.add("shard.barrier_s", p.barrier_ns as f64 * 1e-9);
                    l.add("shard.supersteps", p.supersteps as f64);
                    self.matches(tally, cell, &stats, "profiled run");
                }
                cell += 1;
            }
        }
        let traced_wall = wall.elapsed().as_secs_f64();
        let cells = (self.traces.len() * self.topos.len()) as f64;
        // Per-cell windows are equal within a grid; report the window, not
        // the sum.
        l.set("shard.window", l.get("shard.window") / cells);
        let p = (
            l.get("shard.step_s"),
            l.get("shard.exchange_s"),
            l.get("shard.barrier_s"),
        );
        l.add(
            "shard.barrier_frac",
            p.2 / (p.0 + p.1 + p.2).max(f64::MIN_POSITIVE),
        );
        l.add(
            "sim.ns_per_flit_hop",
            l.get("sim.run_s") * 1e9 / l.get("sim.flit_hops").max(1.0),
        );

        (l, traced_wall)
    }

    fn probe(&self, tally: &mut Tally) -> Layers {
        let mut l = Layers::default();
        let topos: Vec<Topology> = self.topos.iter().map(|t| t.build()).collect();
        let routes: Vec<RoutingTable> = topos.iter().map(RoutingTable::compute_xy).collect();
        let mut probe_s = 0.0;
        let mut cell = 0;
        for &spec in &self.traces {
            let trace = self.seeded_trace(spec, &topos[0]);
            for (topo, routes) in topos.iter().zip(&routes) {
                let mut sampler = MetricsSampler::new(100);
                let t = Instant::now();
                let out = self
                    .engine(topo, routes)
                    .run_trace_probed(&trace, &mut sampler);
                probe_s += t.elapsed().as_secs_f64();
                if let Some(stats) = tally.run("probed run", out) {
                    self.matches(tally, cell, &stats, "probed run");
                }
                l.add_samples(sampler.samples());
                cell += 1;
            }
        }
        l.add("trace.probe_s", probe_s);
        l
    }
}
