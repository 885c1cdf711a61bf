//! `uniform32_sweep`: a uniform-traffic load-latency curve on a 32×32
//! electronic mesh, shaped like `repro load_sweep32` — a warm-started
//! rate grid across the ≈0.15 knee, then the saturation bisection —
//! through `SweepRunner` with two seeds, two shards per run and one
//! thread per run, so `parallel_map`'s workers are the only threads.
//!
//! Checked by replaying one grid point as the same warm-start splice on
//! the frozen `ReferenceSimulator` (anchor warm-up at the zero-load rate,
//! snapshot, restore, resume at the point's rate) for every seed.

use crate::host;
use crate::{Layers, Sample, Tally, Workload};
use hyppi_netsim::json::{Json, Obj};
use hyppi_netsim::{
    LatencyStats, LoadCurve, MetricsSampler, ReferenceSimulator, RunOutcome, ShardedSimulator,
    SimConfig, SimError, SimStats, Snapshot, SweepConfig, SweepRunner,
};
use hyppi_phys::{Gbps, LinkTechnology};
use hyppi_topology::{mesh, MeshSpec, RoutingTable, ShardSpec, Topology};
use hyppi_traffic::{SyntheticPattern, TrafficMatrix};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Shards per sweep run.
const SHARDS: usize = 2;

pub struct Sweep32 {
    side: u16,
    rates: Vec<f64>,
    max_rate: f64,
    cfg: SweepConfig,
    /// Grid point replayed on the reference engine.
    checked: usize,
    /// The checked curve every iteration must reproduce.
    expected: Option<LoadCurve>,
    /// Reference splice of the checked point, one run per seed.
    reference: Vec<SimStats>,
}

/// SplitMix64 finalizer: spreads a workload seed into sweep seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Sweep32 {
    /// Seed 0 sweeps the paper's seeds (11, 42); any other seed derives
    /// two fresh ones.
    pub fn new(seed: u64, smoke: bool) -> Self {
        let seeds = if seed == 0 {
            vec![11, 42]
        } else {
            vec![mix(2 * seed), mix(2 * seed + 1)]
        };
        // The 16×16 smoke mesh saturates later, so its search reaches
        // further.
        let (side, warmup, measure, max_rate) = if smoke {
            (16, 100, 200, 0.6)
        } else {
            (32, 200, 600, 0.25)
        };
        let cfg = SweepConfig {
            warmup,
            measure,
            seeds,
            tolerance: 0.04,
            threads: 1,
            ..SweepConfig::paper()
        }
        .with_shards(SHARDS);
        Sweep32 {
            side,
            rates: vec![0.06, 0.12, 0.18, 0.24],
            max_rate,
            cfg,
            checked: 1,
            expected: None,
            reference: Vec::new(),
        }
    }

    fn topology(&self) -> Topology {
        mesh(MeshSpec {
            width: self.side,
            height: self.side,
            core_spacing_mm: 1.0,
            base_tech: LinkTechnology::Electronic,
            capacity: Gbps::new(50.0),
        })
    }

    /// The engine configuration `SweepRunner` hands every run.
    fn sim_config(&self) -> SimConfig {
        let mut sim = SimConfig::paper();
        sim.max_cycles = self.cfg.run_max_cycles;
        sim
    }

    /// One engine configured like the sweep's runs.
    fn engine<'a>(&self, topo: &'a Topology, routes: &'a RoutingTable) -> ShardedSimulator<'a> {
        ShardedSimulator::new(
            topo,
            routes,
            self.sim_config(),
            ShardSpec::for_count(SHARDS),
        )
        .with_threads(self.cfg.threads)
    }

    fn matches(&self, tally: &mut Tally, curve: &LoadCurve, what: &str) {
        tally.check(
            self.expected.as_ref() == Some(curve),
            &format!("{what}: curve differs from the checked one"),
        );
    }
}

/// The snapshot of an anchor run that paused at the warm-up boundary.
fn paused(tally: &mut Tally, what: &str, out: Result<RunOutcome, SimError>) -> Option<Snapshot> {
    match tally.run(what, out)? {
        RunOutcome::Paused(snap) => Some(snap),
        RunOutcome::Finished(_) => {
            tally.check(false, &format!("{what}: ended before the warm-up boundary"));
            None
        }
    }
}

impl Workload for Sweep32 {
    fn threads(&self) -> usize {
        // `parallel_map` runs one worker per host thread; each sharded run
        // stays on its worker. The workload is sized for at least two.
        host::nproc().max(2)
    }

    fn inputs(&self) -> Obj {
        Obj::new()
            .field("topology", self.topology().name)
            .field("pattern", "uniform")
            .field(
                "rates",
                Json::Arr(self.rates.iter().map(|&r| Json::Num(r)).collect()),
            )
            .field("max_rate", self.max_rate)
            .field(
                "sweep_seeds",
                Json::Arr(self.cfg.seeds.iter().map(|&s| Json::UInt(s)).collect()),
            )
            .field("warmup", self.cfg.warmup)
            .field("measure", self.cfg.measure)
            .field("tolerance", self.cfg.tolerance)
            .field("shards", SHARDS)
            .field("threads_per_run", self.cfg.threads)
            .field("sim_config", format!("{:?}", self.sim_config()))
            .field("checked_rate", self.rates[self.checked])
    }

    fn check(&mut self, tally: &mut Tally) {
        let topo = self.topology();
        let routes = RoutingTable::compute_xy(&topo);
        let gen = |r: f64| SyntheticPattern::Uniform.matrix(&topo, r);
        let runner = SweepRunner::new(&topo, &routes, SimConfig::paper(), self.cfg.clone());
        let curve = runner.run_curve("uniform32", &gen, &self.rates, self.max_rate);

        // Reference splice of the checked point, then its LoadPoint
        // reduction (all seeds complete: the point sits below the cap).
        let (warmup, measure) = (self.cfg.warmup, self.cfg.measure);
        let anchor = gen(self.cfg.zero_load_rate);
        let m = gen(self.rates[self.checked]);
        let mut latency = LatencyStats::default();
        let (mut cycles, mut accepted) = (0u64, 0u64);
        self.reference.clear();
        for &seed in &self.cfg.seeds {
            let what = format!("reference splice seed {seed}");
            let anchored = ReferenceSimulator::new(&topo, &routes, self.sim_config())
                .run_synthetic_until(&anchor, warmup, measure, seed, warmup);
            let stats = paused(tally, &what, anchored)
                .and_then(|snap| {
                    let out = ReferenceSimulator::new(&topo, &routes, self.sim_config())
                        .resume_synthetic(&snap, &m, warmup, measure, seed);
                    tally.run(&what, out)
                })
                .unwrap_or_default();
            tally.check(
                stats.flits_injected == stats.flits_delivered && stats.all.count > 0,
                &format!("{what}: injected flits must all be delivered"),
            );
            latency.merge(&stats.all);
            cycles += stats.cycles;
            accepted += stats.accepted_flits;
            self.reference.push(stats);
        }
        let p = &curve.points[self.checked];
        let window = self.cfg.seeds.len() as f64 * measure as f64 * topo.num_nodes() as f64;
        tally.check(
            p.stable
                && p.latency == latency
                && p.cycles == cycles
                && p.accepted == accepted as f64 / window
                && p.throughput == latency.count as f64 / window,
            "sweep point differs from the reference splice",
        );
        tally.check(
            curve.saturation.saturated_in_range,
            "the bisection must find the knee inside the searched range",
        );
        self.expected = Some(curve);
    }

    fn outputs(&self) -> Obj {
        let Some(curve) = &self.expected else {
            return Obj::new();
        };
        let points: Vec<Json> = curve
            .points
            .iter()
            .map(|p| {
                Obj::new()
                    .field("offered", p.offered)
                    .field("mean_latency", p.mean_latency())
                    .field("p99_latency", p.latency.p99())
                    .field("cycles", p.cycles)
                    .build()
            })
            .collect();
        Obj::new()
            .field("points", Json::Arr(points))
            .field("saturation_load", curve.saturation.saturation_load)
            .field("zero_load_latency", curve.saturation.zero_load_latency)
            .field("bisection_runs", curve.saturation.runs)
    }

    fn iterate(&self, tally: &mut Tally) -> Sample {
        let t = Instant::now();
        let topo = self.topology();
        let routes = RoutingTable::compute_xy(&topo);
        let runner = SweepRunner::new(&topo, &routes, SimConfig::paper(), self.cfg.clone());
        let setup_s = t.elapsed().as_secs_f64();
        let gen = |r: f64| SyntheticPattern::Uniform.matrix(&topo, r);
        let t = Instant::now();
        let points = runner.run_grid(&gen, &self.rates);
        let grid_s = t.elapsed().as_secs_f64();
        let saturation = runner.find_saturation(&gen, self.max_rate);
        let cycles = points.iter().map(|p| p.cycles).sum();
        let curve = LoadCurve {
            label: "uniform32".into(),
            points,
            saturation,
        };
        self.matches(tally, &curve, "plain sweep");
        Sample {
            setup_s,
            cycles,
            cycle_s: grid_s,
        }
    }

    fn trace(&self, tally: &mut Tally) -> (Layers, f64) {
        let mut l = Layers::default();
        let wall = Instant::now();
        let t = Instant::now();
        let topo = self.topology();
        l.add("topology.build_s", t.elapsed().as_secs_f64());
        let t = Instant::now();
        let (routes, grown) = host::rss_growth(|| RoutingTable::compute_xy(&topo));
        l.add("topology.routes_s", t.elapsed().as_secs_f64());
        l.add("topology.routes_rss_mb", grown);
        let runner = SweepRunner::new(&topo, &routes, SimConfig::paper(), self.cfg.clone());
        // The rate → matrix closure, wrapped to count and time its calls.
        let (matrix_ns, matrix_calls) = (AtomicU64::new(0), AtomicU64::new(0));
        let gen = |r: f64| -> TrafficMatrix {
            let t = Instant::now();
            let m = SyntheticPattern::Uniform.matrix(&topo, r);
            matrix_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            matrix_calls.fetch_add(1, Ordering::Relaxed);
            m
        };
        let t = Instant::now();
        let points = runner.run_grid(&gen, &self.rates);
        l.add("sweep.grid_s", t.elapsed().as_secs_f64());
        let (t, c) = (Instant::now(), host::cpu_seconds());
        let saturation = runner.find_saturation(&gen, self.max_rate);
        let sat_s = t.elapsed().as_secs_f64();
        l.add("sweep.saturation_s", sat_s);
        l.add(
            "sweep.core_util",
            (host::cpu_seconds() - c) / (sat_s * host::nproc() as f64),
        );
        let traced_wall = wall.elapsed().as_secs_f64();
        l.add(
            "sweep.runs",
            (points.len() * self.cfg.seeds.len()) as f64 + f64::from(saturation.runs),
        );
        l.add(
            "sweep.sim_cycles",
            points.iter().map(|p| p.cycles).sum::<u64>() as f64,
        );
        l.add("traffic.matrix_s", matrix_ns.into_inner() as f64 * 1e-9);
        l.add("traffic.matrix_calls", matrix_calls.into_inner() as f64);
        let curve = LoadCurve {
            label: "uniform32".into(),
            points,
            saturation,
        };
        self.matches(tally, &curve, "traced sweep");

        // One explicit warm-start splice of the checked point, first seed,
        // on the sweep's engine configuration.
        let (warmup, measure, seed) = (self.cfg.warmup, self.cfg.measure, self.cfg.seeds[0]);
        let anchor = SyntheticPattern::Uniform.matrix(&topo, self.cfg.zero_load_rate);
        let m = SyntheticPattern::Uniform.matrix(&topo, self.rates[self.checked]);
        let t = Instant::now();
        let sim = self.engine(&topo, &routes);
        l.add("sim.plan_s", t.elapsed().as_secs_f64());
        l.add("shard.window", sim.lookahead() as f64);
        let t = Instant::now();
        let anchored = sim.run_synthetic_until(&anchor, warmup, measure, seed, warmup);
        l.add("sim.run_s", t.elapsed().as_secs_f64());
        if let Some(snap) = paused(tally, "anchor run", anchored) {
            l.add("snapshot.bytes", snap.size_bytes() as f64);
            let fresh = self.engine(&topo, &routes);
            let t = Instant::now();
            let restored = fresh.restore(&snap);
            l.add("snapshot.restore_s", t.elapsed().as_secs_f64());
            if let Some(restored) = tally.run("restore", restored) {
                let t = Instant::now();
                let resaved = restored.snapshot(warmup);
                l.add("snapshot.save_s", t.elapsed().as_secs_f64());
                tally.check(
                    resaved.size_bytes() > 0,
                    "re-saved snapshot must not be empty",
                );
            }
            let t = Instant::now();
            let out = self
                .engine(&topo, &routes)
                .resume_synthetic(&snap, &m, warmup, measure, seed);
            l.add("sim.run_s", t.elapsed().as_secs_f64());
            if let Some(stats) = tally.run("resumed run", out) {
                tally.check(
                    self.reference.first() == Some(&stats),
                    "resumed splice differs from the reference splice",
                );
                l.add("sim.cycles", stats.cycles as f64);
                l.add("sim.flit_hops", stats.total_flit_hops() as f64);
                l.add("sim.packets", stats.all.count as f64);
            }
        }
        l.add(
            "sim.ns_per_flit_hop",
            l.get("sim.run_s") * 1e9 / l.get("sim.flit_hops").max(1.0),
        );

        (l, traced_wall)
    }

    fn probe(&self, tally: &mut Tally) -> Layers {
        // One probed sweep point at the checked rate (cold, single-worker).
        let mut l = Layers::default();
        let topo = self.topology();
        let routes = RoutingTable::compute_xy(&topo);
        let runner = SweepRunner::new(&topo, &routes, SimConfig::paper(), self.cfg.clone());
        let m = SyntheticPattern::Uniform.matrix(&topo, self.rates[self.checked]);
        let mut sampler = MetricsSampler::new(100);
        let t = Instant::now();
        let p = runner.record_point(&m, &mut sampler);
        l.add("trace.probe_s", t.elapsed().as_secs_f64());
        tally.check(
            p.stable && p.latency.count > 0,
            "probed sweep point must complete",
        );
        l.add_samples(sampler.samples());
        l
    }
}
