//! Host-time benchmark of the HyPPI NoC simulator.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload npb16_fig6|uniform32_sweep|cg64_hyppi_p2 \
//!     --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! Run from the repository root. One workload runs per invocation, on at
//! most `nproc` threads. The output checks run first, outside the timed
//! region; then plain iterations (setup plus simulation) repeat until
//! `--seconds` of measurement have passed. `--trace 1` first runs a probed
//! pass for the router-model counts, then alternates traced iterations,
//! which time every public call from outside, with plain ones as the
//! overhead baseline, and reports per-layer medians. The last stdout line is
//! the result object; the line before it is the run manifest.
//! `--smoke` shrinks every workload for `smoke.py`, the self-check. See
//! `hostbench/README.md` for the workloads and the layer map.

mod host;
mod sweep32;
mod symmetry;
mod trace_grid;

use hyppi_netsim::json::{Json, Obj};
use hyppi_netsim::telemetry::MetricsSample;
use hyppi_netsim::{SimError, StallCause};
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics, `(name, unit)`, printed by plain runs.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_cycles_per_s", "cycles/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, `(name, unit)`, printed by traced runs. A layer a
/// workload bypasses reports 0.
const PER_LAYER: [(&str, &str); 36] = [
    ("topology.build_s", "s"),
    ("topology.routes_s", "s"),
    ("topology.routes_rss_mb", "MiB"),
    ("traffic.trace_s", "s"),
    ("traffic.trace_flits", "flits"),
    ("traffic.matrix_s", "s"),
    ("traffic.matrix_calls", "count"),
    ("sim.plan_s", "s"),
    ("sim.run_s", "s"),
    ("sim.cycles", "cycles"),
    ("sim.flit_hops", "count"),
    ("sim.packets", "count"),
    ("sim.ns_per_flit_hop", "ns"),
    ("shard.step_s", "s"),
    ("shard.exchange_s", "s"),
    ("shard.barrier_s", "s"),
    ("shard.barrier_frac", "ratio"),
    ("shard.supersteps", "count"),
    ("shard.window", "cycles"),
    ("shard.mailbox_flits", "flits"),
    ("sweep.grid_s", "s"),
    ("sweep.saturation_s", "s"),
    ("sweep.runs", "count"),
    ("sweep.sim_cycles", "cycles"),
    ("sweep.core_util", "ratio"),
    ("snapshot.save_s", "s"),
    ("snapshot.restore_s", "s"),
    ("snapshot.bytes", "B"),
    ("stall.va_loss", "count"),
    ("stall.sa_loss", "count"),
    ("stall.credit_starved", "count"),
    ("link.util_mean", "flits/cycle"),
    ("trace.traced_wall_s", "s"),
    ("trace.plain_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.probe_s", "s"),
];

/// Operations attempted and failed. A run that returns `Err` or an output
/// that differs from the checked one is a failed operation.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Records one output check.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("output check failed: {what}");
        }
    }

    /// Records one run call, returning its output when it succeeded.
    pub fn run<T>(&mut self, what: &str, result: Result<T, SimError>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("run failed: {what}: {e}");
                None
            }
        }
    }
}

/// Host-side figures of one plain iteration that only the workload can
/// separate; the runner measures wall and CPU time around it.
#[derive(Debug, Default, Clone, Copy)]
pub struct Sample {
    /// Topology, routes, traffic and engine construction.
    pub setup_s: f64,
    /// Simulated cycles whose host time `cycle_s` measured.
    pub cycles: u64,
    /// Host seconds inside the run calls that simulated `cycles`.
    pub cycle_s: f64,
}

/// Per-layer metrics of one traced iteration, keyed by [`PER_LAYER`] name.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    /// Link utilization summed over sampled cycles, and those cycles.
    util_cycles: (f64, u64),
}

impl Layers {
    /// Adds `v` to metric `name` (metrics accumulate across cells).
    pub fn add(&mut self, name: &'static str, v: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        *self.values.entry(name).or_insert(0.0) += v;
    }

    /// Replaces metric `name` with `v`.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.values.remove(name);
        self.add(name, v);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Accumulates the router-model counts of one probed run: stall
    /// events by cause, mailbox flits, and cycle-weighted link
    /// utilization.
    pub fn add_samples(&mut self, samples: &[MetricsSample]) {
        for s in samples {
            for (cause, &n) in StallCause::ALL.iter().zip(&s.stalls) {
                let name = match cause {
                    StallCause::VaLoss => "stall.va_loss",
                    StallCause::SaLoss => "stall.sa_loss",
                    StallCause::CreditStarved => "stall.credit_starved",
                    StallCause::NoRoute | StallCause::WindowClosed => continue,
                };
                self.add(name, n as f64);
            }
            self.add("shard.mailbox_flits", s.mailbox_flits as f64);
            self.util_cycles.0 += s.link_util_mean * s.span as f64;
            self.util_cycles.1 += s.span;
        }
        self.set(
            "link.util_mean",
            self.util_cycles.0 / self.util_cycles.1.max(1) as f64,
        );
    }
}

/// One benchmark workload.
pub trait Workload {
    /// Worker threads the workload keeps busy at once.
    fn threads(&self) -> usize;
    /// Input fingerprint for the run manifest.
    fn inputs(&self) -> Obj;
    /// Untimed: runs the output checks and keeps the checked outputs that
    /// every later iteration must reproduce.
    fn check(&mut self, tally: &mut Tally);
    /// Simulated outputs of the checked run (informational, ungated).
    fn outputs(&self) -> Obj;
    /// One plain iteration: setup plus simulation, no probe attached.
    fn iterate(&self, tally: &mut Tally) -> Sample;
    /// One traced iteration, timing each public call from outside.
    /// Returns its per-layer metrics and the wall time of the part that
    /// does a plain iteration's work.
    fn trace(&self, tally: &mut Tally) -> (Layers, f64);
    /// One probed pass collecting the router-model counts
    /// (`MetricsSampler`), outside any timed iteration.
    fn probe(&self, tally: &mut Tally) -> Layers;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut smoke = false;
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed '{value}'"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 120.0)
                    .ok_or_else(|| format!("bad --seconds '{value}' (want 0 < s <= 120)"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace '{value}' (want 0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke,
    })
}

fn build(args: &Args) -> Result<Box<dyn Workload>, String> {
    Ok(match args.workload.as_str() {
        "npb16_fig6" => Box::new(trace_grid::TraceGrid::npb16_fig6(args.seed, args.smoke)),
        "cg64_hyppi_p2" => Box::new(trace_grid::TraceGrid::cg64_hyppi_p2(args.seed, args.smoke)),
        "uniform32_sweep" => Box::new(sweep32::Sweep32::new(args.seed, args.smoke)),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("hostbench: {e}");
        std::process::exit(2);
    });
    // Runs outside the repository root (no simulator sources next to the
    // binary) are refused before any work.
    if !std::path::Path::new("crates/netsim/src").is_dir() {
        eprintln!("hostbench: run from the repository root");
        std::process::exit(2);
    }
    let mut workload = build(&args).unwrap_or_else(|e| {
        eprintln!("hostbench: {e}");
        std::process::exit(2);
    });
    let nproc = host::nproc();
    if workload.threads() > nproc {
        eprintln!(
            "hostbench: {} needs {} threads but the host offers {nproc}; refusing to oversubscribe",
            args.workload,
            workload.threads()
        );
        std::process::exit(2);
    }

    let mut tally = Tally::default();
    workload.check(&mut tally);

    let mut walls = Vec::new();
    let mut setups = Vec::new();
    let mut cpus = Vec::new();
    let (mut cycles, mut cycle_s) = (0u64, 0.0f64);
    // Traced runs alternate traced and plain iterations, so host-speed
    // drift over the run hits both sides of the overhead alike.
    let probed = args.trace.then(|| workload.probe(&mut tally));
    let mut traced = Vec::new();
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        if args.trace {
            traced.push(workload.trace(&mut tally));
        }
        let (t0, c0) = (Instant::now(), host::cpu_seconds());
        let s = workload.iterate(&mut tally);
        walls.push(t0.elapsed().as_secs_f64());
        cpus.push(host::cpu_seconds() - c0);
        setups.push(s.setup_s);
        cycles += s.cycles;
        cycle_s += s.cycle_s;
    }
    let measured_s = start.elapsed().as_secs_f64();

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    match probed {
        Some(probed) => {
            let traced_wall = host::median(&traced.iter().map(|t| t.1).collect::<Vec<_>>());
            let plain = host::median(&walls);
            let mut layers = Layers::default();
            for (name, _) in PER_LAYER {
                let per_iteration: Vec<f64> = traced.iter().map(|t| t.0.get(name)).collect();
                layers.add(name, host::median(&per_iteration) + probed.get(name));
            }
            layers.set("trace.traced_wall_s", traced_wall);
            layers.set("trace.plain_wall_s", plain);
            layers.set("trace.overhead_s", traced_wall - plain);
            for (name, unit) in PER_LAYER {
                metrics.push((name, unit, layers.get(name)));
            }
        }
        None => {
            let values = [
                host::median(&walls),
                host::median(&setups),
                cycles as f64 / cycle_s,
                host::median(&cpus),
                host::peak_rss_mib(),
            ];
            for ((name, unit), v) in END_TO_END.into_iter().zip(values) {
                metrics.push((name, unit, v));
            }
        }
    }
    for (name, _, v) in &metrics {
        assert!(v.is_finite(), "metric {name} is not finite: {v}");
    }

    let manifest = Obj::new()
        .field("workload", args.workload.as_str())
        .field("seed", args.seed)
        .field("mode", if args.trace { "traced" } else { "plain" })
        .field("smoke", args.smoke)
        .field("revision", host::git_revision())
        .field("source_fnv", host::source_fingerprint())
        .field(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .field("nproc", nproc)
        .field("threads", workload.threads())
        .field("iterations", walls.len())
        .field(
            "wall_samples_s",
            Json::Arr(walls.iter().map(|&w| Json::Num(w)).collect()),
        )
        .field("measured_s", measured_s)
        .field("inputs", workload.inputs())
        .field("outputs", workload.outputs())
        .build();
    println!(
        "{}",
        Obj::new()
            .field("manifest", manifest)
            .build()
            .render_compact()
    );

    let mut m = Obj::new();
    for (name, unit, v) in &metrics {
        m = m.field(name, Obj::new().field("value", *v).field("unit", *unit));
    }
    let result = Obj::new()
        .field("correct", tally.failed == 0)
        .field("attempted", tally.attempted)
        .field("failed", tally.failed)
        .field("metrics", m)
        .build();
    println!("{}", result.render_compact());
}
