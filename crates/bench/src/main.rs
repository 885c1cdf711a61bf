//! `repro` — regenerates every table and figure of the paper.
//!
//! ```sh
//! cargo run --release -p hyppi-bench --bin repro            # everything
//! cargo run --release -p hyppi-bench --bin repro fig6       # one artefact
//! cargo run --release -p hyppi-bench --bin repro load_sweep # latency-load curves
//! cargo run --release -p hyppi-bench --bin repro load_sweep -- --json curves.json
//! cargo run --release -p hyppi-bench --bin repro load_sweep32 -- --shards 4
//! cargo run --release -p hyppi-bench --bin repro npb32 -- --kernel CG --shards 4
//! cargo run --release -p hyppi-bench --bin repro npb32 -- --kernel CG --save cg.snap
//! cargo run --release -p hyppi-bench --bin repro npb32 -- --kernel CG --resume cg.snap
//! cargo run --release -p hyppi-bench --bin repro fault_sweep -- --json faults.json
//! cargo run --release -p hyppi-bench --bin repro sweep-span # ablation
//! ```
//!
//! Each artefact reads only the flags [`ARTEFACTS`] lists for it; any
//! other flag exits 2 before anything runs.

use hyppi::experiments::{fig3, fig5, fig8, table1, table2, table3, table4, table5, table6};
use hyppi::prelude::*;
use std::io::Write;

/// `std`'s `print!`, except that a reader closing stdout (`repro all |
/// head -1`) ends the run quietly with status 0 instead of a panic.
macro_rules! print {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `std`'s `println!`, with [`print!`]'s handling of a closed stdout.
macro_rules! println {
    () => {
        print!("\n")
    };
    ($($arg:tt)*) => {
        print!("{}\n", format_args!($($arg)*))
    };
}

fn write_stdout(args: std::fmt::Arguments) {
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// Flags that take a value (`--flag VALUE`).
const VALUE_FLAGS: [&str; 7] = [
    "--json",
    "--shards",
    "--closed-loop",
    "--burst",
    "--kernel",
    "--save",
    "--resume",
];

/// Flags that take no value.
const BOOL_FLAGS: [&str; 1] = ["--cold"];

/// Every artefact, with the flags it reads.
const ARTEFACTS: [(&str, &[&str]); 20] = [
    ("all", &[]),
    ("table1", &[]),
    ("table2", &[]),
    ("fig3", &[]),
    ("table3", &[]),
    ("fig5", &[]),
    ("table4", &[]),
    ("fig6", &[]),
    ("table5", &[]),
    ("table6", &[]),
    ("fig8", &[]),
    ("load_sweep", &["--json", "--burst", "--cold"]),
    (
        "load_sweep32",
        &["--shards", "--closed-loop", "--json", "--cold", "--burst"],
    ),
    ("npb32", &["--shards", "--kernel", "--save", "--resume"]),
    ("fault_sweep", &["--shards", "--json", "--cold"]),
    ("sweep-span", &[]),
    ("sweep-rate", &[]),
    ("sweep-vcs", &[]),
    ("sweep-buffers", &[]),
    ("sweep-routing", &[]),
];

/// Prints `msg` as one stderr line and exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// The artefact to render: the first token that is neither a flag nor a
/// value flag's value (`all` when there is none). An unknown `--` token,
/// a value flag without its value, an unknown artefact, or a flag the
/// artefact does not read exits 2 before anything runs.
fn artefact(args: &[String]) -> &'static str {
    let mut artefact = None;
    let mut flags = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if VALUE_FLAGS.contains(&a) {
            if i + 1 == args.len() {
                usage_error(&format!("{a} needs a value"));
            }
            flags.push(a);
            i += 2;
            continue;
        }
        if BOOL_FLAGS.contains(&a) {
            flags.push(a);
        } else if a.starts_with("--") {
            usage_error(&format!(
                "unknown flag '{a}' (flags taking a value: {}; without: {})",
                VALUE_FLAGS.join(" "),
                BOOL_FLAGS.join(" ")
            ));
        } else if artefact.is_none() {
            artefact = Some(a);
        }
        i += 1;
    }
    let name = artefact.unwrap_or("all");
    let Some(&(name, reads)) = ARTEFACTS.iter().find(|(n, _)| *n == name) else {
        let known: Vec<String> = ARTEFACTS
            .iter()
            .map(|(n, reads)| match reads {
                [] => n.to_string(),
                _ => format!("{n} [{}]", reads.join(" ")),
            })
            .collect();
        usage_error(&format!(
            "unknown artefact '{name}'. Known, with the flags each reads: {}",
            known.join(", ")
        ));
    };
    if let Some(flag) = flags.iter().find(|f| !reads.contains(f)) {
        usage_error(&format!(
            "{flag} does not apply to {name}, which reads {}",
            match reads {
                [] => "no flags".to_string(),
                _ => reads.join(" "),
            }
        ));
    }
    name
}

/// Value of a `--flag VALUE` pair anywhere in the argument list.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Writes a dataset's JSON export when `--json PATH` was given.
fn maybe_write_json_str(args: &[String], json: &str) {
    if let Some(path) = flag_value(args, "--json") {
        match std::fs::write(&path, json) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Writes the JSON export of a load-sweep dataset when `--json PATH` was
/// given.
fn maybe_write_json(args: &[String], result: &hyppi::experiments::LoadSweepResult) {
    maybe_write_json_str(args, &result.to_json());
}

/// Parsed `--burst SPEC` temporal-burstiness option: `steady` (the
/// default), `onoff:B` or `mmpp:B` with burstiness factor `B >= 1`
/// (peak-to-mean rate ratio — see `hyppi_traffic::BurstSpec`).
fn burst_flag(args: &[String]) -> BurstSpec {
    let Some(s) = flag_value(args, "--burst") else {
        return BurstSpec::Steady;
    };
    let parse = |s: &str| -> Option<BurstSpec> {
        let s = s.to_ascii_lowercase();
        if s == "steady" {
            return Some(BurstSpec::Steady);
        }
        let (kind, b) = s.split_once(':')?;
        let b: f64 = b.parse().ok()?;
        if !(b >= 1.0 && b.is_finite()) {
            return None;
        }
        match kind {
            "onoff" => Some(BurstSpec::onoff(b)),
            "mmpp" => Some(BurstSpec::mmpp(b)),
            _ => None,
        }
    };
    parse(&s).unwrap_or_else(|| {
        usage_error(&format!(
            "bad --burst value '{s}' (steady, onoff:B or mmpp:B with B >= 1)"
        ))
    })
}

/// Parsed `--shards N` option (default 4). Every sharded subcommand cuts
/// a 32×32 mesh, so a count outside 1..=1024 or one whose near-square
/// grid ([`ShardSpec::for_count`]) is wider or taller than 32 tiles
/// exits 2.
fn shards_flag(args: &[String]) -> usize {
    let Some(s) = flag_value(args, "--shards") else {
        return 4;
    };
    let n: usize = s
        .parse()
        .unwrap_or_else(|_| usage_error(&format!("bad --shards value '{s}'")));
    if n == 0 || n > 32 * 32 {
        usage_error(&format!(
            "--shards must be 1 to 1024 (a 32x32 mesh), got {n}"
        ));
    }
    let grid = ShardSpec::for_count(n);
    if grid.sx > 32 || grid.sy > 32 {
        usage_error(&format!(
            "--shards {n} needs a {}x{} shard grid, wider or taller than the 32x32 mesh",
            grid.sx, grid.sy
        ));
    }
    n
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = artefact(&args);
    let all = arg == "all";

    if all || arg == "table1" {
        println!(
            "## Table I — device parameters (model inputs)\n{}",
            table1()
        );
    }
    if all || arg == "table2" {
        println!("## Table II — network parameters\n{}", table2());
    }
    if all || arg == "fig3" {
        println!("## Fig. 3 — link-level CLEAR\n{}", fig3().render());
    }
    if all || arg == "table3" {
        println!(
            "## Table III — capability C and utilization growth R\n{}",
            table3()
        );
    }
    if all || arg == "fig5" {
        let r = fig5();
        println!("## Fig. 5 — hybrid NoC design space\n{}", r.render());
        println!(
            "Electronic base + HyPPI express CLEAR gain: {:.2}x (paper: up to 1.8x)\n",
            r.headline_gain()
        );
    }
    if all || arg == "table4" {
        println!(
            "## Table IV — static power, electronic base + express\n{}",
            table4()
        );
    }
    if all || arg == "fig6" {
        println!("## Fig. 6 — NPB average latency (cycle-accurate)");
        println!("{}", run_fig6().render());
    }
    if all || arg == "table5" {
        println!(
            "## Table V — FT total dynamic energy\n{}",
            table5().render()
        );
    }
    if all || arg == "table6" {
        println!("## Table VI — optical router comparison\n{}", table6());
    }
    if all || arg == "fig8" {
        let r = fig8();
        println!("## Fig. 8 — all-optical radar projection\n{}", r.render());
        println!(
            "Electronic / all-HyPPI energy: {:.0}x (paper: ~255x)\n",
            r.electronic_over_hyppi_energy()
        );
    }
    if arg == "load_sweep" {
        // Cycle-accurate and ~200 simulations deep: on-demand only, like
        // the ablations.
        let cold = args.iter().any(|a| a == "--cold");
        let burst = burst_flag(&args);
        match burst {
            BurstSpec::Steady => {
                println!("## Load sweep — latency-throughput curves + saturation loads")
            }
            _ => println!(
                "## Load sweep — latency-throughput curves + saturation loads ({burst} injection)"
            ),
        }
        let r = hyppi::experiments::load_sweep(cold, burst);
        println!("{}", r.render());
        maybe_write_json(&args, &r);
    }
    if arg == "load_sweep32" {
        // The 32×32 scale-up through the sharded engine; minutes of
        // runtime, on-demand only. `--closed-loop WINDOW` switches every
        // run to credit-limited NICs (accepted-load curves flatten at
        // the plateau instead of tracking offered load).
        let shards = shards_flag(&args);
        let closed_loop: Option<usize> = flag_value(&args, "--closed-loop").map(|s| {
            let window = s
                .parse()
                .unwrap_or_else(|_| usage_error(&format!("bad --closed-loop value '{s}'")));
            if window == 0 {
                usage_error("--closed-loop window must be >= 1");
            }
            window
        });
        let cold = args.iter().any(|a| a == "--cold");
        let burst = burst_flag(&args);
        match closed_loop {
            Some(w) => println!(
                "## Load sweep 32x32 — sharded engine, {shards} shards, closed loop (window {w})"
            ),
            None => println!("## Load sweep 32x32 — sharded engine, {shards} shards"),
        }
        let r = hyppi::experiments::load_sweep32(shards, closed_loop, cold, burst);
        println!("{}", r.render());
        maybe_write_json(&args, &r);
    }
    if arg == "npb32" {
        // A rescaled 1024-rank NPB window on the 32×32 mesh through the
        // sharded engine, bit-for-bit shard parity asserted inside.
        let shards = shards_flag(&args);
        let kernels: Vec<NpbKernel> = match flag_value(&args, "--kernel") {
            None => vec![NpbKernel::Cg],
            Some(k) if k.eq_ignore_ascii_case("all") => NpbKernel::ALL.to_vec(),
            Some(k) => vec![NpbKernel::ALL
                .into_iter()
                .find(|c| c.name().eq_ignore_ascii_case(&k))
                .unwrap_or_else(|| {
                    usage_error(&format!("unknown --kernel '{k}' (FT, CG, MG, LU or all)"))
                })],
        };
        let save = flag_value(&args, "--save");
        let resume = flag_value(&args, "--resume");
        if (save.is_some() || resume.is_some()) && kernels.len() != 1 {
            usage_error("--save/--resume checkpoint a single kernel (pass --kernel FT|CG|MG|LU)");
        }
        println!("## NPB 32x32 — rescaled 1024-rank windows, sharded engine ({shards} shards)");
        for kernel in kernels {
            if let Some(path) = &save {
                // Run to the window's midpoint, write the checkpoint, stop.
                let (snap, stop) = hyppi::experiments::npb32_save(kernel, shards);
                if let Err(e) = std::fs::write(path, snap.bytes()) {
                    eprintln!("could not write {path}: {e}");
                    std::process::exit(1);
                }
                println!(
                    "saved {kernel} 32x32 checkpoint at cycle {stop} to {path} ({} bytes); \
                     complete it with: repro npb32 --kernel {kernel} --resume {path}",
                    snap.size_bytes()
                );
            } else if let Some(path) = &resume {
                // Restore a --save checkpoint (any shard count) and finish.
                let bytes = std::fs::read(path).unwrap_or_else(|e| {
                    eprintln!("could not read {path}: {e}");
                    std::process::exit(1);
                });
                let snap = Snapshot::from_bytes(bytes).unwrap_or_else(|e| {
                    eprintln!("{path} is not a simulator snapshot: {e}");
                    std::process::exit(1);
                });
                let from = snap.now();
                let cell =
                    hyppi::experiments::npb32_resume(kernel, shards, &snap).unwrap_or_else(|e| {
                        eprintln!("could not resume from {path}: {e}");
                        std::process::exit(1);
                    });
                println!(
                    "{} 32x32 ({} shards, resumed from cycle {from}): lat {:.2} clks \
                     (p50 {} p99 {}) | {} pkts | {} flits | {} cycles",
                    cell.kernel,
                    cell.shards,
                    cell.latency_clks,
                    cell.p50,
                    cell.p99,
                    cell.packets,
                    cell.flits,
                    cell.cycles
                );
            } else {
                println!("{}", hyppi::experiments::npb32(kernel, shards).render());
            }
        }
    }
    if arg == "fault_sweep" {
        // Resilience sweep: K seeded fault samples per fault count, open
        // and closed loop, 16x16 plus the sharded 32x32 scale-up; minutes
        // of runtime, on-demand only.
        let shards = shards_flag(&args);
        let cold = args.iter().any(|a| a == "--cold");
        println!("## Fault sweep — saturation + tails vs. fault count ({shards} shards on 32x32)");
        let r = hyppi::experiments::fault_sweep(shards, cold);
        println!("{}", r.render());
        maybe_write_json_str(&args, &r.to_json());
    }
    if arg == "sweep-span" {
        sweep_span();
    }
    if arg == "sweep-rate" {
        sweep_rate();
    }
    if arg == "sweep-vcs" {
        println!("## Ablation — VC-count sensitivity (CG window)");
        println!("{}", hyppi::experiments::vc_sensitivity());
    }
    if arg == "sweep-buffers" {
        println!("## Ablation — buffer-depth sensitivity (CG window)");
        println!("{}", hyppi::experiments::buffer_sensitivity());
    }
    if arg == "sweep-routing" {
        println!("## Ablation — routing policy (plain mesh)");
        println!("{}", hyppi::experiments::routing_policy_comparison());
    }
}

/// Fig. 6 driver (kept here rather than in the library test path because it
/// runs 16 full cycle-accurate simulations).
fn run_fig6() -> hyppi::experiments::Fig6Result {
    hyppi::experiments::fig6()
}

/// Ablation: CLEAR across every express span 2..=15 (the paper only probes
/// 3, 5 and 15).
fn sweep_span() {
    println!("## Ablation — CLEAR vs express span (electronic base + HyPPI express)");
    let cfg = SoteriouConfig::paper();
    let base = {
        let model = NocModel::new(mesh(MeshSpec::paper(LinkTechnology::Electronic)));
        let t = cfg.matrix(&model.topo);
        model.evaluate(&t, cfg.max_injection_rate).clear
    };
    println!("span  0 (plain): CLEAR {base:.4} (1.00x)");
    for span in 2u16..=15 {
        let model = NocModel::new(express_mesh(
            MeshSpec::paper(LinkTechnology::Electronic),
            ExpressSpec {
                span,
                tech: LinkTechnology::Hyppi,
            },
        ));
        let t = cfg.matrix(&model.topo);
        let eval = model.evaluate(&t, cfg.max_injection_rate);
        println!(
            "span {span:2}: CLEAR {:.4} ({:.2}x)  latency {:5.2}  R {:.3}",
            eval.clear,
            eval.clear / base,
            eval.latency_clks,
            eval.r_factor
        );
    }
}

/// Ablation: CLEAR vs injection rate 0.01–0.1 (the paper mentions "only a
/// small reduction in CLEAR value with the injection rate" without a plot).
fn sweep_rate() {
    println!("## Ablation — CLEAR vs injection rate (plain meshes)");
    for base_tech in [
        LinkTechnology::Electronic,
        LinkTechnology::Hyppi,
        LinkTechnology::Photonic,
    ] {
        let model = NocModel::new(mesh(MeshSpec::paper(base_tech)));
        print!("{:11}", base_tech.name());
        for rate in [0.01, 0.02, 0.05, 0.1] {
            let cfg = SoteriouConfig::paper().with_rate(rate);
            let t = cfg.matrix(&model.topo);
            let eval = model.evaluate(&t, rate);
            print!("  r={rate:<4} CLEAR {:>8.4}", eval.clear);
        }
        println!();
    }
}
