//! Experiment drivers — one per table and figure of the paper.
//!
//! | paper artefact | driver | output |
//! |---|---|---|
//! | Table I (device parameters) | [`tables::table1`] | transcription check |
//! | Table II (network parameters) | [`tables::table2`] | transcription check |
//! | Fig. 3 (link-level CLEAR) | [`fig3::fig3`] | CLEAR vs length, 4 technologies |
//! | Table III (C and R) | [`design_space::table3`] | per-topology capability & R |
//! | Fig. 5 (hybrid design space) | [`design_space::fig5`] | CLEAR/latency/power/area, 30 configs |
//! | Table IV (static power) | [`design_space::table4`] | base + express static power |
//! | Fig. 6 (NPB latency) | [`npb::fig6`] | cycle-accurate latencies |
//! | Table V (FT dynamic energy) | [`npb::table5`] | volume-routed energy |
//! | Table VI (optical routers) | [`all_optical::table6`] | router comparison |
//! | Fig. 8 (all-optical radar) | [`all_optical::fig8`] | latency/energy/area triples |
//! | load sweep (methodology ext.) | [`load_sweep::load_sweep`] | latency-throughput curves + saturation, open- and closed-loop |
//! | 32×32 load sweep (sharded) | [`load_sweep::load_sweep32`] | large-mesh curves (uniform/transpose + rescaled NPB shapes), open- or closed-loop |
//! | 32×32 NPB window (sharded) | [`npb::npb32`] | rescaled 1024-rank kernel, shard parity asserted |
//! | fault sweep (robustness ext.) | [`fault_sweep::fault_sweep`] | saturation + tails vs. fault count, 16×16 and 32×32, open- and closed-loop |
//!
//! Every driver is deterministic; the `repro` binary in `crates/bench`
//! regenerates all of them (the workspace-root `README.md` carries the
//! artefact → subcommand catalog).

pub mod ablations;
pub mod all_optical;
pub mod design_space;
pub mod fault_sweep;
pub mod fig3;
pub mod load_sweep;
pub mod npb;
pub mod tables;

pub use ablations::{buffer_sensitivity, routing_policy_comparison, vc_sensitivity};
pub use all_optical::{fig8, table6, Fig8Result};
pub use design_space::{fig5, table3, table4, DesignPoint, Fig5Result};
pub use fault_sweep::{
    fault_curve, fault_sweep, sample_connected, FaultSweepCell, FaultSweepCurve, FaultSweepResult,
    FAULT_COUNTS_16, FAULT_COUNTS_32, FAULT_PROBE_RATE,
};
pub use fig3::{fig3, Fig3Result};
pub use load_sweep::{
    load_sweep, load_sweep32, sweep_curves, LoadSweepResult, CLOSED_LOOP_WINDOW, SWEEP_MAX_RATE,
    SWEEP_RATES,
};
pub use npb::{
    fig6, npb32, npb32_cell, npb32_resume, npb32_save, table5, Fig6Result, Npb32Cell, Table5Result,
};
pub use tables::{table1, table2};
