//! Traffic generation for the HyPPI NoC reproduction.
//!
//! Two traffic sources drive the paper's evaluation:
//!
//! * the **Soteriou statistical model** (§III-B; \[15\] in the paper) with
//!   acceptance probability `p = 0.02`, injection spread `σ = 0.4` and a
//!   maximum injection rate of 0.1 flits/node/cycle — used for the
//!   design-space exploration and the all-optical projections
//!   ([`soteriou`]);
//! * **NAS Parallel Benchmark traces** (§IV) — FT, CG, MG and LU at 256
//!   ranks. The paper captured MPICL traces on a Cray XE6m; those are not
//!   publicly available, so [`npb`] synthesizes traces from each kernel's
//!   documented communication pattern (FT all-to-all transpose, CG
//!   short-range row exchanges, MG long-range hierarchical exchanges, LU
//!   1-hop wavefront). The paper itself reduces traces to flit counts per
//!   source-destination pair and discards timing, so the spatial pattern is
//!   the fidelity target. For meshes bigger than the paper's 16×16,
//!   [`npb::ScaledNpbSpec`] rescales the 256-rank specs by rank remap
//!   (interleaved stretched instances covering every node) plus a
//!   phase-preserving launch-window stretch, opening real NPB workloads
//!   on the 32×32 / 1024-node mesh.
//!
//! Supporting machinery: [`matrix::TrafficMatrix`] rate matrices (a
//! fill rate per row plus sorted per-pair exceptions),
//! [`packetize`] (the paper's 1-flit / 32-flit packet split), the
//! [`trace::Trace`] event container with a compact binary format,
//! [`volume::CommVolume`] flit-count aggregation for energy accounting,
//! rate-scaled [`patterns::SyntheticPattern`] generators (uniform,
//! transpose, complement, hotspot, Soteriou, NPB-shaped) that feed the
//! simulator's load sweeps, the counter-based Bernoulli draw that
//! injects them ([`burst::injection_draw`], a pure function of (seed,
//! node, cycle)), and seeded temporal burstiness modulators
//! ([`burst::BurstSpec`] — ON/OFF and MMPP-style factor processes that
//! decide *when* the steady patterns' traffic fires).

pub mod burst;
pub mod matrix;
pub mod npb;
pub mod packetize;
pub mod patterns;
pub mod soteriou;
pub mod trace;
pub mod volume;

pub use burst::{injection_draw, BurstSpec, BurstState, BURST_REGEN_SLOTS, BURST_SLOT_CYCLES};
pub use matrix::TrafficMatrix;
pub use npb::{NpbKernel, NpbTraceSpec, ScaledNpbSpec};
pub use packetize::{packetize_message, Packet, DATA_PACKET_FLITS};
pub use patterns::SyntheticPattern;
pub use soteriou::SoteriouConfig;
pub use trace::{Trace, TraceEvent};
pub use volume::CommVolume;
