//! Cycle-accurate NoC simulation.
//!
//! A from-scratch reimplementation of the simulation machinery the paper
//! takes from **BookSim 2.0** (§IV): input-buffered virtual-channel routers
//! with a 3-stage pipeline, credit-based flow control, deterministic
//! oblivious shortest-path routing (from `hyppi-topology`), per-link
//! latencies of 1 cycle (electronic) or 2 cycles (optical), and trace-driven
//! packet injection with the paper's 1-flit and 32-flit packet sizes.
//!
//! The microarchitecture follows Table II and Fig. 4 of the paper:
//!
//! * 4 virtual channels per port, 8 flit buffers per VC;
//! * 3-stage router pipeline (route computation; VC + switch allocation;
//!   switch traversal) — a flit spends at least 3 cycles per router. The
//!   depth is the one constant [`hyppi_topology::ROUTER_PIPELINE_CYCLES`],
//!   which every route cost and the analytic model charge per hop too;
//! * one crossbar transfer per input port and per output port per cycle;
//! * round-robin switch and VC allocation arbiters;
//! * credits returned when a flit leaves the downstream buffer.
//!
//! The simulator is fully deterministic: identical inputs produce identical
//! cycle-level behaviour.
//!
//! The workspace-root [`docs/ARCHITECTURE.md`](../../../docs/ARCHITECTURE.md)
//! is the narrative companion to this crate: the engine core's data
//! structures, the shard superstep/mailbox protocol, closed-loop source
//! credits, and the parity-oracle rule ("never optimize `reference.rs`;
//! microarchitectural changes land in both engines") with pointers into
//! the code.
//!
//! ## The active-set engine
//!
//! [`Engine`] is the production engine, under two names: [`Simulator`]
//! (P=1, plus a manual-stepping API) and [`ShardedSimulator`] (any shard
//! grid, see below). Its per-cycle cost scales with the number of
//! in-flight flits rather than with network size:
//!
//! * link arrivals live in a cycle-indexed **arrival calendar** (a small
//!   time wheel sized to the longest link latency) and are delivered by
//!   draining one bucket per cycle — no per-link scanning;
//! * **active node bitsets** (`work_mask` for buffered flits, `src_mask`
//!   for NIC activity) gate every router pipeline stage, so quiescent
//!   routers cost nothing;
//! * VC buffers are a flat **structure-of-arrays flit slab** — fixed-depth
//!   ring buffers per (node, port, vc) slot with parallel head/len/state
//!   arrays — so steady-state simulation never allocates;
//! * a **route-compute dirty list** visits exactly the VCs whose head
//!   packet changed, and the run loops **fast-forward across idle gaps**
//!   to the next calendar arrival or trace admission (located by a
//!   word-wide probe of the calendar's occupancy bitset);
//! * per-(link, VC) **double-buffered credit cells** fold credits freed
//!   in cycle `t` into the spendable count on their first access after
//!   `t` — next-cycle visibility with no separate application pass —
//!   and the free-VC search of VC allocation is a packed-bitmask
//!   `trailing_zeros` walk; latency-1 links bypass the calendar and
//!   deposit flits directly in the destination VC at send time.
//!
//! The original full-scan engine survives unmodified in [`mod@reference`] as
//! the parity oracle: `tests/parity.rs` asserts both engines produce
//! bit-for-bit identical [`SimStats`] (latency histograms, energy counts,
//! per-link utilization) across seeds, topologies, and workloads, so the
//! paper's Fig. 6 / Table V numbers are pinned while wall-clock drops.
//!
//! ## Entry points
//!
//! [`Simulator::run_trace`] drives a [`hyppi_traffic::Trace`] to completion
//! and returns [`SimStats`] (per-packet latency statistics plus per-link and
//! per-router flit counts for energy accounting). [`Simulator::run_synthetic`]
//! injects Bernoulli traffic from a [`hyppi_traffic::TrafficMatrix`] for a
//! fixed warm-up + measurement window, used for load-latency curves.
//!
//! ## The sharded parallel engine
//!
//! The [`mod@shard`] module partitions the mesh into P rectangular shards
//! ([`hyppi_topology::ShardSpec`], quadrants by default), each owning its
//! routers' full active-set state — calendar wheel, bitsets, flit slab.
//! Shards advance in **cycle-synchronous supersteps**: each superstep is
//! a step phase (the five pipeline stages, run per shard in parallel) and
//! an exchange phase, separated by barriers. Boundary-link arrivals and
//! upstream credit returns travel through per-edge **double-buffered
//! mailboxes**; because every link has latency ≥ 1 cycle and credits
//! freed in cycle `t` become visible in `t+1`, a message exchanged at the
//! end of superstep `t` lands exactly where the in-shard calendar would
//! have put it — so [`ShardedSimulator`] is **bit-for-bit
//! `SimStats`-identical** to [`Simulator`]. Both are names of one
//! [`Engine`] struct whose run, resume, snapshot and restore methods are
//! written once, so one worker loop and one run driver serve both; the
//! names differ only in their constructor, and `Simulator` adds the
//! manual-stepping API.
//! `tests/shard_parity.rs` pins this on 16×16 cells across seeds ×
//! topologies × workloads. Head flits crossing a boundary carry their
//! packet's record (its (origin, admission number) key, destination,
//! size, injection cycle, dateline VC class); the receiving shard takes a
//! handle from its recycled packet slab and re-tags the wormhole's body
//! flits through a per-(link, VC) remap slot. A handle is freed when its
//! packet completes or its tail leaves the shard, so engine memory is
//! bounded by live traffic, not by run length.
//!
//! ## Closed-loop injection (credit-limited NICs)
//!
//! With [`SimConfig::max_outstanding`] > 0 every source NIC carries a
//! credit window: at most that many of its packets may be in the network
//! (emitted but not fully ejected) at once. A window-full source parks
//! out of the engine's `src_mask` exactly like a buffer-blocked one; the
//! credit returns when the packet's tail ejects at the destination —
//! in-shard as a direct decrement during switch traversal, cross-shard
//! as a **source-credit mailbox message** riding the existing superstep
//! exchange (boundary head flits carry the packet's origin node for
//! this). Both paths are first observable by the next cycle's emission
//! stage, so `Simulator`, `ShardedSimulator` and the frozen
//! `ReferenceSimulator` (which carries the mirror implementation) stay
//! bit-for-bit — `tests/parity.rs` and `tests/shard_parity.rs` pin
//! windows 1/4/16. Closed-loop latency is *network* latency (the
//! measured clock restarts at emission, so it stays window-bounded);
//! source overload shows up in [`SimStats::peak_backlog`] and in an
//! accepted-throughput curve ([`SimStats::accepted_flits`]) that
//! flattens at the saturation plateau instead of tracking offered load —
//! which is what makes throughput curves meaningful past the knee, where
//! open-loop runs just track offered load until the cycle cap.
//!
//! ## Load sweeps and saturation search
//!
//! The [`sweep`] module batches independent runs: [`SweepRunner`] fans an
//! injection-rate grid × seed matrix across scoped worker threads
//! ([`sweep::parallel_map`]) and reduces each offered load to a
//! [`sweep::LoadPoint`] — mean latency, log-linear p50/p95/p99 tails,
//! measured-packet throughput, and in-window accepted throughput — while
//! [`SweepRunner::find_saturation`] bisects for the saturation point:
//! open-loop, the smallest offered load whose mean latency exceeds a
//! multiple of the zero-load latency; closed-loop (a [`SimConfig`] with
//! [`SimConfig::max_outstanding`] > 0 — the runner runs the engine
//! settings it is given), the smallest offered load whose accepted
//! throughput falls off the offered-load diagonal (the accepted-plateau
//! criterion — the latency multiple cannot trigger when the window
//! bounds latency). Both engines share the
//! [`stats::LatencyStats`] histogram, so sweep statistics stay under the
//! parity oracle. A [`SweepConfig::shards`] knob routes each run through
//! the sharded engine, opening 32×32+ meshes. Grids and searches are
//! **warm-started** by default — one warm-up per (pattern, seed),
//! snapshot-resumed per rate ([`SweepConfig::cold`] opts out).
//!
//! ## Checkpoint/restore
//!
//! The [`snapshot`] module serializes the complete logical simulation
//! state at a cycle boundary into a versioned, std-only byte format
//! whose contract is: *run N cycles == snapshot + restore + run
//! remainder*, bit-for-bit in [`SimStats`] including the latency
//! histograms. The format is partition-independent — a P-shard
//! [`ShardedSimulator`] snapshot restores into a P′=1 [`Simulator`]
//! (or any shard count), and the same bytes restore into the frozen
//! [`ReferenceSimulator`] for parity checks; per-(link, VC) credits are
//! derived at import rather than stored, and the latency-1 calendar
//! bypass is stripped at export. Entry points: `snapshot`/`restore` on
//! all three engines, `run_trace_until`/`run_synthetic_until` (pause
//! mid-run, returning [`RunOutcome::Paused`]), and
//! `resume_trace`/`resume_synthetic`. `tests/snapshot_parity.rs` pins
//! the splice across open/closed-loop, express, faulted and shard-cut
//! cells. The byte-level layout, the fingerprint mismatch rules, and
//! the restore-equals-continue argument live in the workspace-root
//! [`docs/SNAPSHOT_FORMAT.md`](../../../docs/SNAPSHOT_FORMAT.md).
//!
//! ## Telemetry — the flight recorder
//!
//! The [`telemetry`] module observes the active engine without
//! perturbing it: the [`Probe`] trait is a compile-time hook threaded
//! through both active engines (`run_*_probed`), whose sites vanish for
//! the default [`NoopProbe`] (`ENABLED = false`). Instruments:
//! [`MetricsSampler`] (per-interval time series — flits, link
//! utilization, stall breakdown, VC/calendar occupancy, mailbox volume,
//! closed-loop backpressure), [`PacketTracer`] (ring-buffered packet
//! lifecycle events, JSONL or Chrome `trace_event` export), and
//! [`EngineProfile`] (superstep step/exchange/barrier wall time from
//! `run_*_profiled`). A pair of probes is a probe, so
//! `(MetricsSampler::new(100), PacketTracer::new(200_000))` records
//! both in one run. `reference.rs` carries no hooks;
//! `tests/telemetry_parity.rs` pins probed == plain [`SimStats`]
//! bit-for-bit. Schema and usage live in the workspace-root
//! [`docs/OBSERVABILITY.md`](../../../docs/OBSERVABILITY.md).

pub mod config;
pub mod energy_counts;
pub mod flit;
pub mod json;
pub mod reference;
pub mod router;
pub mod shard;
pub mod sim;
pub mod snapshot;
pub mod stats;
pub mod sweep;
pub mod telemetry;

pub use config::SimConfig;
pub use energy_counts::EnergyCounts;
pub use reference::ReferenceSimulator;
pub use shard::{Engine, ShardedSimulator};
pub use sim::{RunOutcome, SimError, Simulator};
pub use snapshot::{Snapshot, SnapshotError};
pub use stats::{LatencyStats, SimStats};
pub use sweep::{LoadCurve, LoadPoint, SaturationSearch, SweepConfig, SweepRunner};
pub use telemetry::{
    EngineProfile, MetricsSampler, NoopProbe, PacketTracer, Probe, ProfileSink, StallCause,
};
