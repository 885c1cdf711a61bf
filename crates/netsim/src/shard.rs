//! Sharded parallel simulation: the engine core plus the superstep
//! protocol that runs P mesh shards in lockstep.
//!
//! ## The engine core
//!
//! `ShardState` owns the full active-set router state — calendar wheel
//! with its occupancy bitset, work/src bitsets, SoA flit slab, packed
//! per-node control records (`NodeCtl`), arbitration masks, and
//! double-buffered credit cells (`CreditCell`) — for one subset of
//! the mesh's nodes (node subsets come from
//! [`hyppi_topology::Partition`]). `EnginePlan` holds everything
//! read-only and shared: topology, routing, config, the partition tables,
//! and the dateline VC-class masks (every packet is admitted in class A
//! and switches to class B when it crosses an express link). [`Engine`]
//! owns a plan and its shards, and goes by two names:
//! [`ShardedSimulator`] over any shard grid, and [`crate::Simulator`],
//! the P=1 engine with a manual-stepping API. There is one set of
//! pipeline-stage loops, one worker loop (`worker_loop`) and one run
//! driver (`Engine::drive`) behind every `run_*` / `resume_*` entry point
//! of both names.
//!
//! ## Shard-local indices
//!
//! A shard's tables cover only what it owns, so an engine holds O(N)
//! state at any shard count. Three numberings replace global ids inside
//! a shard, and each equals the global one at P=1:
//!
//! * **Nodes**: the shard's nodes in ascending id
//!   (`Partition::local_of_node`).
//! * **Driven links**: the links whose source the shard owns, in
//!   ascending id (`Partition::local_of_link`, carried per out-port as
//!   `OutPortInfo::rank`). Credit cells and `SimStats::link_flits` use it.
//! * **Buffer slots**: a link's receiving end is its VC-0 slot in the
//!   destination shard (`EnginePlan::in_slot`, carried per out-port as
//!   `OutPortInfo::dst_slot`). Calendar events, boundary flits and the
//!   wormhole remap use it.
//!
//! Mail names the receiver's index: a boundary flit its slot, a boundary
//! credit the cell in the shard driving the link. Only `merge_stats`,
//! snapshot export and import, and [`EngineView`] translate back to
//! global ids.
//!
//! Three hot-path structures keep the per-traversal cost low while
//! staying observable-behavior-preserving (the frozen
//! [`crate::reference`] engine is the oracle; `tests/parity.rs` pins it):
//!
//! * **Credit fusion.** Credits freed during cycle `t` must become
//!   spendable at `t+1`. Instead of staging them in a side list drained
//!   by a separate end-of-cycle pass, every (link, VC) counter is a
//!   `CreditCell` double-buffered in place (`avail` + `pending` +
//!   cycle stamp): any later access folds `pending` into `avail`, so
//!   credit application rides the traversal stage's own reads/writes.
//! * **Calendar batching.** A bucket-occupancy bitset over the wheel
//!   lets idle fast-forward locate the next arrival with word-wide
//!   `trailing_zeros` jumps (64 buckets per probe) instead of walking
//!   buckets one by one. Latency-1 intra-shard links bypass the wheel
//!   entirely: the flit is pushed straight into its destination VC at
//!   send time with the `ready` cycle a next-cycle delivery would have
//!   stamped (route computation still fires the following cycle, and an
//!   early-buffered flit cannot win arbitration before `ready`, so the
//!   timing is bit-for-bit unchanged).
//! * **Packed free-VC search.** Output-VC holders are a per-(node,
//!   out-port) bitmask; the VC-allocation free search is one
//!   `!holder & class_mask` and a `trailing_zeros` — the same VC, in the
//!   same order, a linear range probe would pick.
//!
//! ## The superstep protocol
//!
//! With P > 1 shards, every simulated cycle is one superstep of two
//! phases separated by barriers:
//!
//! 1. **Step phase.** Each shard runs the five pipeline stages for its
//!    own routers. A flit leaving through an intra-shard link lands
//!    directly in its destination VC (latency 1) or in the local
//!    calendar wheel; a flit leaving through a *boundary link* (dst
//!    owned by another shard) is appended to the per-edge outbox for the
//!    destination shard, together with its absolute arrival cycle.
//!    Credits freed for a boundary link's upstream buffer go to the
//!    outbox of the shard owning the link's source. At the end of the
//!    phase each shard swaps its filled outboxes into the shared
//!    double-buffered mailbox grid.
//! 2. **Exchange phase.** After the barrier, each shard drains the
//!    mailboxes addressed to it: boundary credits land in the pending
//!    half of the owner's credit cells (visible next cycle — the same
//!    timing as locally freed credits), and boundary flits are booked
//!    into the receiving wheel at their carried arrival cycle. Because
//!    every link has latency ≥ 1, a flit sent in superstep `t` arrives
//!    in a bucket `≥ t+1`, so landing it during the exchange of
//!    superstep `t` puts it in **exactly** the bucket the in-shard
//!    calendar would have used — this is what makes the sharded engine
//!    bit-for-bit identical to the single-shard engine.
//!
//! Every simulated cycle is one superstep. A conservative-lookahead
//! window (exchanging every W cycles, W = the smallest boundary-link
//! latency) cannot exceed W=2 on these meshes — HyPPI links take 2
//! cycles — and W=2 measured no faster than W=1 at 64×64 on a 2-thread
//! host, so the engine keeps the one-cycle exchange.
//!
//! ## Packet identity and lifetime
//!
//! A packet's identity is (origin node, admission number at that origin):
//! the owner of the origin numbers its admissions, so the key does not
//! depend on the partition. Packet bookkeeping (`PacketInfo`, which holds
//! the key, and the dateline `VcClass`) lives in a per-shard slab of
//! handles with a free list. A head flit crossing a boundary carries its
//! packet's record (key, destination, size, injection cycle, current VC
//! class) in the mailbox message; the receiving shard takes a handle and
//! records it in a per-(link, VC) remap slot. Wormhole flow control
//! guarantees the flits of a packet traverse a link's VC contiguously and
//! in order, so body and tail flits are re-tagged from the same remap
//! slot. A handle is freed when its packet completes at the destination
//! shard, or when its tail leaves the shard through a boundary link: the
//! tail is the last flit of its packet to pass any point of the route.
//! So a shard holds one handle per visit of a live packet's route (an
//! express dip or an up*/down* detour may leave a shard and come back),
//! and its table never grows past its peak count of live handles. Latency is recorded
//! where the tail ejects, from the carried injection cycle;
//! [`crate::stats::LatencyStats`] merging is commutative, so the merged
//! histogram equals the single-shard one exactly.
//!
//! ## Closed-loop injection (source credits)
//!
//! With [`SimConfig::max_outstanding`] > 0 every NIC carries a credit
//! window: a source may have at most that many packets in the network
//! (emitted but not yet fully ejected) and parks out of `src_mask` once
//! the window is full. The credit returns when the packet's tail ejects
//! at the destination. In-shard the ejecting router decrements the
//! source's occupancy directly during switch traversal — first observable
//! by the emission stage of the *next* cycle, because emission runs
//! before switch traversal within a cycle. A cross-shard ejection
//! appends the source node to the mailbox bundle for the shard owning
//! it; the credit is applied during that superstep's exchange phase and
//! is likewise first observable next cycle — so the two paths have
//! identical timing and the sharded engine stays bit-for-bit. Since any
//! shard pair can exchange source credits (a packet may traverse the
//! whole mesh), closed-loop plans widen the mailbox adjacency to all
//! pairs. Boundary head flits carry the packet's *origin* node so the
//! destination shard knows where to return the credit.
//!
//! ## Lockstep control
//!
//! Run-loop decisions (idle fast-forward, termination, cycle-limit
//! failure) are taken redundantly by every worker from identical data:
//! each worker scans the *full* trace (admitting only its own sources),
//! and per-worker activity flags / next-arrival cycles are published at
//! the end of each superstep. A synthetic run's injection window is the
//! same cycle range on every worker, and each worker draws only for its
//! own shards' nodes: a draw is a pure function of (seed, node, cycle)
//! ([`hyppi_traffic::injection_draw`]), so no generator state is shared or
//! replayed. All workers therefore jump, step, and stop on the same cycle
//! without a central coordinator.

use crate::config::SimConfig;
use crate::flit::{meta, PacketInfo, SlotFlit, READY_SPAN};
use crate::router::{Emission, NodeState};
use crate::sim::{rescan_trace_cursor, RunOutcome, SimError};
use crate::snapshot::{
    plan_fingerprint, synthetic_fingerprint, trace_fingerprint, EmissionImage, EventImage,
    FlitImage, GlobalState, NodeImage, PacketImage, SlotImage, Snapshot, SnapshotError,
};
use crate::stats::SimStats;
use crate::telemetry::{
    EngineProfile, EngineView, NoopProbe, PacketKey, Probe, ProfileSink, StallCause,
};
use hyppi_topology::{LinkId, NodeId, Partition, RoutingTable, ShardSpec, Topology};
use hyppi_traffic::{injection_draw, BurstState, Trace, TrafficMatrix};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

/// Dateline VC class of a packet (see the `router` module docs). Without
/// express links both classes open every VC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VcClass {
    /// Before the first express traversal (every packet at admission).
    A,
    /// After the first express traversal, for the rest of the walk.
    B,
}

/// One booked link arrival: (destination buffer slot, flit).
pub(crate) type ArrivalEvent = (u32, SlotFlit);

/// One lazily-normalized credit counter for a downstream (link, VC)
/// buffer. Credits freed during cycle `t` must not be spendable until
/// cycle `t+1`; instead of staging them in a side list that a separate
/// end-of-cycle pass drains, the counter is double-buffered in place:
/// `avail` is the spendable count as of cycle `stamp`, `pending` holds
/// credits freed *during* cycle `stamp`. Any access at a later cycle
/// first folds `pending` into `avail` — so credit application rides the
/// switch-traversal stage's own reads and writes and no separate scan
/// exists. (Mailbox credits ingested during the superstep exchange of
/// cycle `t` land in `pending` with the same stamp, preserving the
/// identical next-cycle visibility of the cross-shard path.)
#[derive(Debug, Clone, Copy)]
pub(crate) struct CreditCell {
    /// Cycle `avail`/`pending` were last touched.
    stamp: u64,
    /// Credits spendable at cycle `stamp`.
    avail: u16,
    /// Credits freed during cycle `stamp` (spendable from `stamp + 1`).
    pending: u16,
}

impl CreditCell {
    #[inline]
    fn new(depth: u16) -> Self {
        CreditCell {
            stamp: 0,
            avail: depth,
            pending: 0,
        }
    }

    /// Folds `pending` into `avail` if the cell was last touched before
    /// `now`, then returns the spendable count.
    #[inline]
    fn normalize(&mut self, now: u64) -> u16 {
        if self.stamp != now {
            self.avail += self.pending;
            self.pending = 0;
            self.stamp = now;
        }
        self.avail
    }

    /// Books one freed credit at cycle `now` (spendable from `now + 1`).
    #[inline]
    fn free(&mut self, now: u64) {
        self.normalize(now);
        self.pending += 1;
    }

    /// Spends one credit at cycle `now`.
    #[inline]
    fn take(&mut self, now: u64) {
        let avail = self.normalize(now);
        debug_assert!(avail > 0, "credit underflow");
        self.avail -= 1;
    }
}

/// Hot per-node control state packed into one record (one cache line's
/// worth of data): the arbitration stages read and update most of these
/// fields on every visit to a work-active node, so keeping them together
/// replaces seven scattered array touches per visit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeCtl {
    /// First buffer slot of the node (`slot = vc_base + in_port*vcs + vc`).
    vc_base: u32,
    /// First out-port entry of the node.
    port_base: u32,
    /// Bitmask of in-ports that already sent a flit this cycle.
    in_port_used: u32,
    /// Flits buffered at the node (active-set membership count).
    pub(crate) buffered: u32,
    /// Out-ports with a non-empty `routed_mask` (bit = out-port index) —
    /// the VA stage walks set bits instead of probing every port's mask.
    routed_ports: u16,
    /// Out-ports with a non-empty `active_mask`.
    active_ports: u16,
    /// Input VCs currently `Routed` (VA fast skip).
    routed_count: u16,
    /// Arbitration scan width (`in_ports * vcs`).
    total_in_vcs: u8,
}

/// Packed per-(node, out-port) link facts consumed by the traversal
/// winner path: one 16-byte load instead of scattered table reads.
#[derive(Debug, Clone, Copy)]
struct OutPortInfo {
    /// The link's index among the links this shard drives
    /// (`Partition::local_of_link`): its credit cells and its
    /// `link_flits` entry. `u32::MAX` for the ejection port.
    rank: u32,
    /// Buffer slot of VC 0 that the link feeds, in the slot layout of
    /// the shard owning its destination ([`EnginePlan::in_slot`]).
    dst_slot: u32,
    /// Shard owning the link's destination (own id for ejection).
    dst_shard: u16,
    /// Link latency in cycles (0 for ejection).
    latency: u8,
    /// Express link (dateline class-B transition on traversal).
    express: bool,
    /// Fault-degraded link (halved usable-VC set, see `EnginePlan::class_mask`).
    degraded: bool,
}

/// Iterator over the set bits of a mask in cyclic (round-robin) order
/// starting at `start`: indices `start.., then 0..start`, restricted to
/// set bits. This visits exactly the candidates a full modular scan
/// `(start + k) % width` would accept, in the same order, so replacing
/// the scans with mask walks preserves arbitration bit-for-bit.
struct CyclicBits {
    hi: u64,
    lo: u64,
}

impl Iterator for CyclicBits {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        let bits = if self.hi != 0 {
            &mut self.hi
        } else if self.lo != 0 {
            &mut self.lo
        } else {
            return None;
        };
        let b = bits.trailing_zeros();
        *bits &= *bits - 1;
        Some(b as usize)
    }
}

#[inline]
fn cyclic_bits(mask: u64, start: usize) -> CyclicBits {
    debug_assert!(start < 64);
    let hi_mask = u64::MAX << start;
    CyclicBits {
        hi: mask & hi_mask,
        lo: mask & !hi_mask,
    }
}

// ---- shared read-only plan ---------------------------------------------

/// Everything shared and immutable across the shards of one simulation:
/// topology, routing, configuration, partition tables, and the dateline
/// VC-class masks. A packet's class needs no per-route table: it is
/// class A from admission and turns class B at its first express hop.
pub(crate) struct EnginePlan<'a> {
    pub topo: &'a Topology,
    pub routes: &'a RoutingTable,
    pub cfg: SimConfig,
    pub partition: Partition,
    /// Express-dateline VC classes in force (see `router` module docs).
    pub dateline: bool,
    /// Bitmask of the VCs open to class-A packets (bit = VC index; see
    /// [`Self::class_mask`]), consumed by the trailing-zeros free-VC
    /// search in VC allocation and by injection-VC selection.
    pub class_a_mask: u32,
    /// Bitmask of the VCs open to class-B packets.
    pub class_b_mask: u32,
    /// `class_a_mask` restricted to a fault-degraded link: the lowest
    /// `max(1, half)` of the class's VCs (see [`Self::class_mask`]).
    pub degraded_class_a_mask: u32,
    /// `class_b_mask` restricted to a fault-degraded link.
    pub degraded_class_b_mask: u32,
    /// Healthy-mesh topology and routes, present only when simulating a
    /// faulted topology: used to charge `SimStats::rerouted_hops` for the
    /// extra hops a packet takes versus its healthy route.
    pub baseline: Option<(&'a Topology, &'a RoutingTable)>,
    /// In-port index (at the link's dst node) fed by each link.
    pub in_port_of_link: Vec<u8>,
    /// First buffer slot of each node in its shard's slot layout: the
    /// shard's nodes in ascending id, `in_ports × vcs` slots each.
    pub slot_base: Vec<u32>,
    /// Calendar wheel length (power of two > max link latency).
    pub wheel_len: usize,
    /// For each shard, the sorted shards that may address mail to it
    /// (boundary-flit senders and boundary-credit returners).
    pub inbox_sources: Vec<Vec<u16>>,
}

impl<'a> EnginePlan<'a> {
    pub fn new(
        topo: &'a Topology,
        routes: &'a RoutingTable,
        cfg: SimConfig,
        partition: Partition,
    ) -> Self {
        assert_eq!(routes.num_nodes(), topo.num_nodes());
        cfg.validate();
        let dateline = topo.count_links(|l| l.is_express()) > 0;
        // Class A (admission) takes the VCs below class B's top quarter;
        // with one VC it would get none, and no source could emit.
        assert!(
            !dateline || cfg.vcs >= 2,
            "an express (dateline) mesh needs at least 2 VCs, one per class ({} requested)",
            cfg.vcs
        );
        let mut in_port_of_link = vec![0u8; topo.links().len()];
        for node in topo.nodes() {
            for (i, &lid) in topo.incoming(node).iter().enumerate() {
                in_port_of_link[lid.index()] = (i + 1) as u8;
            }
        }
        let mut slot_base = vec![0u32; topo.num_nodes()];
        for nodes in &partition.nodes_of_shard {
            let mut next = 0u32;
            for &v in nodes {
                slot_base[v.index()] = next;
                next += ((1 + topo.incoming(v).len()) * cfg.vcs) as u32;
            }
        }
        // Calendar sized to cover the longest link latency. Zero-latency
        // links would land arrivals in the bucket stage 1 already drained
        // this cycle (delivering them a whole revolution late), so the
        // wheel requires every latency ≥ 1 — same-cycle delivery is not a
        // thing in the reference engine either. Latency ≥ 1 is also what
        // lets the superstep exchange land boundary flits on time.
        assert!(
            topo.links().iter().all(|l| l.latency_cycles >= 1),
            "link latencies must be >= 1 cycle"
        );
        let max_latency = topo
            .links()
            .iter()
            .map(|l| u64::from(l.latency_cycles))
            .max()
            .unwrap_or(1);
        let wheel_len = (max_latency + 2).next_power_of_two() as usize;
        // Shard mail adjacency: s receives flits over links into it and
        // credits over links out of it. Closed-loop source credits flow
        // from a packet's destination shard back to its origin shard —
        // any pair — so a window in force widens the adjacency to all
        // pairs.
        let shards = partition.num_shards();
        let mut sources: Vec<Vec<u16>> = vec![Vec::new(); shards];
        if cfg.max_outstanding > 0 {
            for (d, v) in sources.iter_mut().enumerate() {
                v.extend((0..shards as u16).filter(|&s| usize::from(s) != d));
            }
        } else {
            for l in topo.links() {
                let s = partition.link_src_shard[l.id.index()];
                let d = partition.link_dst_shard[l.id.index()];
                if s != d {
                    if !sources[usize::from(d)].contains(&s) {
                        sources[usize::from(d)].push(s);
                    }
                    if !sources[usize::from(s)].contains(&d) {
                        sources[usize::from(s)].push(d);
                    }
                }
            }
            for v in &mut sources {
                v.sort_unstable();
            }
        }
        let all_vcs: u32 = if cfg.vcs == 32 {
            u32::MAX
        } else {
            (1u32 << cfg.vcs) - 1
        };
        let (class_a_mask, class_b_mask) = if dateline {
            // Class B takes the top quarter of the VCs (see `class_mask`).
            let a = all_vcs >> (cfg.vcs / 4).max(1);
            (a, all_vcs & !a)
        } else {
            (all_vcs, all_vcs)
        };
        // A degraded link keeps the lowest half of each class's VCs,
        // rounded down but never below one — every dateline class stays
        // usable, so the class-B escape argument is untouched.
        let halve_low = |mask: u32| -> u32 {
            let keep = (mask.count_ones() / 2).max(1);
            let mut m = mask;
            let mut kept = 0u32;
            let mut out = 0u32;
            while m != 0 && kept < keep {
                let low = m & m.wrapping_neg();
                out |= low;
                m &= m - 1;
                kept += 1;
            }
            out
        };
        let (degraded_class_a_mask, degraded_class_b_mask) =
            (halve_low(class_a_mask), halve_low(class_b_mask));
        // The class shortcut of VC allocation (`alloc_and_traverse`) skips
        // the head packet's class without a dateline; that is exact only
        // while both classes open the same VCs, healthy and degraded.
        debug_assert!(
            dateline
                || (class_a_mask == class_b_mask && degraded_class_a_mask == degraded_class_b_mask),
            "classes differ without a dateline"
        );
        EnginePlan {
            topo,
            routes,
            cfg,
            partition,
            dateline,
            class_a_mask,
            class_b_mask,
            degraded_class_a_mask,
            degraded_class_b_mask,
            baseline: None,
            in_port_of_link,
            slot_base,
            wheel_len,
            inbox_sources: sources,
        }
    }

    /// Buffer slot of VC 0 fed by link `lid`, in the slot layout of the
    /// shard owning the link's destination.
    #[inline]
    pub fn in_slot(&self, lid: usize) -> u32 {
        let dst = self.topo.links()[lid].dst;
        self.slot_base[dst.index()] + u32::from(self.in_port_of_link[lid]) * self.cfg.vcs as u32
    }

    /// Installs the healthy-mesh baseline used to account
    /// `SimStats::rerouted_hops` on a faulted topology.
    pub fn set_baseline(&mut self, topo: &'a Topology, routes: &'a RoutingTable) {
        assert_eq!(routes.num_nodes(), topo.num_nodes());
        assert_eq!(topo.num_nodes(), self.topo.num_nodes());
        self.baseline = Some((topo, routes));
    }

    /// Extra hops the faulted route src → dst takes versus the healthy
    /// baseline route (clamped at zero; zero with no baseline installed).
    pub fn extra_hops(&self, src: NodeId, dst: NodeId) -> u64 {
        let Some((base_topo, base_routes)) = self.baseline else {
            return 0;
        };
        if src == dst || !self.routes.reachable(src, dst) {
            return 0;
        }
        let faulted = u64::from(self.routes.hops(self.topo, src, dst));
        let healthy = u64::from(base_routes.hops(base_topo, src, dst));
        faulted.saturating_sub(healthy)
    }

    /// Bitmask of the VCs a packet of the given dateline class may
    /// request on an out-port (bit = VC index).
    ///
    /// Class B (post-express walks — short and comparatively rare) gets
    /// the top quarter of the VCs; class A (packets before their first
    /// express traversal, which includes every packet whose route never
    /// touches an express link) shares the rest. Class-B channels are
    /// only ever requested by post-express packets, whose walks are
    /// monotone, so class-B dependencies are acyclic and no dependency
    /// points from class B back to class A (see the `router` module
    /// docs). Without express links no discipline is needed and both
    /// classes open every VC.
    ///
    /// A fault-`degraded` link keeps the lowest `max(1, half)` VCs of the
    /// class. Every mask is a contiguous run of its class's low VCs, so
    /// walking it with `trailing_zeros` visits the VCs the reference
    /// engine's range scans visit, in the same ascending order.
    #[inline]
    pub(crate) fn class_mask(&self, class: VcClass, degraded: bool) -> u32 {
        match (class, degraded) {
            (VcClass::A, false) => self.class_a_mask,
            (VcClass::B, false) => self.class_b_mask,
            (VcClass::A, true) => self.degraded_class_a_mask,
            (VcClass::B, true) => self.degraded_class_b_mask,
        }
    }
}

// ---- mailboxes ----------------------------------------------------------

/// One boundary-crossing flit: the wire-level event plus, for head flits,
/// the packet record the receiving shard needs to take a local handle.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BoundaryFlit {
    /// The receiving buffer slot (link and VC), in the receiving shard's
    /// slot layout.
    pub slot: u32,
    pub is_head: bool,
    pub is_tail: bool,
    /// Packet dateline class at send time (meaningful for heads).
    pub class: VcClass,
    /// Absolute arrival cycle (`send cycle + link latency`).
    pub arrive: u64,
    /// The packet's record (meaningful for heads): its key, its
    /// destination, and its origin `src`, where the destination shard
    /// returns the closed-loop source credit. Nothing has ejected yet.
    pub packet: PacketInfo,
}

/// The messages one shard sends another during one superstep.
#[derive(Debug, Default)]
pub(crate) struct OutBundle {
    /// Boundary link arrivals.
    pub flits: Vec<BoundaryFlit>,
    /// Boundary credit returns: credit-cell indices (`rank * vcs + vc`)
    /// in the receiving shard.
    pub credits: Vec<u32>,
    /// Closed-loop source credits: origin nodes (owned by the receiving
    /// shard) whose packet completed at a destination this shard owns.
    pub src_credits: Vec<u16>,
}

impl OutBundle {
    fn is_empty(&self) -> bool {
        self.flits.is_empty() && self.credits.is_empty() && self.src_credits.is_empty()
    }
}

/// Per-worker lockstep state published at the end of every superstep.
struct Published {
    /// Any owned shard has buffered flits or NIC work.
    active: AtomicBool,
    /// Earliest booked arrival across owned shards (absolute cycle;
    /// `u64::MAX` = none). Only meaningful when `active` is false.
    next_arrival: AtomicU64,
}

/// Shared coordination state of one sharded run.
struct Shared {
    /// Double-buffered mailbox grid, `mail[from][to]`. Senders swap their
    /// filled bundles in at the end of the step phase; receivers swap
    /// them back out during the exchange phase, so each edge recycles two
    /// bundle allocations with zero steady-state allocation.
    mail: Vec<Vec<Mutex<OutBundle>>>,
    published: Vec<Published>,
    barrier: Barrier,
    /// Cycle-limit failure accumulators (error path only). Origins and
    /// completions are summed separately because a net-importer shard
    /// completes more packets than it originates — only the *global*
    /// difference is guaranteed non-negative.
    stuck_origins: AtomicU64,
    stuck_completed: AtomicU64,
}

impl Shared {
    fn new(shards: usize, workers: usize) -> Self {
        Shared {
            mail: (0..shards)
                .map(|_| {
                    (0..shards)
                        .map(|_| Mutex::new(OutBundle::default()))
                        .collect()
                })
                .collect(),
            published: (0..workers)
                .map(|_| Published {
                    active: AtomicBool::new(false),
                    next_arrival: AtomicU64::new(u64::MAX),
                })
                .collect(),
            barrier: Barrier::new(workers),
            stuck_origins: AtomicU64::new(0),
            stuck_completed: AtomicU64::new(0),
        }
    }
}

// ---- per-shard engine state --------------------------------------------

/// The full active-set router state of one mesh shard, sized by what the
/// shard owns: node-, link- and slot-indexed arrays use the shard-local
/// indices of the module docs.
pub(crate) struct ShardState {
    pub(crate) id: usize,
    nodes: Vec<NodeState>,
    /// Global node id of each local node.
    global_of_node: Vec<u16>,
    /// Packed hot control state per local node — see [`NodeCtl`].
    pub(crate) ctl: Vec<NodeCtl>,
    // --- SoA VC storage, indexed by shard-local slot ---
    /// Owning local node of each slot (RC dirty-list lookups).
    node_of_slot: Vec<u16>,
    /// Packed per-slot metadata: state machine + ring-buffer cursor in
    /// one word (see [`meta`]).
    slot_meta: Vec<u32>,
    /// Flit slab: `ring` contiguous entries per slot.
    flit_buf: Vec<SlotFlit>,
    /// Ring stride of `flit_buf` (power of two ≥ `depth`).
    ring: usize,
    /// `ring - 1`, for masked wrap-around.
    ring_mask: usize,
    /// Configured buffer depth (occupancy bound; copied from the plan so
    /// the hot push path needs no plan argument).
    depth: usize,
    /// In-port of each slot (`idx / vcs`, precomputed).
    in_port_of_slot: Vec<u8>,
    /// VC index of each slot (`idx % vcs`, precomputed).
    vc_of_slot: Vec<u8>,
    /// Free downstream slots of every link this shard drives, flattened
    /// `[rank * vcs + vc]` (`OutPortInfo::rank`). Each cell is
    /// double-buffered in place ([`CreditCell`]) so credits freed during a
    /// cycle become spendable next cycle without a separate end-of-cycle
    /// application pass.
    credits: Vec<CreditCell>,
    // --- flattened per-port router control state ---
    /// Routed-VC bitmask per (node, out-port) — bit = in-VC index.
    routed_mask: Vec<u64>,
    /// Active-VC bitmask per (node, out-port) — bit = in-VC index.
    active_mask: Vec<u64>,
    /// VC-allocation round-robin pointer per (node, out-port).
    va_rr: Vec<u8>,
    /// Switch-allocation round-robin pointer per (node, out-port).
    sa_rr: Vec<u8>,
    /// Held output VCs per (node, out-port), bit = out-VC index. The
    /// free-VC search is one `!holder & class_mask` + `trailing_zeros`
    /// over this packed form. The holding (in-port, in-VC) is not kept:
    /// each active slot's metadata names its out-VC, which snapshot
    /// export writes and import folds back into this mask.
    holder_mask: Vec<u32>,
    /// Packed link facts per (node, out-port) — see [`OutPortInfo`].
    out_port_info: Vec<OutPortInfo>,
    /// Upstream credit index (`rank * vcs + vc` in the shard driving the
    /// in-link) freed when a flit pops from this slot; `u32::MAX` for
    /// injection-port slots.
    credit_of_slot: Vec<u32>,
    /// Shard owning the upstream end of each slot's in-port (own id for
    /// injection and intra-shard links).
    src_shard_of_slot: Vec<u16>,
    // --- arrival calendar ---
    /// Cycle-indexed arrival buckets; slot `cycle & wheel_mask`.
    pub(crate) wheel: Vec<Vec<ArrivalEvent>>,
    wheel_mask: u64,
    /// Occupancy bitset over the wheel's buckets (bit `b` of word
    /// `b / 64` set ⇔ bucket `b` is non-empty). Idle fast-forward finds
    /// the next arrival with word-wide `trailing_zeros` jumps instead of
    /// probing buckets one by one.
    wheel_occ: Vec<u64>,
    /// Flits currently traversing links into this shard (booked in
    /// `wheel`).
    pub(crate) inflight_arrivals: u64,
    // --- active sets ---
    /// Bit per local node: has any buffered flit (gates RC/VA/SA).
    work_mask: Vec<u64>,
    /// Bit per local node: NIC queue non-empty or emission in progress.
    src_mask: Vec<u64>,
    /// Slots whose fresh head packet needs route computation.
    pub(crate) rc_dirty: Vec<u32>,
    /// Packet holding the slot's output VC, written when VC allocation
    /// grants it (valid while the slot's tag is `ACTIVE`; stale
    /// otherwise). Only read by snapshot export, for the corner where an
    /// active slot's buffered flits have all been forwarded.
    active_pid: Vec<u32>,
    // --- packet bookkeeping (a slab of shard-local handles) ---
    /// Packet record per handle; `flits == 0` marks a free handle.
    packets: Vec<PacketInfo>,
    /// Dateline class per handle.
    class_of: Vec<VcClass>,
    /// Free handles, reused before the slab grows (see [`Self::alloc`]).
    free: Vec<u32>,
    /// Next admission number per local node (its packets' key half).
    next_admission: Vec<u32>,
    /// In-transit wormhole remap per receiving slot: the local handle
    /// body/tail flits arriving on that (link, VC) channel belong to.
    /// Written when a boundary head is ingested; empty when no link
    /// crosses into this shard.
    remap: Vec<u32>,
    /// Outgoing mailbox staging, one bundle per destination shard.
    outbox: Vec<OutBundle>,
    /// Closed-loop window occupancy per local node: packets emitted but
    /// not yet fully ejected. Only maintained when the plan has a window
    /// (`cfg.max_outstanding > 0`); stays all-zero open-loop.
    pub(crate) outstanding: Vec<u32>,
    /// Acceptance window for `stats.accepted_flits`: ejections in cycles
    /// `[accept_from, accept_until)` count. Set by the run loop — the
    /// measurement window for synthetic runs, the whole run for traces.
    pub(crate) accept_from: u64,
    pub(crate) accept_until: u64,
    /// Packets queued at owned NICs or mid-emission.
    pub(crate) pending_sources: u64,
    /// Packets admitted at owned sources (not immigrant handles).
    pub(crate) origin_packets: u64,
    /// Packets fully ejected at owned destinations.
    pub(crate) completed_packets: u64,
    /// This shard's statistics: `link_flits` per driven-link rank, the
    /// per-node vectors per local node.
    pub(crate) stats: SimStats,
}

/// `(idx + 1) % total` without the division (RR pointer advance).
#[inline]
fn rr_next(idx: usize, total: usize) -> u8 {
    let nxt = idx + 1;
    if nxt == total {
        0
    } else {
        nxt as u8
    }
}

impl ShardState {
    /// Builds the state of shard `id` under `plan`, in time and space
    /// proportional to the nodes and links it owns.
    pub fn new(plan: &EnginePlan<'_>, id: usize) -> Self {
        let cfg = plan.cfg;
        let topo = plan.topo;
        let part = &plan.partition;
        let owned = &part.nodes_of_shard[id];
        let nodes: Vec<NodeState> = owned.iter().map(|&n| NodeState::new(topo, n)).collect();
        let global_of_node: Vec<u16> = owned.iter().map(|n| n.0).collect();
        // Flat slot layout (`EnginePlan::slot_base`), with the upstream
        // credit index and owner shard of every slot resolved up front
        // (the traversal winner path reads them with single slot-indexed
        // loads).
        let total_slots: usize = nodes.iter().map(|st| st.in_ports() * cfg.vcs).sum();
        let mut node_of_slot = Vec::with_capacity(total_slots);
        let mut in_port_of_slot = Vec::with_capacity(total_slots);
        let mut vc_of_slot = Vec::with_capacity(total_slots);
        let mut credit_of_slot = Vec::with_capacity(total_slots);
        let mut src_shard_of_slot = Vec::with_capacity(total_slots);
        let mut fed_from_outside = false;
        for (i, st) in nodes.iter().enumerate() {
            debug_assert_eq!(plan.slot_base[st.node.index()] as usize, node_of_slot.len());
            let slots = st.in_ports() * cfg.vcs;
            assert!(
                slots <= 64,
                "per-node VC count {slots} exceeds the 64-bit arbitration masks \
                 (node {}: {} in-ports × {} VCs)",
                st.node.0,
                st.in_ports(),
                cfg.vcs
            );
            node_of_slot.extend(std::iter::repeat_n(i as u16, slots));
            for idx in 0..slots {
                let in_port = idx / cfg.vcs;
                let vc = idx % cfg.vcs;
                in_port_of_slot.push(in_port as u8);
                vc_of_slot.push(vc as u8);
                if in_port == 0 {
                    credit_of_slot.push(u32::MAX);
                    src_shard_of_slot.push(id as u16);
                } else {
                    let lid = st.in_links[in_port - 1].index();
                    let rank = part.local_of_link[lid] as usize;
                    credit_of_slot.push((rank * cfg.vcs + vc) as u32);
                    src_shard_of_slot.push(part.link_src_shard[lid]);
                    fed_from_outside |= usize::from(part.link_src_shard[lid]) != id;
                }
            }
        }
        // Flat per-port layout with the link facts of each out-port
        // packed into one record ([`OutPortInfo`]).
        let total_out_ports: usize = nodes.iter().map(NodeState::out_ports).sum();
        let mut port_base = Vec::with_capacity(nodes.len());
        let mut total_in_vcs_of = Vec::with_capacity(nodes.len());
        let mut out_port_info = Vec::with_capacity(total_out_ports);
        for st in &nodes {
            port_base.push(out_port_info.len() as u32);
            assert!(
                st.out_ports() <= 15,
                "out-port count {} exceeds the packed slot-meta field",
                st.out_ports()
            );
            total_in_vcs_of.push((st.in_ports() * cfg.vcs) as u8);
            out_port_info.push(OutPortInfo {
                rank: u32::MAX, // ejection port
                dst_slot: u32::MAX,
                dst_shard: id as u16,
                latency: 0,
                express: false,
                degraded: false,
            });
            for &l in &st.out_links {
                let link = topo.link(l);
                assert!(
                    link.latency_cycles <= u32::from(u8::MAX),
                    "link latency {} exceeds the packed out-port record",
                    link.latency_cycles
                );
                out_port_info.push(OutPortInfo {
                    rank: part.local_of_link[l.index()],
                    dst_slot: plan.in_slot(l.index()),
                    dst_shard: part.link_dst_shard[l.index()],
                    latency: link.latency_cycles as u8,
                    express: link.is_express(),
                    degraded: link.degraded,
                });
            }
        }
        let driven_links = total_out_ports - nodes.len();
        let ctl: Vec<NodeCtl> = (0..nodes.len())
            .map(|i| NodeCtl {
                vc_base: plan.slot_base[owned[i].index()],
                port_base: port_base[i],
                in_port_used: 0,
                buffered: 0,
                routed_ports: 0,
                active_ports: 0,
                routed_count: 0,
                total_in_vcs: total_in_vcs_of[i],
            })
            .collect();
        let ring = cfg.buffer_depth.next_power_of_two();
        let filler = SlotFlit::new(0, false, false, 0);
        let mask_words = nodes.len().div_ceil(64).max(1);
        let n_local = nodes.len();
        let shards = part.num_shards();
        ShardState {
            id,
            global_of_node,
            ctl,
            slot_meta: vec![0; total_slots],
            flit_buf: vec![filler; total_slots * ring],
            ring,
            ring_mask: ring - 1,
            depth: cfg.buffer_depth,
            in_port_of_slot,
            vc_of_slot,
            node_of_slot,
            routed_mask: vec![0; total_out_ports],
            active_mask: vec![0; total_out_ports],
            va_rr: vec![0; total_out_ports],
            sa_rr: vec![0; total_out_ports],
            holder_mask: vec![0; total_out_ports],
            out_port_info,
            credit_of_slot,
            src_shard_of_slot,
            nodes,
            credits: vec![CreditCell::new(cfg.buffer_depth as u16); driven_links * cfg.vcs],
            wheel: vec![Vec::new(); plan.wheel_len],
            wheel_mask: (plan.wheel_len - 1) as u64,
            wheel_occ: vec![0; plan.wheel_len.div_ceil(64)],
            inflight_arrivals: 0,
            work_mask: vec![0; mask_words],
            src_mask: vec![0; mask_words],
            rc_dirty: Vec::new(),
            active_pid: vec![u32::MAX; total_slots],
            packets: Vec::new(),
            class_of: Vec::new(),
            free: Vec::new(),
            next_admission: vec![0; n_local],
            remap: if fed_from_outside {
                vec![u32::MAX; total_slots]
            } else {
                Vec::new()
            },
            outbox: (0..shards).map(|_| OutBundle::default()).collect(),
            outstanding: vec![0; n_local],
            accept_from: 0,
            accept_until: u64::MAX,
            pending_sources: 0,
            origin_packets: 0,
            completed_packets: 0,
            stats: SimStats::new(driven_links, n_local),
        }
    }

    /// Each link this shard drives: (its rank, its global id).
    pub(crate) fn driven_links(&self) -> impl Iterator<Item = (usize, LinkId)> + '_ {
        self.nodes.iter().zip(&self.ctl).flat_map(move |(st, c)| {
            let ports = &self.out_port_info[c.port_base as usize + 1..];
            st.out_links
                .iter()
                .zip(ports)
                .map(|(&l, opi)| (opi.rank as usize, l))
        })
    }

    /// The link feeding buffer slot `slot`, and the slot's VC (slot of a
    /// link in-port, not an injection port).
    fn link_of_slot(&self, slot: usize) -> (LinkId, u8) {
        let st = &self.nodes[usize::from(self.node_of_slot[slot])];
        let in_port = usize::from(self.in_port_of_slot[slot]);
        (st.in_links[in_port - 1], self.vc_of_slot[slot])
    }

    // ---- active-set plumbing -------------------------------------------

    #[inline]
    fn set_work(&mut self, node: usize) {
        self.work_mask[node >> 6] |= 1u64 << (node & 63);
    }

    #[inline]
    fn clear_work(&mut self, node: usize) {
        self.work_mask[node >> 6] &= !(1u64 << (node & 63));
    }

    #[inline]
    fn set_src(&mut self, node: usize) {
        self.src_mask[node >> 6] |= 1u64 << (node & 63);
    }

    #[inline]
    fn clear_src(&mut self, node: usize) {
        self.src_mask[node >> 6] &= !(1u64 << (node & 63));
    }

    /// True when no owned router can do any work this cycle (flits may
    /// still be traversing links — check [`Self::next_arrival_cycle`]).
    #[inline]
    pub(crate) fn quiescent(&self) -> bool {
        self.work_mask.iter().all(|&w| w == 0) && self.src_mask.iter().all(|&w| w == 0)
    }

    /// Cycle of the earliest booked link arrival ≥ `now`, if any. The
    /// calendar only holds arrivals within one wheel revolution of `now`,
    /// and the occupancy bitset answers "which bucket next" a word (64
    /// buckets) at a time: one masked load plus `trailing_zeros` per
    /// word, so a multi-cycle idle gap is skipped in one jump instead of
    /// probing buckets one by one.
    pub(crate) fn next_arrival_cycle(&self, now: u64) -> Option<u64> {
        if self.inflight_arrivals == 0 {
            return None;
        }
        let len = self.wheel.len() as u64;
        let start = (now & self.wheel_mask) as usize;
        let nwords = self.wheel_occ.len();
        let sw = start >> 6;
        // Buckets ≥ start in the starting word…
        let head = self.wheel_occ[sw] & (u64::MAX << (start & 63));
        if head != 0 {
            return Some(now + u64::from(head.trailing_zeros()) - (start & 63) as u64);
        }
        // …then whole words onward, wrapping; the k == nwords pass picks
        // up the starting word's buckets below `start`.
        for k in 1..=nwords {
            let wi = (sw + k) % nwords;
            let w = if wi == sw {
                self.wheel_occ[wi] & !(u64::MAX << (start & 63))
            } else {
                self.wheel_occ[wi]
            };
            if w != 0 {
                let bucket = ((wi as u64) << 6) + u64::from(w.trailing_zeros());
                let off = (bucket + len - start as u64) & self.wheel_mask;
                return Some(now + off);
            }
        }
        debug_assert!(false, "inflight arrivals but empty occupancy bitset");
        None
    }

    /// Books one link arrival into the calendar, maintaining the
    /// occupancy bitset.
    #[inline]
    fn wheel_push(&mut self, arrive: u64, ev: ArrivalEvent) {
        let bucket = (arrive & self.wheel_mask) as usize;
        self.wheel[bucket].push(ev);
        self.wheel_occ[bucket >> 6] |= 1u64 << (bucket & 63);
        self.inflight_arrivals += 1;
    }

    /// Appends `f` to a VC ring, updating active-set state. Marks the slot
    /// RC-dirty when `f` lands at the head of an idle VC (then it is a
    /// fresh head flit by the VC-allocation contract).
    #[inline]
    fn push_flit(&mut self, node: usize, slot: usize, f: SlotFlit) {
        let m = self.slot_meta[slot];
        let len = meta::len(m);
        debug_assert!(len < self.depth, "VC overflow (credit leak)");
        if len == 0 && meta::tag(m) == meta::IDLE {
            debug_assert!(f.is_head(), "flit entering an idle empty VC must be a head");
            self.rc_dirty.push(slot as u32);
        }
        let pos = (meta::head(m) + len) & self.ring_mask;
        self.flit_buf[slot * self.ring + pos] = f;
        self.slot_meta[slot] = m + meta::LEN_ONE;
        self.ctl[node].buffered += 1;
        self.set_work(node);
    }

    /// Buffered flits per VC index, summed over this shard's ports —
    /// the per-VC occupancy gauge [`EngineView`] exposes to probes.
    pub(crate) fn vc_occupancy(&self, vcs: usize) -> Vec<u64> {
        let mut occ = vec![0u64; vcs];
        for (slot, &m) in self.slot_meta.iter().enumerate() {
            occ[usize::from(self.vc_of_slot[slot])] += meta::len(m) as u64;
        }
        occ
    }

    /// Pops the head flit of a slot whose metadata word `m` the caller
    /// already holds (saves the reload on the traversal winner path).
    #[inline]
    fn pop_flit_meta(&mut self, slot: usize, m: u32) -> SlotFlit {
        debug_assert_eq!(m, self.slot_meta[slot], "stale metadata word");
        debug_assert!(meta::len(m) > 0, "pop from empty VC");
        let head = meta::head(m);
        let f = self.flit_buf[slot * self.ring + head];
        let new_head = ((head + 1) & self.ring_mask) as u32;
        self.slot_meta[slot] = ((m - meta::LEN_ONE) & !(meta::HEAD_MASK << meta::HEAD_SHIFT))
            | (new_head << meta::HEAD_SHIFT);
        f
    }

    /// Queues a packet at its (owned) source NIC.
    pub(crate) fn admit(
        &mut self,
        plan: &EnginePlan<'_>,
        src: NodeId,
        dst: NodeId,
        flits: u32,
        inject_cycle: u64,
    ) {
        let local = plan.partition.local_of_node[src.index()] as usize;
        debug_assert_eq!(
            usize::from(plan.partition.shard_of_node[src.index()]),
            self.id,
            "admission to a node this shard does not own"
        );
        let admission = self.next_admission[local];
        self.next_admission[local] = admission.wrapping_add(1);
        let pid = self.alloc(
            PacketInfo {
                src,
                dst,
                admission,
                inject_cycle,
                flits,
                ejected: 0,
            },
            VcClass::A,
        );
        self.nodes[local].src_queue.push_back(pid);
        self.pending_sources += 1;
        self.origin_packets += 1;
        self.stats.rerouted_hops += plan.extra_hops(src, dst);
        let backlog = self.nodes[local].src_queue.len() as u32
            + u32::from(self.nodes[local].emitting.is_some());
        if backlog > self.stats.peak_backlog[local] {
            self.stats.peak_backlog[local] = backlog;
        }
        self.set_src(local);
    }

    /// Takes a handle for a packet entering this shard (admitted at an
    /// owned NIC, or its head ingested from a boundary link), reusing the
    /// most recently freed one before growing the slab.
    fn alloc(&mut self, info: PacketInfo, class: VcClass) -> u32 {
        debug_assert!(info.flits > 0, "a packet has at least one flit");
        if let Some(h) = self.free.pop() {
            self.packets[h as usize] = info;
            self.class_of[h as usize] = class;
            return h;
        }
        let h = self.packets.len() as u32;
        assert!(
            h <= SlotFlit::MAX_HANDLE,
            "packet handles are 30 bits: more than 2^30 live packets in shard {}",
            self.id
        );
        self.packets.push(info);
        self.class_of.push(class);
        h
    }

    /// Frees a handle once no flit of it can still be in or reach this
    /// shard: its packet completed here, or its tail left through a
    /// boundary link.
    fn release(&mut self, h: usize) {
        self.packets[h].flits = 0;
        self.free.push(h as u32);
    }

    /// Live handles (packet-table slots not on the free list).
    #[cfg(test)]
    fn live_handles(&self) -> usize {
        self.packets.len() - self.free.len()
    }

    /// Applies one closed-loop source credit to an owned node: a packet
    /// that node emitted has fully ejected, so its window slot frees and
    /// the source is re-armed if it has queued work. Called locally from
    /// switch traversal (same-shard destination) or from the exchange
    /// phase (mailbox credit) — both are first observable by the next
    /// cycle's emission stage.
    fn apply_source_credit(&mut self, plan: &EnginePlan<'_>, src: NodeId) {
        let local = plan.partition.local_of_node[src.index()] as usize;
        debug_assert_eq!(
            usize::from(plan.partition.shard_of_node[src.index()]),
            self.id,
            "source credit delivered to a shard that does not own the source"
        );
        debug_assert!(self.outstanding[local] > 0, "source credit underflow");
        self.outstanding[local] -= 1;
        if self.nodes[local].emitting.is_some() || !self.nodes[local].src_queue.is_empty() {
            self.set_src(local);
        }
    }

    // ---- the five pipeline stages --------------------------------------

    /// One simulated cycle for this shard (the step phase of a
    /// superstep). Boundary traffic lands in `self.outbox`; the caller is
    /// responsible for posting outboxes and running the exchange phase.
    /// Credit application needs no stage of its own: the double-buffered
    /// [`CreditCell`]s fold freed credits in on their next access, which
    /// preserves next-cycle visibility exactly.
    pub(crate) fn step(&mut self, plan: &EnginePlan<'_>, now: u64) {
        self.step_probed(plan, now, &mut NoopProbe);
    }

    /// [`Self::step`] with a telemetry probe attached. With
    /// [`NoopProbe`] every hook site monomorphizes away, so the plain
    /// `step` compiles to the pre-telemetry engine exactly.
    pub(crate) fn step_probed<P: Probe>(&mut self, plan: &EnginePlan<'_>, now: u64, probe: &mut P) {
        self.deliver_link_arrivals(plan, now);
        self.emit_from_sources(plan, now, probe);
        self.route_compute(plan);
        self.alloc_and_traverse(plan, now, probe);
    }

    /// Stage 1: drain this cycle's calendar bucket into input buffers.
    fn deliver_link_arrivals(&mut self, plan: &EnginePlan<'_>, now: u64) {
        let bucket = (now & self.wheel_mask) as usize;
        let occ_bit = 1u64 << (bucket & 63);
        if self.wheel_occ[bucket >> 6] & occ_bit == 0 {
            return;
        }
        self.wheel_occ[bucket >> 6] &= !occ_bit;
        // The arrival cycle is the link-traversal cycle; the router
        // pipeline (RC, VA/SA, ST) starts the following cycle, so a
        // hop costs `link latency + pipeline` cycles end to end.
        let ready = now + 1 + plan.cfg.pipeline_dwell();
        let mut events = std::mem::take(&mut self.wheel[bucket]);
        self.inflight_arrivals -= events.len() as u64;
        for (slot, flit) in events.drain(..) {
            let slot = slot as usize;
            let node = usize::from(self.node_of_slot[slot]);
            self.push_flit(node, slot, flit.with_ready(ready));
        }
        // Hand the bucket's allocation back for reuse.
        self.wheel[bucket] = events;
    }

    /// Stage 2: NIC emission into the injection port, source-active nodes
    /// only. A source that cannot push (its injection VCs are full) is
    /// parked out of `src_mask`; it is re-armed when an injection-VC slot
    /// frees at this node (in-port-0 pop in switch traversal) or a new
    /// packet is admitted, so no cycle the seed engine would use for
    /// emission is missed.
    fn emit_from_sources<P: Probe>(&mut self, plan: &EnginePlan<'_>, now: u64, probe: &mut P) {
        let dwell = plan.cfg.pipeline_dwell();
        for w in 0..self.src_mask.len() {
            let mut bits = self.src_mask[w];
            while bits != 0 {
                let node = (w << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let mut pushed = false;
                let window = plan.cfg.max_outstanding;
                if self.nodes[node].emitting.is_none() {
                    // Closed loop: a full window parks the source until an
                    // ejection returns a source credit.
                    let window_open = window == 0 || (self.outstanding[node] as usize) < window;
                    if let Some(&pid) = self.nodes[node].src_queue.front() {
                        if P::ENABLED && !window_open {
                            probe.on_stall(
                                StallCause::WindowClosed,
                                NodeId(self.global_of_node[node]),
                                now,
                            );
                        }
                        if window_open {
                            // Pick the lowest class-A injection VC with
                            // room: a packet still at its NIC has crossed
                            // no express link.
                            let info = self.packets[pid as usize];
                            let base = self.ctl[node].vc_base as usize; // in-port 0 ⇒ slot = base + vc
                            let pick = cyclic_bits(plan.class_a_mask.into(), 0).find(|&v| {
                                meta::len(self.slot_meta[base + v]) < plan.cfg.buffer_depth
                            });
                            if let Some(v) = pick {
                                self.nodes[node].src_queue.pop_front();
                                let mut inject_cycle = info.inject_cycle;
                                if window > 0 {
                                    self.outstanding[node] += 1;
                                    if self.outstanding[node] > self.stats.peak_outstanding[node] {
                                        self.stats.peak_outstanding[node] = self.outstanding[node];
                                    }
                                    // Closed-loop latency is network latency:
                                    // restart the measured clock at emission,
                                    // leaving NIC queueing to the backlog
                                    // gauge (unmeasured warm-up packets keep
                                    // their u64::MAX marker).
                                    if inject_cycle != u64::MAX {
                                        inject_cycle = now;
                                        self.packets[pid as usize].inject_cycle = now;
                                    }
                                }
                                self.nodes[node].emitting = Some(Emission {
                                    packet: pid,
                                    emitted: 0,
                                    total: info.flits,
                                    vc: v as u8,
                                    dst: info.dst,
                                    inject_cycle,
                                });
                            }
                        }
                    }
                }
                if let Some(mut em) = self.nodes[node].emitting {
                    let slot = self.ctl[node].vc_base as usize + usize::from(em.vc);
                    if meta::len(self.slot_meta[slot]) < plan.cfg.buffer_depth {
                        let head = em.emitted == 0;
                        let flit =
                            SlotFlit::new(em.packet, head, em.emitted + 1 == em.total, now + dwell);
                        self.push_flit(node, slot, flit);
                        if P::ENABLED && head {
                            probe.on_inject(
                                PacketKey {
                                    src: NodeId(self.global_of_node[node]),
                                    inject_cycle: em.inject_cycle,
                                },
                                em.dst,
                                em.total,
                                now,
                            );
                        }
                        pushed = true;
                        self.stats.flits_injected += 1;
                        em.emitted += 1;
                        self.nodes[node].emitting = if em.emitted == em.total {
                            self.pending_sources -= 1;
                            None
                        } else {
                            Some(em)
                        };
                    }
                }
                // Done (nothing left) or parked (blocked on full VCs).
                if !pushed
                    || (self.nodes[node].emitting.is_none()
                        && self.nodes[node].src_queue.is_empty())
                {
                    self.clear_src(node);
                }
            }
        }
    }

    /// Stage 3: route computation, dirty slots only. A slot is marked when
    /// a head flit lands at the front of an idle VC (on push, or when a
    /// tail departs with the next packet queued behind it), so this visits
    /// exactly the VCs the seed engine's full scan would transition.
    fn route_compute(&mut self, plan: &EnginePlan<'_>) {
        while let Some(slot) = self.rc_dirty.pop() {
            let slot = slot as usize;
            let m = self.slot_meta[slot];
            debug_assert_eq!(meta::tag(m), meta::IDLE, "dirty slot must be idle");
            debug_assert!(meta::len(m) > 0, "dirty slot has a queued head");
            let head = self.flit_buf[slot * self.ring + meta::head(m)];
            debug_assert!(head.is_head(), "queue head after Idle must be a head flit");
            let node = usize::from(self.node_of_slot[slot]);
            // The table stores router out-ports; 0 (no next hop: the
            // packet is home) ejects.
            let out_port = plan.routes.next_port(
                NodeId(self.global_of_node[node]),
                self.packets[head.packet()].dst,
            );
            let idx = slot - self.ctl[node].vc_base as usize;
            self.slot_meta[slot] =
                (m & meta::STATE_CLEAR) | meta::ROUTED | (u32::from(out_port) << meta::PORT_SHIFT);
            self.routed_mask[self.ctl[node].port_base as usize + usize::from(out_port)] |= 1 << idx;
            self.ctl[node].routed_ports |= 1 << out_port;
            self.ctl[node].routed_count += 1;
        }
    }

    /// Stages 4 + 5, fused per node: VC allocation (round-robin per
    /// output port) followed by switch allocation + traversal, one flit
    /// per out-port and per in-port per cycle, work-active nodes only.
    ///
    /// Fusing the two stages per node is bit-for-bit equivalent to two
    /// full passes: a node's VC allocation reads only its own masks and
    /// slot metadata, while another node's traversal writes land in
    /// structures invisible until next cycle (double-buffered credit
    /// cells, calendar buckets ≥ `now + 1`, mailbox outboxes) — and the
    /// node's state stays hot in cache across both stages. Within a
    /// node, arbitration order is identical to the seed engine's.
    fn alloc_and_traverse<P: Probe>(&mut self, plan: &EnginePlan<'_>, now: u64, probe: &mut P) {
        let vcs = plan.cfg.vcs;
        let dwell = plan.cfg.pipeline_dwell();
        for w in 0..self.work_mask.len() {
            let mut bits = self.work_mask[w];
            while bits != 0 {
                let node = (w << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let c = self.ctl[node];
                let base = c.vc_base as usize;
                let pb = c.port_base as usize;
                let total_in_vcs = usize::from(c.total_in_vcs);

                // --- VC allocation ---
                if c.routed_count != 0 {
                    // Ports with routed VCs, ascending — the same ports a
                    // full 0..out_ports probe would act on.
                    let mut rp = c.routed_ports;
                    while rp != 0 {
                        let p = rp.trailing_zeros() as usize;
                        rp &= rp - 1;
                        // Only VCs actually Routed for this port, in the
                        // same round-robin order a full scan from va_rr
                        // would use.
                        let mask = self.routed_mask[pb + p];
                        let start = usize::from(self.va_rr[pb + p]);
                        // Fault-degraded links expose only the low half of
                        // each class's VCs (ejection ports never degrade).
                        let degraded = self.out_port_info[pb + p].degraded;
                        // Class shortcut: without a dateline both classes
                        // share one mask (asserted in `EnginePlan::new`),
                        // so the head's class is read only under one.
                        let classless_open = plan.class_mask(VcClass::A, degraded);
                        for idx in cyclic_bits(mask, start) {
                            let m = self.slot_meta[base + idx];
                            debug_assert_eq!(meta::tag(m), meta::ROUTED);
                            debug_assert_eq!(meta::out_port(m), p);
                            debug_assert!(meta::len(m) > 0, "Routed VC holds its head flit");
                            let head = (base + idx) * self.ring + meta::head(m);
                            // Free VCs open to this packet's class, as a
                            // bitmask: lowest set bit = the VC the range
                            // scan would have found.
                            let open = if plan.dateline {
                                let class = self.class_of[self.flit_buf[head].packet()];
                                plan.class_mask(class, degraded)
                            } else {
                                classless_open
                            };
                            let free = !self.holder_mask[pb + p] & open;
                            if free != 0 {
                                // Only a grant needs the packet id.
                                let head_packet = self.flit_buf[head].packet();
                                let ovc = free.trailing_zeros() as usize;
                                if P::ENABLED {
                                    let info = &self.packets[head_packet];
                                    probe.on_vc_alloc(
                                        PacketKey {
                                            src: info.src,
                                            inject_cycle: info.inject_cycle,
                                        },
                                        NodeId(self.global_of_node[node]),
                                        ovc as u8,
                                        now,
                                    );
                                }
                                self.holder_mask[pb + p] |= 1 << ovc;
                                self.active_pid[base + idx] = head_packet as u32;
                                self.slot_meta[base + idx] = (m & meta::STATE_CLEAR)
                                    | meta::ACTIVE
                                    | ((p as u32) << meta::PORT_SHIFT)
                                    | ((ovc as u32) << meta::OVC_SHIFT);
                                self.routed_mask[pb + p] &= !(1 << idx);
                                self.ctl[node].routed_count -= 1;
                                self.active_mask[pb + p] |= 1 << idx;
                                self.ctl[node].active_ports |= 1 << p;
                                self.va_rr[pb + p] = rr_next(idx, total_in_vcs);
                            } else if P::ENABLED {
                                probe.on_stall(
                                    StallCause::VaLoss,
                                    NodeId(self.global_of_node[node]),
                                    now,
                                );
                            }
                        }
                        if self.routed_mask[pb + p] == 0 {
                            self.ctl[node].routed_ports &= !(1 << p);
                        }
                    }
                }

                // --- switch allocation + traversal ---
                // The seed engine zeroes this for every node during its
                // full emission scan; here the reset rides the switch
                // stage of active nodes (quiescent nodes have no flits to
                // arbitrate, so their stale masks are unobservable).
                self.ctl[node].in_port_used = 0;
                let mut ap = self.ctl[node].active_ports;
                while ap != 0 {
                    let p = ap.trailing_zeros() as usize;
                    ap &= ap - 1;
                    // Only VCs actually Active on this port, in the same
                    // round-robin order a full scan from sa_rr would use.
                    let mask = self.active_mask[pb + p];
                    let start = usize::from(self.sa_rr[pb + p]);
                    let opi = self.out_port_info[pb + p];
                    let mut winner: Option<(usize, u8, u32)> = None;
                    for idx in cyclic_bits(mask, start) {
                        let m = self.slot_meta[base + idx];
                        debug_assert_eq!(meta::tag(m), meta::ACTIVE);
                        debug_assert_eq!(meta::out_port(m), p);
                        let in_port = usize::from(self.in_port_of_slot[base + idx]);
                        if self.ctl[node].in_port_used & (1 << in_port) != 0 {
                            if P::ENABLED {
                                probe.on_stall(
                                    StallCause::SaLoss,
                                    NodeId(self.global_of_node[node]),
                                    now,
                                );
                            }
                            continue;
                        }
                        if meta::len(m) == 0 {
                            // Active VC with all buffered flits already
                            // forwarded (body flits still in transit).
                            continue;
                        }
                        if self.flit_buf[(base + idx) * self.ring + meta::head(m)].waits(now) {
                            continue;
                        }
                        let out_vc = meta::out_vc(m);
                        if p > 0 {
                            let rank = opi.rank as usize;
                            if self.credits[rank * vcs + out_vc].normalize(now) == 0 {
                                if P::ENABLED {
                                    probe.on_stall(
                                        StallCause::CreditStarved,
                                        NodeId(self.global_of_node[node]),
                                        now,
                                    );
                                }
                                continue;
                            }
                        }
                        winner = Some((idx, out_vc as u8, m));
                        break;
                    }
                    let Some((idx, out_vc, wm)) = winner else {
                        continue;
                    };
                    self.sa_rr[pb + p] = rr_next(idx, total_in_vcs);
                    let flit = self.pop_flit_meta(base + idx, wm);
                    self.ctl[node].buffered -= 1;
                    if self.ctl[node].buffered == 0 {
                        self.clear_work(node);
                    }
                    let in_port = usize::from(self.in_port_of_slot[base + idx]);
                    self.ctl[node].in_port_used |= 1 << in_port;
                    self.stats.router_flits[node] += 1;

                    // Return a credit upstream for the slot we just freed;
                    // an injection-port pop re-arms a parked source. A
                    // boundary upstream gets its credit by mail (applied
                    // during the exchange phase — the same next-cycle
                    // visibility as the local pending half of the cell).
                    if in_port > 0 {
                        let cred = self.credit_of_slot[base + idx] as usize;
                        let owner = usize::from(self.src_shard_of_slot[base + idx]);
                        if owner == self.id {
                            self.credits[cred].free(now);
                        } else {
                            self.outbox[owner].credits.push(cred as u32);
                        }
                    } else if self.nodes[node].emitting.is_some()
                        || !self.nodes[node].src_queue.is_empty()
                    {
                        self.set_src(node);
                    }

                    let pid = flit.packet();
                    if p == 0 {
                        // Ejection.
                        self.packets[pid].ejected += 1;
                        self.stats.flits_delivered += 1;
                        if now >= self.accept_from && now < self.accept_until {
                            self.stats.accepted_flits += 1;
                        }
                        if self.packets[pid].is_complete() {
                            self.completed_packets += 1;
                            let info = self.packets[pid];
                            if P::ENABLED {
                                probe.on_eject(
                                    PacketKey {
                                        src: info.src,
                                        inject_cycle: info.inject_cycle,
                                    },
                                    NodeId(self.global_of_node[node]),
                                    now,
                                );
                            }
                            if info.inject_cycle != u64::MAX {
                                self.stats
                                    .record_packet(info.flits, now + 1 - info.inject_cycle);
                            }
                            // Closed loop: hand the window slot back to the
                            // origin. An immigrant packet's origin lives in
                            // another shard — mail the credit (applied in
                            // this superstep's exchange, visible next cycle,
                            // the same timing as the local decrement).
                            if plan.cfg.max_outstanding > 0 {
                                let owner =
                                    usize::from(plan.partition.shard_of_node[info.src.index()]);
                                if owner == self.id {
                                    self.apply_source_credit(plan, info.src);
                                } else {
                                    self.outbox[owner].src_credits.push(info.src.0);
                                }
                            }
                            self.release(pid);
                        }
                    } else {
                        let rank = opi.rank as usize;
                        self.credits[rank * vcs + usize::from(out_vc)].take(now);
                        if P::ENABLED && flit.is_head() {
                            let info = &self.packets[pid];
                            probe.on_hop(
                                PacketKey {
                                    src: info.src,
                                    inject_cycle: info.inject_cycle,
                                },
                                self.nodes[node].out_links[p - 1].0,
                                now,
                            );
                        }
                        if opi.express {
                            // Dateline: the packet is class B from here on.
                            self.class_of[pid] = VcClass::B;
                        }
                        self.stats.link_flits[rank] += 1;
                        let arrive = now + u64::from(opi.latency);
                        let slot = opi.dst_slot + u32::from(out_vc);
                        let target = usize::from(opi.dst_shard);
                        if target == self.id {
                            if opi.latency == 1 {
                                // One-cycle links skip the calendar: the
                                // flit lands in its destination VC at send
                                // time with the ready cycle the deliver
                                // stage would have stamped next cycle.
                                // This is observable-behavior-preserving
                                // for latency 1 only — the head is marked
                                // RC-dirty this cycle and route computation
                                // drains the list next cycle, exactly when
                                // a calendar delivery at `now + 1` would
                                // have routed it, and the early-buffered
                                // flit cannot win arbitration before
                                // `ready` (nor push its slot's VC state;
                                // wormhole order is unchanged because a
                                // link's flits all take this path).
                                let dst = usize::from(self.node_of_slot[slot as usize]);
                                self.push_flit(
                                    dst,
                                    slot as usize,
                                    flit.with_ready(now + 2 + dwell),
                                );
                            } else {
                                self.wheel_push(arrive, (slot, flit));
                            }
                        } else {
                            self.outbox[target].flits.push(BoundaryFlit {
                                slot,
                                is_head: flit.is_head(),
                                is_tail: flit.is_tail(),
                                class: self.class_of[pid],
                                arrive,
                                packet: self.packets[pid],
                            });
                            // The tail is the packet's last flit here.
                            if flit.is_tail() {
                                self.release(pid);
                            }
                        }
                    }

                    if flit.is_tail() {
                        self.holder_mask[pb + p] &= !(1 << out_vc);
                        let m = self.slot_meta[base + idx] & meta::STATE_CLEAR;
                        self.slot_meta[base + idx] = m; // back to Idle
                        self.active_mask[pb + p] &= !(1 << idx);
                        if self.active_mask[pb + p] == 0 {
                            self.ctl[node].active_ports &= !(1 << p);
                        }
                        if meta::len(m) > 0 {
                            // The next packet's head is already queued
                            // behind the departed tail: needs RC next
                            // cycle.
                            self.rc_dirty.push((base + idx) as u32);
                        }
                    }
                }
            }
        }
    }

    // ---- superstep exchange --------------------------------------------

    /// Swaps every non-empty outbox into the shared mailbox grid (end of
    /// the step phase).
    fn post_outboxes(&mut self, shared: &Shared) {
        for (target, bundle) in self.outbox.iter_mut().enumerate() {
            if target == self.id || bundle.is_empty() {
                continue;
            }
            let mut cell = shared.mail[self.id][target]
                .lock()
                .expect("mailbox not poisoned");
            debug_assert!(cell.is_empty(), "mailbox collision (missed exchange)");
            std::mem::swap(&mut *cell, bundle);
        }
    }

    /// Ingests one incoming bundle: applies boundary credits and books
    /// boundary flits into the local calendar wheel, taking local packet
    /// handles for arriving heads (the exchange phase). `now` is the
    /// superstep being exchanged: mailbox credits land in the pending
    /// half of their [`CreditCell`] with this stamp, giving them the
    /// same next-cycle visibility as locally freed credits.
    fn ingest(&mut self, plan: &EnginePlan<'_>, bundle: &mut OutBundle, now: u64) {
        for idx in bundle.credits.drain(..) {
            self.credits[idx as usize].free(now);
        }
        for src in bundle.src_credits.drain(..) {
            self.apply_source_credit(plan, NodeId(src));
        }
        for m in bundle.flits.drain(..) {
            let slot = m.slot as usize;
            if m.is_head {
                // The record keeps the *origin* node, not the boundary
                // link's source: the closed-loop credit goes back to the
                // NIC that emitted the packet, however many shards away.
                self.remap[slot] = self.alloc(m.packet, m.class);
            }
            debug_assert_ne!(self.remap[slot], u32::MAX, "body flit without a head");
            let f = SlotFlit::new(self.remap[slot], m.is_head, m.is_tail, 0);
            self.wheel_push(m.arrive, (m.slot, f));
        }
    }

    /// Drains every mailbox addressed to this shard (the exchange phase).
    fn collect_inboxes<P: Probe>(
        &mut self,
        plan: &EnginePlan<'_>,
        shared: &Shared,
        now: u64,
        probe: &mut P,
    ) {
        for &from in &plan.inbox_sources[self.id] {
            let mut scratch = {
                let mut cell = shared.mail[usize::from(from)][self.id]
                    .lock()
                    .expect("mailbox not poisoned");
                if cell.is_empty() {
                    continue;
                }
                std::mem::take(&mut *cell)
            };
            if P::ENABLED {
                probe.on_exchange(
                    usize::from(from),
                    self.id,
                    scratch.flits.len(),
                    scratch.credits.len(),
                    now,
                );
            }
            self.ingest(plan, &mut scratch, now);
            // Return the drained allocation for the sender to reuse.
            let mut cell = shared.mail[usize::from(from)][self.id]
                .lock()
                .expect("mailbox not poisoned");
            if cell.is_empty() {
                std::mem::swap(&mut *cell, &mut scratch);
            }
        }
    }
}

// ---- workloads ----------------------------------------------------------

/// Per-source injection state of a synthetic run: each source's rate,
/// the id of its destination CDF, and — through
/// [`TrafficMatrix::destination`] — the node each CDF slot names.
///
/// A CDF holds the prefix sums `acc` of a source's destination shares,
/// in destination order. Each distinct CDF is stored once, keyed by its
/// content, and sources whose matrix rows are alike
/// ([`TrafficMatrix::rows_alike`]) reuse their neighbour's without
/// building it. Every uniform source shares one (N−1)-entry CDF, so a
/// uniform run holds 12 B per source plus 8·(N−1) B here; rows that
/// differ per source (Soteriou, NPB) cost 8 B per nonzero pair.
///
/// A draw `u ∈ [0, 1)` picks the first entry with `acc ≥ u`
/// ([`first_at_least`]). Instead of bisecting the whole row, the search
/// starts at the guide-table guess `⌊u·len⌋` (Chen & Asau, 1974) and
/// checks it against its left neighbour; only a wrong guess gallops
/// (steps 1, 2, 4, …) and then bisects the bracket it found. Rows are
/// nondecreasing, so "`acc < u`" is true on a prefix and false after it:
/// any search that finds that boundary returns the index a full binary
/// search would, whatever its probe order. On uniform rows the guess is
/// right (O(1), two adjacent loads); skewed rows such as hotspot traffic
/// cost O(log len) at worst.
pub(crate) struct InjectTables<'m> {
    matrix: &'m TrafficMatrix,
    rates: Vec<f64>,
    cdf_of: Vec<u32>,
    cdfs: Vec<Vec<f64>>,
}

impl<'m> InjectTables<'m> {
    pub fn new(topo: &Topology, matrix: &'m TrafficMatrix) -> Self {
        assert_eq!(matrix.num_nodes(), topo.num_nodes());
        let n = topo.num_nodes();
        let mut rates = Vec::with_capacity(n);
        let mut cdf_of: Vec<u32> = Vec::with_capacity(n);
        let mut cdfs: Vec<Vec<f64>> = Vec::new();
        // Content hash → the first CDF stored with that hash.
        let mut interned: HashMap<u64, u32> = HashMap::new();
        let mut row = Vec::new();
        for src in topo.nodes() {
            let s = src.index();
            if s > 0 && matrix.rows_alike(NodeId(src.0 - 1), src) {
                rates.push(rates[s - 1]);
                cdf_of.push(cdf_of[s - 1]);
                continue;
            }
            let rate = matrix.injection_rate(src);
            row.clear();
            if rate > 0.0 {
                let mut acc = 0.0;
                for (_, r) in matrix.row_demands(src) {
                    acc += r / rate;
                    row.push(acc);
                }
            }
            let mut h = DefaultHasher::new();
            row.iter().for_each(|a| h.write_u64(a.to_bits()));
            let key = h.finish();
            let same = |cdf: &[f64]| {
                cdf.iter()
                    .map(|a| a.to_bits())
                    .eq(row.iter().map(|a| a.to_bits()))
            };
            let id = match interned.get(&key) {
                Some(&id) if same(&cdfs[id as usize]) => id,
                _ => {
                    let id = cdfs.len() as u32;
                    cdfs.push(row.clone());
                    interned.entry(key).or_insert(id);
                    id
                }
            };
            rates.push(rate);
            cdf_of.push(id);
        }
        InjectTables {
            matrix,
            rates,
            cdf_of,
            cdfs,
        }
    }

    /// One cycle of Bernoulli injection at the sources `nodes` (one
    /// shard's node list): `admit(src, dst, inject_cycle)` for every packet
    /// drawn. Each draw is [`injection_draw`] of `(seed, src, now)`, so a
    /// source's packets do not depend on which worker draws them, or on
    /// any other source — P-shard injection is P=1 injection.
    ///
    /// `factors` is the cycle's per-node burst modulation
    /// ([`BurstState::factors_at`]): the gate fires with probability
    /// `rate × factor`. The steady factor is exactly 1.0 and `x * 1.0`
    /// is bit-exact in IEEE 754, so steady runs draw the unmodulated gate.
    pub fn inject_cycle(
        &self,
        seed: u64,
        nodes: &[NodeId],
        now: u64,
        warmup: u64,
        factors: &[f64],
        mut admit: impl FnMut(NodeId, NodeId, u64),
    ) {
        for &src in nodes {
            let s = src.index();
            let Some(u) = injection_draw(seed, s, now, self.rates[s] * factors[s]) else {
                continue;
            };
            let cdf = &self.cdfs[self.cdf_of[s] as usize];
            // First entry with acc ≥ u; the last entry backstops
            // floating-point shortfall at u ≈ 1. The matrix never names
            // the source itself.
            let k = first_at_least(cdf, u).min(cdf.len() - 1);
            let dst = self.matrix.destination(src, k);
            // Unmeasured packets are marked by u64::MAX and skipped in
            // `record`.
            let inject_cycle = if now >= warmup { now } else { u64::MAX };
            admit(src, dst, inject_cycle);
        }
    }
}

/// Index of the first entry of the nondecreasing, nonempty row `acc` that
/// is `≥ u` (`acc.len()` when none is) — `acc.partition_point(|&a| a < u)`
/// found from the guess `⌊u·len⌋` (see [`InjectTables`]).
#[inline]
fn first_at_least(acc: &[f64], u: f64) -> usize {
    let len = acc.len();
    debug_assert!(len > 0, "empty destination row");
    // `u < 1`, but the product may round up to `len`.
    let guess = ((u * len as f64) as usize).min(len - 1);
    if acc[guess] < u {
        // The boundary lies right of the guess: gallop until an entry is
        // ≥ u (or the row ends), keeping every entry before `lo` < u.
        let (mut lo, mut hi, mut step) = (guess + 1, guess + 1, 1);
        while hi < len && acc[hi] < u {
            lo = hi + 1;
            hi = lo + step;
            step <<= 1;
        }
        let hi = hi.min(len);
        lo + acc[lo..hi].partition_point(|&a| a < u)
    } else {
        // `acc[guess] ≥ u`: gallop left until an entry is < u (or the row
        // starts), keeping `acc[hi] ≥ u`.
        let (mut hi, mut step) = (guess, 1);
        while hi > 0 {
            let lo = hi.saturating_sub(step);
            if acc[lo] < u {
                return lo + 1 + acc[lo + 1..hi].partition_point(|&a| a < u);
            }
            hi = lo;
            step <<= 1;
        }
        0
    }
}

/// One run's traffic source, shared read-only across workers.
#[derive(Clone, Copy)]
pub(crate) enum Workload<'w> {
    /// Trace-driven admission.
    Trace(&'w Trace),
    /// Bernoulli synthetic injection (1-flit packets).
    Synthetic {
        tables: &'w InjectTables<'w>,
        warmup: u64,
        measure: u64,
        seed: u64,
    },
}

impl Workload<'_> {
    /// The snapshot workload fingerprint: the trace's content, or the
    /// synthetic `(warmup, measure, seed)` — the traffic matrix is
    /// deliberately left out so warm-start sweeps can switch rates.
    fn fingerprint(&self) -> u64 {
        match *self {
            Workload::Trace(trace) => trace_fingerprint(trace),
            Workload::Synthetic {
                warmup,
                measure,
                seed,
                ..
            } => synthetic_fingerprint(warmup, measure, seed),
        }
    }
}

// ---- the lockstep worker loop ------------------------------------------

/// The run loop's resumable position: everything the loop itself owns
/// (shard state is carried separately). Snapshots serialize this verbatim
/// so a restored run continues the exact admission sequence; the default
/// is the start of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RunCursor {
    /// Next cycle to simulate.
    pub now: u64,
    /// Next unadmitted trace-event index (trace workloads).
    pub next_event: u64,
}

/// How a bounded run ended: the workload drained, or the stop cycle was
/// reached first (resume from the carried cursor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RunEnd {
    /// Everything delivered; the value is the final cycle count.
    Done(u64),
    /// `stop_at` reached with work outstanding.
    Stopped(RunCursor),
}

/// Worker-local phase-time accumulator that flushes into the shared
/// [`ProfileSink`] on every exit path (pause, drain, cycle-limit error)
/// via `Drop`.
struct ProfFlush<'a> {
    sink: Option<&'a ProfileSink>,
    step_ns: u64,
    exchange_ns: u64,
    barrier_ns: u64,
    supersteps: u64,
}

impl Drop for ProfFlush<'_> {
    fn drop(&mut self) {
        if let Some(sink) = self.sink {
            sink.add(
                self.step_ns,
                self.exchange_ns,
                self.barrier_ns,
                self.supersteps,
            );
        }
    }
}

/// Nanoseconds since `*mark`, advancing the mark; 0 when unset
/// (profiling off — no `Instant` is ever taken).
#[inline]
fn lap(mark: &mut Option<std::time::Instant>) -> u64 {
    match mark {
        Some(prev) => {
            let t = std::time::Instant::now();
            let d = t.duration_since(*prev).as_nanos() as u64;
            *mark = Some(t);
            d
        }
        None => 0,
    }
}

/// Runs `my` (this worker's shards) from `start` until the workload
/// drains or `stop_at` is reached, in lockstep with the other workers.
/// Every control decision is derived from data identical across workers,
/// so all workers step/jump/stop on the same cycles.
///
/// The probe observes this worker's shards only; probed runs are
/// single-worker (see [`Engine::drive`]) so one probe sees
/// everything. `prof`, when set, receives this worker's superstep phase
/// times (step / exchange / barrier) on exit.
#[allow(clippy::too_many_arguments)]
fn worker_loop<P: Probe>(
    plan: &EnginePlan<'_>,
    shared: &Shared,
    my: &mut [ShardState],
    workload: Workload<'_>,
    worker_index: usize,
    start: RunCursor,
    stop_at: u64,
    probe: &mut P,
    prof: Option<&ProfileSink>,
) -> Result<RunEnd, SimError> {
    let mut acc = ProfFlush {
        sink: prof,
        step_ns: 0,
        exchange_ns: 0,
        barrier_ns: 0,
        supersteps: 0,
    };
    // Shard-id → index into `my` (MAX = not mine).
    let mut mine = vec![usize::MAX; plan.partition.num_shards()];
    for (i, s) in my.iter().enumerate() {
        mine[s.id] = i;
    }
    let mut now = start.now;
    let mut next_event = start.next_event as usize; // full-trace cursor

    // Burst factors are a pure function of (workload seed, node, cycle),
    // so the cache needs no snapshotting and is valid from any resume
    // point. Traces carry their own timing — steady placeholder.
    let mut burst = match workload {
        Workload::Synthetic { seed, .. } => {
            BurstState::new(plan.cfg.burst, seed, plan.topo.num_nodes())
        }
        Workload::Trace(_) => BurstState::steady(),
    };
    loop {
        // --- bounded-run stop (lockstep: same cycle on every worker) ---
        if now >= stop_at {
            return Ok(RunEnd::Stopped(RunCursor {
                now,
                next_event: next_event as u64,
            }));
        }
        // --- admission (each worker admits its own sources) ---
        let mut must_step = false;
        match workload {
            Workload::Trace(trace) => {
                while next_event < trace.events.len() && trace.events[next_event].cycle <= now {
                    let e = &trace.events[next_event];
                    next_event += 1;
                    let shard = usize::from(plan.partition.shard_of_node[e.src.index()]);
                    // Faulted topologies: traffic to or from a dead router
                    // has no route — dropped at admission (owner counts
                    // it), activating nothing, so fast-forward stays legal.
                    if !plan.routes.reachable(e.src, e.dst) {
                        if mine[shard] != usize::MAX {
                            my[mine[shard]].stats.unreachable_pairs += 1;
                            if P::ENABLED {
                                probe.on_stall(StallCause::NoRoute, e.src, now);
                            }
                        }
                        continue;
                    }
                    // Any admission (even to another worker's shard)
                    // activates some shard, so nobody may fast-forward.
                    must_step = true;
                    if mine[shard] != usize::MAX {
                        my[mine[shard]].admit(plan, e.src, e.dst, e.flits, e.cycle);
                    }
                }
            }
            Workload::Synthetic {
                tables,
                warmup,
                measure,
                seed,
            } => {
                if now < warmup + measure {
                    // The injection window always steps, like P=1.
                    must_step = true;
                    let factors = burst.factors_at(now);
                    for s in my.iter_mut() {
                        let nodes = &plan.partition.nodes_of_shard[s.id];
                        tables.inject_cycle(seed, nodes, now, warmup, factors, |src, dst, at| {
                            if plan.routes.reachable(src, dst) {
                                s.admit(plan, src, dst, 1, at);
                            } else {
                                s.stats.unreachable_pairs += 1;
                                if P::ENABLED {
                                    probe.on_stall(StallCause::NoRoute, src, now);
                                }
                            }
                        });
                    }
                }
            }
        }

        // --- idle fast-forward / termination (lockstep decision) ---
        if !must_step {
            let busy_now = my.iter().any(|s| !s.quiescent());
            let others_busy = shared
                .published
                .iter()
                .enumerate()
                .any(|(i, p)| i != worker_index && p.active.load(Ordering::Acquire));
            if !busy_now && !others_busy {
                // No router anywhere can act this cycle: fast-forward to
                // the next timeline event — a booked link arrival (any
                // shard) or the next trace admission.
                let next_arrival = shared
                    .published
                    .iter()
                    .enumerate()
                    .map(|(i, p)| {
                        if i == worker_index {
                            my.iter()
                                .filter_map(|s| s.next_arrival_cycle(now))
                                .min()
                                .unwrap_or(u64::MAX)
                        } else {
                            p.next_arrival.load(Ordering::Acquire)
                        }
                    })
                    .min()
                    .unwrap_or(u64::MAX);
                let next_admission = match workload {
                    Workload::Trace(trace) => trace.events.get(next_event).map(|e| e.cycle),
                    Workload::Synthetic { .. } => None, // injection window over
                };
                let target = match (next_arrival, next_admission) {
                    (u64::MAX, None) => break, // drained, source exhausted
                    (u64::MAX, Some(t)) => t,
                    (a, None) => a,
                    (a, Some(t)) => a.min(t),
                };
                // A bounded run never jumps past its stop cycle — the
                // loop-top check turns the landing into a clean pause.
                let target = target.min(stop_at);
                if target > now {
                    now = target;
                    continue; // re-run admission at the new cycle
                }
            }
        }

        // --- superstep: step phase ---
        let mut mark = acc.sink.map(|_| std::time::Instant::now());
        for s in my.iter_mut() {
            s.step_probed(plan, now, probe);
        }
        acc.step_ns += lap(&mut mark);
        if plan.partition.num_shards() > 1 {
            for s in my.iter_mut() {
                s.post_outboxes(shared);
            }
            acc.exchange_ns += lap(&mut mark);
            shared.barrier.wait();
            acc.barrier_ns += lap(&mut mark);
            // --- superstep: exchange phase ---
            for s in my.iter_mut() {
                s.collect_inboxes(plan, shared, now, probe);
            }
        }
        // Publish post-step activity for next cycle's lockstep decision.
        let active = my.iter().any(|s| !s.quiescent());
        shared.published[worker_index]
            .active
            .store(active, Ordering::Release);
        if !active {
            let arr = my
                .iter()
                .filter_map(|s| s.next_arrival_cycle(now + 1))
                .min()
                .unwrap_or(u64::MAX);
            shared.published[worker_index]
                .next_arrival
                .store(arr, Ordering::Release);
        }
        if P::ENABLED {
            for s in my.iter() {
                probe.on_cycle_end(EngineView { state: s, plan }, now);
            }
        }
        acc.exchange_ns += lap(&mut mark);
        if plan.partition.num_shards() > 1 {
            shared.barrier.wait();
            acc.barrier_ns += lap(&mut mark);
        }
        acc.supersteps += 1;

        now += 1;
        if now > plan.cfg.max_cycles {
            // Origins and completions accumulate separately: a shard that
            // mostly *receives* traffic completes more packets than it
            // originates, so per-shard differences can be negative; the
            // global difference equals the P=1 stuck-packet count.
            let origins: u64 = my.iter().map(|s| s.origin_packets).sum();
            let completed: u64 = my.iter().map(|s| s.completed_packets).sum();
            shared.stuck_origins.fetch_add(origins, Ordering::SeqCst);
            shared
                .stuck_completed
                .fetch_add(completed, Ordering::SeqCst);
            if plan.partition.num_shards() > 1 {
                shared.barrier.wait();
            }
            return Err(SimError::CycleLimit {
                stuck_packets: shared.stuck_origins.load(Ordering::SeqCst)
                    - shared.stuck_completed.load(Ordering::SeqCst),
            });
        }
    }
    Ok(RunEnd::Done(now))
}

/// Merges the per-shard statistics of a finished run, placing each
/// shard's link and node entries at their global ids (each link has one
/// driving shard and each node one owner, so entries never collide).
pub(crate) fn merge_stats(plan: &EnginePlan<'_>, shards: &[ShardState], cycles: u64) -> SimStats {
    let mut merged = SimStats::new(plan.topo.links().len(), plan.topo.num_nodes());
    for s in shards {
        merged.absorb_totals(&s.stats);
        for (rank, lid) in s.driven_links() {
            merged.link_flits[lid.index()] = s.stats.link_flits[rank];
        }
        for (local, &g) in s.global_of_node.iter().enumerate() {
            let g = usize::from(g);
            merged.router_flits[g] = s.stats.router_flits[local];
            merged.peak_backlog[g] = s.stats.peak_backlog[local];
            merged.peak_outstanding[g] = s.stats.peak_outstanding[local];
        }
    }
    merged.cycles = cycles;
    merged
}

/// The inverse of [`merge_stats`]: the run-wide totals go to shard 0,
/// and every link and node entry to the shard driving or owning it.
fn scatter_stats(shards: &mut [ShardState], merged: &SimStats) {
    for (sid, s) in shards.iter_mut().enumerate() {
        let mut stats = SimStats::new(s.stats.link_flits.len(), s.nodes.len());
        if sid == 0 {
            stats.absorb_totals(merged);
            stats.cycles = merged.cycles;
        }
        for (rank, lid) in s.driven_links() {
            stats.link_flits[rank] = merged.link_flits[lid.index()];
        }
        for (local, &g) in s.global_of_node.iter().enumerate() {
            let g = usize::from(g);
            stats.router_flits[local] = merged.router_flits[g];
            stats.peak_backlog[local] = merged.peak_backlog[g];
            stats.peak_outstanding[local] = merged.peak_outstanding[g];
        }
        s.stats = stats;
    }
}

// ---- snapshot export / import ------------------------------------------

/// `VcClass` ↔ snapshot byte: 0 = class A, 2 = class B. Byte 1 reads as
/// class A too — the reference engine writes it for a class-A packet
/// whose route crosses an express link. The order matters: a packet's
/// class only ever moves forward (A → B on the first express
/// traversal), so the canonical class of a packet split across
/// per-shard handles is the numeric maximum over its handles.
#[inline]
fn class_to_u8(c: VcClass) -> u8 {
    match c {
        VcClass::A => 0,
        VcClass::B => 2,
    }
}

#[inline]
fn class_from_u8(v: u8) -> VcClass {
    match v {
        0 | 1 => VcClass::A,
        _ => VcClass::B,
    }
}

/// Exports the complete logical state of a run at the cycle boundary
/// `cursor.now` (cycles `0..now` simulated, `now` not yet) into the
/// partition-independent [`GlobalState`].
///
/// A packet may hold a handle in each shard its route visits; the
/// handles of one packet share its key (origin, admission number). They
/// merge into one packet-table entry — ejections happen at one handle
/// only (the destination's) and the dateline class only moves forward,
/// so the sum and the maximum are the packet's values — and the table
/// lists live packets in key order, which does not depend on the
/// partition. Completed packets hold no handle: they survive through the
/// merged statistics and the completion counters. The latency-1 wheel
/// bypass is undone: a buffered flit stamped `now + 1 + dwell` can only
/// have been pushed by the bypass during the last simulated cycle (normal
/// deliveries and emissions stamp at most `now + dwell`), so it is
/// exported as still in flight on its link with arrival cycle `now`,
/// which is exactly where a calendar-only engine would hold it.
pub(crate) fn export_shards(
    plan: &EnginePlan<'_>,
    shards: &[ShardState],
    cursor: &RunCursor,
) -> GlobalState {
    let now = cursor.now;
    let vcs = plan.cfg.vcs;
    let dwell = plan.cfg.pipeline_dwell();

    // --- number live packets in key order, merging their handles ---
    let mut live: Vec<(u64, u16, u32)> = Vec::new();
    for (sid, s) in shards.iter().enumerate() {
        for (h, info) in s.packets.iter().enumerate() {
            if info.flits != 0 {
                live.push((info.key(), sid as u16, h as u32));
            }
        }
    }
    live.sort_unstable();
    let mut gpid_of: Vec<Vec<u32>> = shards
        .iter()
        .map(|s| vec![u32::MAX; s.packets.len()])
        .collect();
    let mut packets: Vec<PacketImage> = Vec::new();
    let mut last_key = None;
    for &(key, sid, h) in &live {
        let s = &shards[usize::from(sid)];
        let info = &s.packets[h as usize];
        if last_key != Some(key) {
            last_key = Some(key);
            packets.push(PacketImage {
                src: info.src.0,
                dst: info.dst.0,
                inject_cycle: info.inject_cycle,
                flits: info.flits,
                ejected: 0,
                class: 0,
            });
        }
        let img = packets.last_mut().expect("pushed above");
        debug_assert_eq!(
            (img.dst, img.inject_cycle, img.flits),
            (info.dst.0, info.inject_cycle, info.flits),
            "handles of one packet disagree"
        );
        img.ejected += info.ejected;
        img.class = img.class.max(class_to_u8(s.class_of[h as usize]));
        gpid_of[usize::from(sid)][h as usize] = packets.len() as u32 - 1;
    }
    let map = |sid: usize, pid: usize| -> u32 {
        let g = gpid_of[sid][pid];
        debug_assert_ne!(g, u32::MAX, "live state references a freed handle");
        g
    };

    // --- per-node images (with the wheel bypass stripped) ---
    let mut nodes = Vec::with_capacity(plan.topo.num_nodes());
    let mut stripped: Vec<(u32, EventImage)> = Vec::new();
    for g in 0..plan.topo.num_nodes() {
        let sid = usize::from(plan.partition.shard_of_node[g]);
        let s = &shards[sid];
        let local = plan.partition.local_of_node[g] as usize;
        let st = &s.nodes[local];
        let c = s.ctl[local];
        let base = c.vc_base as usize;
        let pb = c.port_base as usize;
        let in_ports = st.in_ports();
        let out_ports = st.out_ports();
        let mut slots = Vec::with_capacity(in_ports * vcs);
        for idx in 0..in_ports * vcs {
            let slot = base + idx;
            let m = s.slot_meta[slot];
            let len = meta::len(m);
            let head = meta::head(m);
            let mut queue = Vec::with_capacity(len);
            for k in 0..len {
                let f = s.flit_buf[slot * s.ring + ((head + k) & s.ring_mask)];
                queue.push(FlitImage {
                    packet: map(sid, f.packet()),
                    dst: s.packets[f.packet()].dst.0,
                    is_head: f.is_head(),
                    is_tail: f.is_tail(),
                    ready: f.ready_at(now),
                });
            }
            let in_port = idx / vcs;
            if in_port > 0 {
                if let Some(last) = queue.last() {
                    if last.ready == now + 1 + dwell {
                        // Latency-1 bypass push from the last simulated
                        // cycle: canonically still on the link.
                        let mut ev = queue.pop().expect("nonempty");
                        ev.ready = 0;
                        let lid = st.in_links[in_port - 1].index() as u32;
                        stripped.push((
                            lid,
                            EventImage {
                                arrive: now,
                                vc: (idx % vcs) as u8,
                                flit: ev,
                            },
                        ));
                    }
                }
            }
            slots.push(SlotImage {
                tag: meta::tag(m) as u8,
                out_port: meta::out_port(m) as u8,
                out_vc: meta::out_vc(m) as u8,
                active_pid: if meta::tag(m) == meta::ACTIVE {
                    map(sid, s.active_pid[slot] as usize)
                } else {
                    u32::MAX
                },
                queue,
            });
        }
        nodes.push(NodeImage {
            slots,
            src_queue: st.src_queue.iter().map(|&p| map(sid, p as usize)).collect(),
            emitting: st.emitting.map(|em| EmissionImage {
                packet: map(sid, em.packet as usize),
                emitted: em.emitted,
                total: em.total,
                vc: em.vc,
                dst: em.dst.0,
                inject_cycle: em.inject_cycle,
            }),
            outstanding: s.outstanding[local],
            va_rr: (0..out_ports).map(|p| u16::from(s.va_rr[pb + p])).collect(),
            sa_rr: (0..out_ports).map(|p| u16::from(s.sa_rr[pb + p])).collect(),
        });
    }

    // --- in-flight link events (wheel contents + stripped bypasses) ---
    let mut links: Vec<Vec<EventImage>> = vec![Vec::new(); plan.topo.links().len()];
    for (sid, s) in shards.iter().enumerate() {
        for (bucket, evs) in s.wheel.iter().enumerate() {
            if evs.is_empty() {
                continue;
            }
            // Arrivals live in [now, now + wheel_len); the bucket index
            // recovers the absolute cycle.
            let arrive = now
                + ((bucket as u64 + s.wheel.len() as u64 - (now & s.wheel_mask)) & s.wheel_mask);
            for &(slot, f) in evs {
                let (lid, vc) = s.link_of_slot(slot as usize);
                links[lid.index()].push(EventImage {
                    arrive,
                    vc,
                    flit: FlitImage {
                        packet: map(sid, f.packet()),
                        dst: s.packets[f.packet()].dst.0,
                        is_head: f.is_head(),
                        is_tail: f.is_tail(),
                        ready: 0,
                    },
                });
            }
        }
    }
    for (lid, ev) in stripped {
        links[lid as usize].push(ev);
    }
    for evs in &mut links {
        evs.sort_by_key(|e| e.arrive);
        debug_assert!(
            evs.windows(2).all(|w| w[0].arrive < w[1].arrive),
            "two flits on one link with the same arrival cycle"
        );
    }

    GlobalState {
        now,
        next_event: cursor.next_event,
        accept_from: shards[0].accept_from,
        accept_until: shards[0].accept_until,
        origin_packets: shards.iter().map(|s| s.origin_packets).sum(),
        completed_packets: shards.iter().map(|s| s.completed_packets).sum(),
        vcs: vcs as u32,
        stats: merge_stats(plan, shards, now),
        packets,
        nodes,
        links,
    }
}

/// Serializes the state of a (possibly mid-run) sharded simulation under
/// the plan's fingerprint and the given workload fingerprint.
pub(crate) fn snapshot_shards(
    plan: &EnginePlan<'_>,
    shards: &[ShardState],
    cursor: &RunCursor,
    workload_hash: u64,
) -> Snapshot {
    let gs = export_shards(plan, shards, cursor);
    let plan_hash = plan_fingerprint(plan.topo, plan.routes, &plan.cfg, plan.baseline);
    Snapshot::encode(&gs, plan_hash, workload_hash)
}

/// Handle minting during import. The live engine holds one handle per
/// visit of a packet's route to a shard — admission takes the first, and
/// every boundary head ingest one more (an express dip or an up*/down*
/// detour may leave a shard and come back) — and frees each when the
/// packet's tail leaves that visit. Import mints the same: one handle per
/// (packet, visit), where the visit of a node on the route is the number
/// of shard changes between the packet's source and it ([`route_visit`]).
struct Minter {
    /// Admission number of each packet: its rank among its origin's
    /// packets in table order (export lists them in admission order).
    admission: Vec<u32>,
    /// Handles minted so far, by (packet, visit).
    handle: HashMap<(u32, u32), u32>,
    /// Whether a handle at each packet's destination node was minted: the
    /// one that carries the ejection count.
    at_dst: Vec<bool>,
}

impl Minter {
    /// Numbers `gs`'s packets and continues each origin's admission
    /// numbering in `shards` after its live packets.
    fn new(plan: &EnginePlan<'_>, gs: &GlobalState, shards: &mut [ShardState]) -> Self {
        let part = &plan.partition;
        let admission = gs
            .packets
            .iter()
            .map(|p| {
                let g = usize::from(p.src);
                let s = &mut shards[usize::from(part.shard_of_node[g])];
                let next = &mut s.next_admission[part.local_of_node[g] as usize];
                *next += 1;
                *next - 1
            })
            .collect();
        Minter {
            admission,
            handle: HashMap::new(),
            at_dst: vec![false; gs.packets.len()],
        }
    }

    /// The handle of packet `gpid` at node `at` in `s`, the shard owning
    /// `at`; `Corrupt` when `at` is not on the packet's route.
    fn mint(
        &mut self,
        plan: &EnginePlan<'_>,
        s: &mut ShardState,
        gs: &GlobalState,
        gpid: u32,
        at: NodeId,
    ) -> Result<u32, SnapshotError> {
        let g = gpid as usize;
        let img = &gs.packets[g];
        let visit = route_visit(plan, img, at).ok_or(SnapshotError::Corrupt)?;
        let h = *self.handle.entry((gpid, visit)).or_insert_with(|| {
            let info = PacketInfo {
                src: NodeId(img.src),
                dst: NodeId(img.dst),
                admission: self.admission[g],
                inject_cycle: img.inject_cycle,
                flits: img.flits,
                ejected: 0,
            };
            s.alloc(info, class_from_u8(img.class))
        });
        if at.0 == img.dst {
            s.packets[h as usize].ejected = img.ejected;
            self.at_dst[g] = true;
        }
        Ok(h)
    }
}

/// The visit of node `at` on the route of packet `img`: the number of
/// shard changes between the packet's source and `at`. `None` when the
/// route does not pass `at`.
fn route_visit(plan: &EnginePlan<'_>, img: &PacketImage, at: NodeId) -> Option<u32> {
    let shard = &plan.partition.shard_of_node;
    let dst = NodeId(img.dst);
    let mut n = NodeId(img.src);
    let mut visit = 0;
    // A route passes each node at most once.
    for _ in 0..plan.topo.num_nodes() {
        if n == at {
            return Some(visit);
        }
        let next = plan
            .topo
            .link(plan.routes.next_link(plan.topo, n, dst)?)
            .dst;
        visit += u32::from(shard[next.index()] != shard[n.index()]);
        n = next;
    }
    None
}

/// Rebuilds per-shard engine state from a decoded snapshot under `plan`
/// — whose partition may differ from the one the snapshot was taken
/// with. Returns the shards plus the run cursor to resume from.
///
/// Derived state (arbitration masks, work/src bitsets, the RC dirty
/// list, credit counters) is reconstructed from the logical image; see
/// `docs/SNAPSHOT_FORMAT.md` for why each reconstruction is
/// behaviorally identical to the live state it replaces.
pub(crate) fn import_shards(
    plan: &EnginePlan<'_>,
    gs: &GlobalState,
) -> Result<(Vec<ShardState>, RunCursor), SnapshotError> {
    let vcs = plan.cfg.vcs;
    let depth = plan.cfg.buffer_depth;
    if gs.vcs as usize != vcs
        || gs.nodes.len() != plan.topo.num_nodes()
        || gs.links.len() != plan.topo.links().len()
    {
        return Err(SnapshotError::Corrupt);
    }
    gs.check_packets(plan.cfg.max_outstanding)?;
    let nshards = plan.partition.num_shards();
    let mut shards: Vec<ShardState> = (0..nshards).map(|id| ShardState::new(plan, id)).collect();
    let mut minter = Minter::new(plan, gs, &mut shards);

    // --- per-node state ---
    for (g, n) in gs.nodes.iter().enumerate() {
        let sid = usize::from(plan.partition.shard_of_node[g]);
        let s = &mut shards[sid];
        let local = plan.partition.local_of_node[g] as usize;
        let in_ports = s.nodes[local].in_ports();
        let out_ports = s.nodes[local].out_ports();
        if n.slots.len() != in_ports * vcs
            || n.va_rr.len() != out_ports
            || n.sa_rr.len() != out_ports
        {
            return Err(SnapshotError::Corrupt);
        }
        let base = s.ctl[local].vc_base as usize;
        let pb = s.ctl[local].port_base as usize;
        let mut buffered = 0u32;
        for (idx, img) in n.slots.iter().enumerate() {
            let slot = base + idx;
            let len = img.queue.len();
            if len > depth {
                return Err(SnapshotError::Corrupt);
            }
            // Invariants the arbitration stages rely on: a non-empty idle
            // or routed VC holds its packet's head flit at the front.
            if u32::from(img.tag) != meta::ACTIVE && len > 0 && !img.queue[0].is_head {
                return Err(SnapshotError::Corrupt);
            }
            if u32::from(img.tag) == meta::ROUTED && len == 0 {
                return Err(SnapshotError::Corrupt);
            }
            for (k, f) in img.queue.iter().enumerate() {
                // Ready cycles are compared in 32 bits (`SlotFlit`).
                if f.ready.abs_diff(gs.now) >= READY_SPAN {
                    return Err(SnapshotError::Corrupt);
                }
                let pid = minter.mint(plan, s, gs, f.packet, NodeId(g as u16))?;
                s.flit_buf[slot * s.ring + k] = SlotFlit::new(pid, f.is_head, f.is_tail, f.ready);
            }
            // Ring cursor normalized to head = 0.
            s.slot_meta[slot] = u32::from(img.tag)
                | (u32::from(img.out_port) << meta::PORT_SHIFT)
                | (u32::from(img.out_vc) << meta::OVC_SHIFT)
                | ((len as u32) * meta::LEN_ONE);
            buffered += len as u32;
            match u32::from(img.tag) {
                meta::ROUTED => {
                    let p = usize::from(img.out_port);
                    s.routed_mask[pb + p] |= 1 << idx;
                    s.ctl[local].routed_ports |= 1 << p;
                    s.ctl[local].routed_count += 1;
                }
                meta::ACTIVE => {
                    let p = usize::from(img.out_port);
                    s.active_mask[pb + p] |= 1 << idx;
                    s.ctl[local].active_ports |= 1 << p;
                    s.holder_mask[pb + p] |= 1 << img.out_vc;
                    s.active_pid[slot] =
                        minter.mint(plan, s, gs, img.active_pid, NodeId(g as u16))?;
                }
                _ => {
                    if len > 0 {
                        // Head awaiting route computation. The live
                        // dirty-list order is irrelevant: RC handles each
                        // slot independently.
                        s.rc_dirty.push(slot as u32);
                    }
                }
            }
        }
        s.ctl[local].buffered = buffered;
        if buffered > 0 {
            s.set_work(local);
        }
        for p in 0..out_ports {
            if usize::from(n.va_rr[p]) >= in_ports * vcs
                || usize::from(n.sa_rr[p]) >= in_ports * vcs
            {
                return Err(SnapshotError::Corrupt);
            }
            s.va_rr[pb + p] = n.va_rr[p] as u8;
            s.sa_rr[pb + p] = n.sa_rr[p] as u8;
        }
        for &gpid in &n.src_queue {
            let pid = minter.mint(plan, s, gs, gpid, NodeId(g as u16))?;
            s.nodes[local].src_queue.push_back(pid);
        }
        s.pending_sources += n.src_queue.len() as u64;
        if let Some(em) = &n.emitting {
            let pid = minter.mint(plan, s, gs, em.packet, NodeId(g as u16))?;
            s.nodes[local].emitting = Some(Emission {
                packet: pid,
                emitted: em.emitted,
                total: em.total,
                vc: em.vc,
                dst: NodeId(em.dst),
                inject_cycle: em.inject_cycle,
            });
            s.pending_sources += 1;
        }
        if s.nodes[local].emitting.is_some() || !s.nodes[local].src_queue.is_empty() {
            // May re-arm a source the live engine had parked; the extra
            // emission visit is a no-op that re-parks it (nothing that
            // would let it push can have happened since it parked).
            s.set_src(local);
        }
        s.outstanding[local] = n.outstanding;
    }

    // --- in-flight flits → calendar wheels ---
    for (lid, evs) in gs.links.iter().enumerate() {
        let sid = usize::from(plan.partition.link_dst_shard[lid]);
        let s = &mut shards[sid];
        let to = plan.topo.link(LinkId(lid as u32)).dst;
        for ev in evs {
            if ev.arrive - gs.now >= plan.wheel_len as u64 {
                return Err(SnapshotError::Corrupt);
            }
            let pid = minter.mint(plan, s, gs, ev.flit.packet, to)?;
            let f = SlotFlit::new(pid, ev.flit.is_head, ev.flit.is_tail, 0);
            s.wheel_push(ev.arrive, (plan.in_slot(lid) + u32::from(ev.vc), f));
        }
    }

    // --- wormhole remap seeding ---
    // A slot mid-transmission (output VC granted, head already departed,
    // tail not yet) has flits of its packet still to cross its output
    // link. If that link is a shard cut under the *new* partition, the
    // receiving shard must already hold the remap entry the in-network
    // head would have minted on ingest.
    for (g, n) in gs.nodes.iter().enumerate() {
        let owner = usize::from(plan.partition.shard_of_node[g]);
        for img in &n.slots {
            if u32::from(img.tag) != meta::ACTIVE || img.out_port == 0 {
                continue;
            }
            let head_departed = match img.queue.first() {
                Some(f) => !f.is_head,
                None => true,
            };
            if !head_departed {
                continue;
            }
            let p = usize::from(img.out_port);
            let local = plan.partition.local_of_node[g] as usize;
            let lid = shards[owner].nodes[local].out_links[p - 1].index();
            let dst_shard = usize::from(plan.partition.link_dst_shard[lid]);
            if dst_shard == owner {
                continue; // intra-shard sends never consult the remap
            }
            let s = &mut shards[dst_shard];
            let to = plan.topo.link(LinkId(lid as u32)).dst;
            let pid = minter.mint(plan, s, gs, img.active_pid, to)?;
            s.remap[(plan.in_slot(lid) + u32::from(img.out_vc)) as usize] = pid;
        }
    }
    // A packet with ejected flits holds the ejecting VC at its destination.
    if (gs.packets.iter().zip(&minter.at_dst)).any(|(p, &placed)| p.ejected > 0 && !placed) {
        return Err(SnapshotError::Corrupt);
    }

    // --- derived credit state ---
    // Spendable credits are fully determined by downstream occupancy
    // (`GlobalState::lane_credits`). A freshly-stamped cell (stamp 0,
    // empty pending half) behaves identically to the live cell from
    // cycle `now` on: any access folds the live cell's pending credits in
    // (they were freed strictly before `now`), landing on this same
    // spendable count.
    let lanes = gs.lane_credits(plan.topo, depth)?;
    for s in &mut shards {
        let mut credits = std::mem::take(&mut s.credits);
        for (rank, lid) in s.driven_links() {
            for vc in 0..vcs {
                credits[rank * vcs + vc] = CreditCell {
                    stamp: 0,
                    avail: lanes[lid.index() * vcs + vc],
                    pending: 0,
                };
            }
        }
        s.credits = credits;
    }

    // --- global counters, statistics, acceptance window ---
    // The merged history is scattered back: totals on shard 0, each link
    // and node entry on its shard. Per-shard contributions from here on
    // re-merge to the continued-run totals (sums stay sums; a node's
    // peaks accrue in exactly one shard).
    scatter_stats(&mut shards, &gs.stats);
    shards[0].origin_packets = gs.origin_packets;
    shards[0].completed_packets = gs.completed_packets;
    for s in &mut shards {
        s.accept_from = gs.accept_from;
        s.accept_until = gs.accept_until;
    }
    Ok((
        shards,
        RunCursor {
            now: gs.now,
            next_event: gs.next_event,
        },
    ))
}

/// Decodes `snap` against `plan`, checks the workload fingerprint, and
/// rebuilds shard state. `workload_hash` = 0 skips the workload check
/// (manual-stepping snapshots don't pin one); a snapshot taken with
/// hash 0 likewise resumes under any workload.
fn restore_shards(
    plan: &EnginePlan<'_>,
    snap: &Snapshot,
    workload_hash: u64,
) -> Result<(Vec<ShardState>, RunCursor), SimError> {
    let gs = snap.decode_for(plan_fingerprint(
        plan.topo,
        plan.routes,
        &plan.cfg,
        plan.baseline,
    ))?;
    let stored = snap.workload_hash();
    if stored != 0 && workload_hash != 0 && stored != workload_hash {
        return Err(SimError::Snapshot(SnapshotError::WorkloadMismatch));
    }
    Ok(import_shards(plan, &gs)?)
}

// ---- the public engine -------------------------------------------------

/// The active-set engine: the mesh partitioned into rectangular shards
/// advancing in cycle-synchronous supersteps (see the module docs for
/// the protocol). It goes by two names: [`ShardedSimulator`]
/// (`ONE_SHARD = false`), built over a caller-chosen shard grid, and
/// [`crate::Simulator`] (`ONE_SHARD = true`), the P=1 engine, which adds
/// a manual-stepping API. Every run, resume, snapshot and restore method
/// is written once, here, for both; statistics are **bit-for-bit
/// identical** at every shard count (`tests/shard_parity.rs` pins this).
pub struct Engine<'a, const ONE_SHARD: bool> {
    pub(crate) plan: EnginePlan<'a>,
    pub(crate) shards: Vec<ShardState>,
    threads: usize,
}

/// The engine over a caller-chosen shard grid.
pub type ShardedSimulator<'a> = Engine<'a, false>;

impl<'a> ShardedSimulator<'a> {
    /// Builds a sharded simulator over `spec`'s tile grid (see
    /// [`ShardSpec::for_count`] for a near-square grid of N tiles).
    /// `routes` must have been computed for `topo` (use
    /// [`RoutingTable::compute_xy`]).
    pub fn new(
        topo: &'a Topology,
        routes: &'a RoutingTable,
        cfg: SimConfig,
        spec: ShardSpec,
    ) -> Self {
        Engine::partitioned(topo, routes, cfg, spec)
    }
}

impl<'a, const ONE_SHARD: bool> Engine<'a, ONE_SHARD> {
    /// The constructor behind both names' `new`.
    pub(crate) fn partitioned(
        topo: &'a Topology,
        routes: &'a RoutingTable,
        cfg: SimConfig,
        spec: ShardSpec,
    ) -> Self {
        let partition = Partition::new(topo, spec);
        let plan = EnginePlan::new(topo, routes, cfg, partition);
        let shards = (0..plan.partition.num_shards())
            .map(|id| ShardState::new(&plan, id))
            .collect();
        Engine {
            plan,
            shards,
            threads: 0,
        }
    }

    /// Caps the worker-thread count. `0` (the default) runs one worker
    /// per shard; `1` runs the full superstep protocol on the calling
    /// thread (useful on small hosts — results are identical either way).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Simulated cycles per superstep exchange: always 1, since every
    /// cycle is one superstep (see the module docs). Kept as a constant
    /// for callers that record it.
    pub fn lookahead(&self) -> u64 {
        1
    }

    /// Installs the healthy-mesh baseline (topology + routes the faults
    /// were applied to) so admitted packets are charged
    /// [`SimStats::rerouted_hops`] for detours versus the healthy route.
    pub fn with_baseline(mut self, topo: &'a Topology, routes: &'a RoutingTable) -> Self {
        self.plan.set_baseline(topo, routes);
        self
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Runs a trace to completion.
    pub fn run_trace(self, trace: &Trace) -> Result<SimStats, SimError> {
        self.run_trace_probed(trace, &mut NoopProbe)
    }

    /// Runs Bernoulli-injected synthetic traffic: each node injects 1-flit
    /// packets at its row rate of `matrix`, destinations sampled from the
    /// row distribution. Packets injected during the first `warmup` cycles
    /// are not measured; injection stops after `warmup + measure` cycles and
    /// the network drains.
    pub fn run_synthetic(
        self,
        matrix: &TrafficMatrix,
        warmup: u64,
        measure: u64,
        seed: u64,
    ) -> Result<SimStats, SimError> {
        self.run_synthetic_probed(matrix, warmup, measure, seed, &mut NoopProbe)
    }

    // ---- telemetry -------------------------------------------------------

    /// [`Self::run_trace`] with a telemetry probe attached (see
    /// [`crate::telemetry`]). Runs with an enabled probe are
    /// single-worker so one probe instance observes every shard; the
    /// statistics are bit-for-bit those of the plain run
    /// (`tests/telemetry_parity.rs` pins this). With [`NoopProbe`] this
    /// *is* the plain run: every hook compiles away.
    pub fn run_trace_probed<P: Probe>(
        self,
        trace: &Trace,
        probe: &mut P,
    ) -> Result<SimStats, SimError> {
        self.drive(Workload::Trace(trace), None, u64::MAX, probe, None)
            .map(RunOutcome::expect_finished)
    }

    /// [`Self::run_synthetic`] with a telemetry probe attached — same
    /// contract as [`Self::run_trace_probed`].
    pub fn run_synthetic_probed<P: Probe>(
        self,
        matrix: &TrafficMatrix,
        warmup: u64,
        measure: u64,
        seed: u64,
        probe: &mut P,
    ) -> Result<SimStats, SimError> {
        let tables = InjectTables::new(self.plan.topo, matrix);
        let workload = Workload::Synthetic {
            tables: &tables,
            warmup,
            measure,
            seed,
        };
        self.drive(workload, None, u64::MAX, probe, None)
            .map(RunOutcome::expect_finished)
    }

    /// [`Self::run_trace`] with engine self-profiling: returns the
    /// statistics plus the superstep phase-time breakdown (step vs.
    /// exchange vs. barrier wait). Profiling composes with
    /// multi-threaded runs (atomics, flushed per worker on exit).
    pub fn run_trace_profiled(self, trace: &Trace) -> Result<(SimStats, EngineProfile), SimError> {
        let workers = self.workers();
        let sink = ProfileSink::new();
        let stats = self
            .drive(
                Workload::Trace(trace),
                None,
                u64::MAX,
                &mut NoopProbe,
                Some(&sink),
            )?
            .expect_finished();
        Ok((stats, sink.profile(workers)))
    }

    /// [`Self::run_synthetic`] with engine self-profiling — same
    /// contract as [`Self::run_trace_profiled`].
    pub fn run_synthetic_profiled(
        self,
        matrix: &TrafficMatrix,
        warmup: u64,
        measure: u64,
        seed: u64,
    ) -> Result<(SimStats, EngineProfile), SimError> {
        let workers = self.workers();
        let sink = ProfileSink::new();
        let tables = InjectTables::new(self.plan.topo, matrix);
        let workload = Workload::Synthetic {
            tables: &tables,
            warmup,
            measure,
            seed,
        };
        let stats = self
            .drive(workload, None, u64::MAX, &mut NoopProbe, Some(&sink))?
            .expect_finished();
        Ok((stats, sink.profile(workers)))
    }

    // ---- checkpoint / restore -------------------------------------------

    /// Serializes the engine state at the cycle boundary `now` (cycles
    /// `0..now` simulated, `now` not yet). The snapshot is
    /// partition-independent: all P shards' state is merged into one
    /// global image, so it restores at any shard count. For use with
    /// manual stepping — the caller owns the clock, so it supplies the
    /// boundary; the snapshot pins no workload (any `resume_*` accepts
    /// it, rebuilding the trace cursor by scanning). Bounded runs
    /// ([`run_trace_until`](Self::run_trace_until)) produce their own
    /// snapshots instead.
    pub fn snapshot(&self, now: u64) -> Snapshot {
        let cursor = RunCursor { now, next_event: 0 };
        snapshot_shards(&self.plan, &self.shards, &cursor, 0)
    }

    /// Rebuilds this simulator's state from a snapshot, re-partitioning
    /// it across this simulator's shard grid — the snapshot may have
    /// been taken by any engine at any shard count. Must match this
    /// simulator's topology, routing, and configuration
    /// (fingerprint-checked). Continue a restored [`crate::Simulator`]
    /// with the manual-stepping API from cycle [`Snapshot::now`], or use
    /// a `resume_*` entry point to rejoin a paused run.
    pub fn restore(mut self, snap: &Snapshot) -> Result<Self, SimError> {
        self.shards = restore_shards(&self.plan, snap, 0)?.0;
        Ok(self)
    }

    /// Runs a trace, pausing at the cycle boundary `stop_at` if the
    /// workload hasn't drained by then. Pausing at `c` and resuming
    /// yields statistics bit-for-bit identical to the uninterrupted run
    /// — `tests/snapshot_parity.rs` pins this.
    pub fn run_trace_until(self, trace: &Trace, stop_at: u64) -> Result<RunOutcome, SimError> {
        self.drive(Workload::Trace(trace), None, stop_at, &mut NoopProbe, None)
    }

    /// Resumes a paused trace run from `snap`, itself pausing again at
    /// `stop_at` if the trace hasn't drained (pass `u64::MAX` to run to
    /// completion). The snapshot may come from any engine at any shard
    /// count, and must carry this trace's fingerprint or none (manual
    /// snapshots).
    pub fn resume_trace_until(
        self,
        snap: &Snapshot,
        trace: &Trace,
        stop_at: u64,
    ) -> Result<RunOutcome, SimError> {
        self.drive(
            Workload::Trace(trace),
            Some(snap),
            stop_at,
            &mut NoopProbe,
            None,
        )
    }

    /// Resumes a paused trace run to completion.
    pub fn resume_trace(self, snap: &Snapshot, trace: &Trace) -> Result<SimStats, SimError> {
        self.resume_trace_until(snap, trace, u64::MAX)
            .map(RunOutcome::expect_finished)
    }

    /// Runs synthetic traffic, pausing at the cycle boundary `stop_at`
    /// if the run hasn't drained by then. Pausing at the end of warmup
    /// and resuming per load point is what makes warm-start sweeps cheap
    /// (see [`crate::SweepConfig::cold`]).
    pub fn run_synthetic_until(
        self,
        matrix: &TrafficMatrix,
        warmup: u64,
        measure: u64,
        seed: u64,
        stop_at: u64,
    ) -> Result<RunOutcome, SimError> {
        let tables = InjectTables::new(self.plan.topo, matrix);
        let workload = Workload::Synthetic {
            tables: &tables,
            warmup,
            measure,
            seed,
        };
        self.drive(workload, None, stop_at, &mut NoopProbe, None)
    }

    /// Resumes a paused synthetic run to completion. The snapshot must
    /// match `(warmup, measure, seed)` or pin no workload (manual
    /// snapshots) — the traffic matrix is deliberately *not*
    /// fingerprinted, so a post-warmup snapshot can be resumed at each
    /// rate-grid point (the matrix only shapes injections after the
    /// snapshot boundary, and every draw is a function of `(seed, node,
    /// cycle)`, so the snapshot carries no generator state).
    pub fn resume_synthetic(
        self,
        snap: &Snapshot,
        matrix: &TrafficMatrix,
        warmup: u64,
        measure: u64,
        seed: u64,
    ) -> Result<SimStats, SimError> {
        let tables = InjectTables::new(self.plan.topo, matrix);
        let workload = Workload::Synthetic {
            tables: &tables,
            warmup,
            measure,
            seed,
        };
        self.drive(workload, Some(snap), u64::MAX, &mut NoopProbe, None)
            .map(RunOutcome::expect_finished)
    }

    /// Worker threads a plain run uses: one per shard unless capped.
    fn workers(&self) -> usize {
        match self.threads {
            0 => self.shards.len(),
            t => t.min(self.shards.len()),
        }
    }

    /// The run driver behind every `run_*` / `resume_*` entry point of
    /// both engine names. Restores `from` when given (checking its
    /// workload fingerprint), runs `workload` until it drains or reaches
    /// the cycle boundary `stop_at`, and returns the merged statistics or
    /// the pause snapshot.
    ///
    /// The shards are split into contiguous chunks, one per worker; a
    /// single worker runs everything on the calling thread (still
    /// exchanging through the mailbox grid when P > 1 — the protocol is
    /// identical, only the parallelism differs). A run with a real
    /// probe (`P::ENABLED`) is forced single-worker so one probe
    /// instance observes every shard of every cycle — statistics are
    /// bit-for-bit independent of the worker count, so this only
    /// affects wall clock. `prof`, when set, collects superstep phase
    /// times from all workers.
    pub(crate) fn drive<P: Probe>(
        self,
        workload: Workload<'_>,
        from: Option<&Snapshot>,
        stop_at: u64,
        probe: &mut P,
        prof: Option<&ProfileSink>,
    ) -> Result<RunOutcome, SimError> {
        if let Workload::Trace(trace) = workload {
            assert_eq!(usize::from(trace.num_nodes), self.plan.topo.num_nodes());
        }
        let workers = if P::ENABLED { 1 } else { self.workers() };
        let Engine {
            plan, mut shards, ..
        } = self;
        let start = match from {
            None => RunCursor::default(),
            Some(snap) => {
                let (restored, mut cursor) = restore_shards(&plan, snap, workload.fingerprint())?;
                // A snapshot that pins no trace (manual stepping) resumes
                // at the first event not yet admitted at its boundary.
                if let Workload::Trace(trace) = workload {
                    if snap.workload_hash() == 0 {
                        cursor.next_event = rescan_trace_cursor(trace, cursor.now);
                    }
                }
                shards = restored;
                cursor
            }
        };
        // Acceptance window for `SimStats::accepted_flits`: the measurement
        // window of a synthetic run, the whole run for traces.
        let (accept_from, accept_until) = match workload {
            Workload::Trace(_) => (0, u64::MAX),
            Workload::Synthetic {
                warmup, measure, ..
            } => (warmup, warmup + measure),
        };
        for s in shards.iter_mut() {
            s.accept_from = accept_from;
            s.accept_until = accept_until;
        }
        let shared = Shared::new(shards.len(), workers);
        // Contiguous chunks, sizes balanced to within one shard.
        let base = shards.len() / workers;
        let rem = shards.len() % workers;
        let mut rest = &mut shards[..];
        let mut chunks = Vec::with_capacity(workers);
        for w in 0..workers {
            let (head, tail) = rest.split_at_mut(base + usize::from(w < rem));
            chunks.push(head);
            rest = tail;
        }
        // Publish pre-run activity. A resumed run starts with live shard
        // state, and the very first lockstep decision reads the other
        // workers' published flags — the default idle values would let a
        // worker fast-forward past a restored neighbor's booked arrivals.
        for (w, chunk) in chunks.iter().enumerate() {
            let active = chunk.iter().any(|s| !s.quiescent());
            shared.published[w].active.store(active, Ordering::Release);
            let arr = chunk
                .iter()
                .filter_map(|s| s.next_arrival_cycle(start.now))
                .min()
                .unwrap_or(u64::MAX);
            shared.published[w]
                .next_arrival
                .store(arr, Ordering::Release);
        }
        let end = if workers == 1 {
            let chunk = chunks.pop().expect("one worker has one chunk");
            worker_loop(
                &plan, &shared, chunk, workload, 0, start, stop_at, probe, prof,
            )
        } else {
            debug_assert!(!P::ENABLED, "a probed run is single-worker");
            let (plan, shared) = (&plan, &shared);
            std::thread::scope(|scope| {
                let handles: Vec<_> = chunks
                    .into_iter()
                    .enumerate()
                    .map(|(w, chunk)| {
                        scope.spawn(move || {
                            worker_loop(
                                plan,
                                shared,
                                chunk,
                                workload,
                                w,
                                start,
                                stop_at,
                                &mut NoopProbe,
                                prof,
                            )
                        })
                    })
                    .collect();
                // Lockstep guarantees identical outcomes; keep the first.
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker thread panicked"))
                    .reduce(|a, b| {
                        debug_assert_eq!(a, b, "workers diverged");
                        a
                    })
                    .expect("at least one worker")
            })
        }?;
        Ok(match end {
            RunEnd::Done(cycles) => RunOutcome::Finished(merge_stats(&plan, &shards, cycles)),
            RunEnd::Stopped(cursor) => RunOutcome::Paused(snapshot_shards(
                &plan,
                &shards,
                &cursor,
                workload.fingerprint(),
            )),
        })
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

    fn run_sharded_trace(
        topo: &Topology,
        spec: ShardSpec,
        threads: usize,
        events: Vec<TraceEvent>,
    ) -> SimStats {
        let routes = RoutingTable::compute_xy(topo);
        let trace = Trace::new("test", topo.num_nodes() as u16, 0.0, events);
        ShardedSimulator::new(topo, &routes, SimConfig::paper(), spec)
            .with_threads(threads)
            .run_trace(&trace)
            .expect("run completes")
    }

    #[test]
    fn boundary_crossing_preserves_zero_load_latency() {
        // 2×1 mesh split into two shards: the single hop crosses the
        // boundary, and the mailbox exchange must land the flit in the
        // same calendar bucket P=1 would use — 7 cycles exactly.
        let t = small_mesh(2, 1);
        for threads in [1, 2] {
            let stats = run_sharded_trace(
                &t,
                ShardSpec { sx: 2, sy: 1 },
                threads,
                vec![TraceEvent {
                    cycle: 0,
                    src: NodeId(0),
                    dst: NodeId(1),
                    flits: 1,
                }],
            );
            assert_eq!(stats.all.count, 1, "threads {threads}");
            assert_eq!(stats.all.max, 7, "threads {threads}");
            assert_eq!(stats.flits_delivered, 1);
        }
    }

    #[test]
    #[should_panic(expected = "at least 2 VCs")]
    fn rejects_one_vc_on_a_dateline_mesh() {
        let (base, tech) = (LinkTechnology::Electronic, LinkTechnology::Hyppi);
        let t = express_mesh(MeshSpec::paper(base), ExpressSpec { span: 3, tech });
        let mut cfg = SimConfig::paper();
        cfg.vcs = 1;
        let routes = RoutingTable::compute_xy(&t);
        let _ = ShardedSimulator::new(&t, &routes, cfg, ShardSpec::for_count(4));
    }

    #[test]
    fn wormhole_packet_reassembles_across_boundary() {
        // A 32-flit packet crossing a shard cut: the head mints the remap
        // handle and all body flits retag through it; serialization
        // latency must match the P=1 value (7 + 31).
        let t = small_mesh(4, 1);
        let stats = run_sharded_trace(
            &t,
            ShardSpec { sx: 2, sy: 1 },
            2,
            vec![TraceEvent {
                cycle: 0,
                src: NodeId(0),
                dst: NodeId(3),
                flits: 32,
            }],
        );
        assert_eq!(stats.all.count, 1);
        assert_eq!(stats.all.max, 15 + 31);
        assert_eq!(stats.flits_delivered, 32);
    }

    #[test]
    fn quadrant_trace_matches_single_shard() {
        let t = small_mesh(8, 8);
        let mut events = Vec::new();
        for s in 0..64u16 {
            for k in 1..6u16 {
                events.push(TraceEvent {
                    cycle: u64::from(k) * 3,
                    src: NodeId(s),
                    dst: NodeId((s + 13 * k) % 64),
                    flits: if k % 2 == 0 { 32 } else { 1 },
                });
            }
        }
        let routes = RoutingTable::compute_xy(&t);
        let trace = Trace::new("test", 64, 0.0, events.clone());
        let single = crate::Simulator::new(&t, &routes, SimConfig::paper())
            .run_trace(&trace)
            .expect("completes");
        for threads in [1, 4] {
            let sharded = run_sharded_trace(&t, ShardSpec::quadrants(), threads, events.clone());
            assert_eq!(sharded, single, "threads {threads}");
        }
    }

    #[test]
    fn express_dateline_class_crosses_boundaries() {
        // Span-5 express on a 16-wide mesh cut into 4 columns: express
        // links cross shard cuts, so the class-B transition must ride
        // the mailbox metadata.
        let spec = MeshSpec {
            width: 16,
            height: 2,
            core_spacing_mm: 1.0,
            base_tech: LinkTechnology::Electronic,
            capacity: Gbps::new(50.0),
        };
        let t = express_mesh(
            spec,
            ExpressSpec {
                span: 5,
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
        let routes = RoutingTable::compute_xy(&t);
        let trace = Trace::new("test", n, 0.0, events);
        let single = crate::Simulator::new(&t, &routes, SimConfig::paper())
            .run_trace(&trace)
            .expect("completes");
        let sharded =
            ShardedSimulator::new(&t, &routes, SimConfig::paper(), ShardSpec { sx: 4, sy: 1 })
                .with_threads(2)
                .run_trace(&trace)
                .expect("completes");
        assert_eq!(sharded, single);
    }

    /// Each shard draws only its own nodes' injections, yet the run
    /// equals P=1 at any worker count.
    #[test]
    fn synthetic_draws_match_single_shard() {
        let t = small_mesh(6, 6);
        let routes = RoutingTable::compute_xy(&t);
        let mut m = TrafficMatrix::zero(36);
        for s in 0..36u16 {
            m.set(NodeId(s), NodeId((s + 7) % 36), 0.04);
            m.set(NodeId(s), NodeId((s + 19) % 36), 0.04);
        }
        let single = crate::Simulator::new(&t, &routes, SimConfig::paper())
            .run_synthetic(&m, 150, 500, 42)
            .expect("completes");
        for threads in [1, 4] {
            let sharded =
                ShardedSimulator::new(&t, &routes, SimConfig::paper(), ShardSpec::quadrants())
                    .with_threads(threads)
                    .run_synthetic(&m, 150, 500, 42)
                    .expect("completes");
            assert_eq!(sharded, single, "threads {threads}");
        }
    }

    #[test]
    fn fast_forward_agrees_across_shards() {
        // A huge idle gap between two packets on different shards: the
        // lockstep fast-forward must jump, not simulate, and still deliver
        // the late packet with zero-load latency.
        let t = small_mesh(4, 4);
        let stats = run_sharded_trace(
            &t,
            ShardSpec::quadrants(),
            4,
            vec![
                TraceEvent {
                    cycle: 0,
                    src: NodeId(0),
                    dst: NodeId(15),
                    flits: 1,
                },
                TraceEvent {
                    cycle: 2_000_000,
                    src: NodeId(15),
                    dst: NodeId(0),
                    flits: 1,
                },
            ],
        );
        assert_eq!(stats.all.count, 2);
        // 6 hops × 4 cycles + 3-cycle first router = 27 for both packets.
        assert_eq!(stats.all.max, 27);
    }

    #[test]
    fn cycle_limit_stuck_count_matches_single_shard() {
        // Overload a tiny mesh with an unreachable cycle budget; the
        // sharded stuck-packet count (origin-minus-completed summed over
        // shards) must equal the P=1 count.
        let t = small_mesh(4, 2);
        let mut events = Vec::new();
        for s in 0..8u16 {
            for k in 0..40u16 {
                events.push(TraceEvent {
                    cycle: 0,
                    src: NodeId(s),
                    dst: NodeId((s + 3 + k % 4) % 8),
                    flits: 32,
                });
            }
        }
        let routes = RoutingTable::compute_xy(&t);
        let mut cfg = SimConfig::paper();
        cfg.max_cycles = 60;
        let trace = Trace::new("overload", 8, 0.0, events);
        let single = crate::Simulator::new(&t, &routes, cfg)
            .run_trace(&trace)
            .expect_err("cycle limit");
        let sharded = ShardedSimulator::new(&t, &routes, cfg, ShardSpec { sx: 2, sy: 1 })
            .with_threads(2)
            .run_trace(&trace)
            .expect_err("cycle limit");
        assert_eq!(single, sharded);
    }

    #[test]
    fn cycle_limit_with_net_importer_shard() {
        // All traffic flows left half → right half: the right shard
        // completes packets it never originated, so the stuck-packet
        // accounting must difference global sums, not per-shard ones
        // (a per-shard `origins - completed` underflows u64 here).
        let t = small_mesh(4, 2);
        let mut events = Vec::new();
        for k in 0..60u16 {
            for s in 0..4u16 {
                let src = NodeId((s % 2) + 4 * (s / 2)); // x ∈ {0, 1}
                let dst = NodeId(2 + (k % 2) + 4 * (s / 2)); // x ∈ {2, 3}
                events.push(TraceEvent {
                    cycle: 0,
                    src,
                    dst,
                    flits: 32,
                });
            }
        }
        let routes = RoutingTable::compute_xy(&t);
        let mut cfg = SimConfig::paper();
        cfg.max_cycles = 80;
        let trace = Trace::new("importer overload", 8, 0.0, events);
        let single = crate::Simulator::new(&t, &routes, cfg)
            .run_trace(&trace)
            .expect_err("cycle limit");
        for threads in [1, 2] {
            let sharded = ShardedSimulator::new(&t, &routes, cfg, ShardSpec { sx: 2, sy: 1 })
                .with_threads(threads)
                .run_trace(&trace)
                .expect_err("cycle limit");
            assert_eq!(single, sharded, "threads {threads}");
        }
    }

    #[test]
    fn shard_count_constructor_round_trips() {
        let t = small_mesh(8, 8);
        let routes = RoutingTable::compute_xy(&t);
        let sim = ShardedSimulator::new(&t, &routes, SimConfig::paper(), ShardSpec::for_count(4));
        assert_eq!(sim.num_shards(), 4);
    }

    #[test]
    fn credit_cell_defers_freed_credits_to_next_cycle() {
        // The spendable count at `now`, read from a copy so the cell
        // itself is not normalized.
        let peek = |mut c: CreditCell, now: u64| c.normalize(now);
        let mut c = CreditCell::new(2);
        assert_eq!(c.normalize(5), 2);
        c.take(5);
        assert_eq!(peek(c, 5), 1);
        // A credit freed during cycle 5 is invisible for the rest of
        // cycle 5 — exactly the old staged-list semantics…
        c.free(5);
        assert_eq!(c.normalize(5), 1);
        assert_eq!(peek(c, 5), 1);
        // …and folds in on any access at a later cycle.
        assert_eq!(peek(c, 6), 2);
        assert_eq!(c.normalize(8), 2);
        assert_eq!(peek(c, 8), 2);
    }

    #[test]
    fn destination_search_matches_binary_search() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Rows the way `InjectTables::new` builds them: prefix sums of
        // `weight / total` over the positive weights.
        fn prefix_row(weights: &[f64], scale: f64) -> Vec<f64> {
            let total: f64 = weights.iter().sum();
            let mut acc = 0.0;
            weights
                .iter()
                .map(|w| {
                    acc += w / total;
                    acc * scale
                })
                .collect()
        }
        let below_one = f64::from_bits(1.0f64.to_bits() - 1);
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut rows: Vec<Vec<f64>> = vec![
            // Transpose and complement: one destination per source.
            vec![1.0],
            vec![below_one],
            prefix_row(&[1.0], 1.0),
        ];
        for _ in 0..120 {
            let len = 1 + (rng.next_u64() % 2048) as usize;
            // Random shares, some tiny enough to leave plateaus.
            let random: Vec<f64> = (0..len)
                .map(|_| match rng.next_u64() % 8 {
                    0 => 1e-300,
                    _ => rng.gen::<f64>(),
                })
                .collect();
            rows.push(prefix_row(&random, 1.0));
            rows.push(prefix_row(&vec![1.0; len], 1.0));
            // Hotspot: a uniform background plus a few heavy entries.
            let mut hot = vec![1.0; len];
            for _ in 0..4 {
                hot[(rng.next_u64() % len as u64) as usize] = 50.0;
            }
            rows.push(prefix_row(&hot, 1.0));
            // A final prefix sum that rounds below the largest draws.
            rows.push(prefix_row(&random, 1.0 - 1e-12));
        }
        for row in &rows {
            assert!(row.windows(2).all(|w| w[0] <= w[1]), "nondecreasing");
            let mut us = vec![0.0, below_one];
            us.extend((0..64).map(|_| rng.gen::<f64>()));
            for &a in row.iter().step_by(1 + row.len() / 64) {
                us.extend([
                    a,
                    f64::from_bits(a.to_bits() + 1),
                    f64::from_bits(a.to_bits() - 1),
                ]);
            }
            for u in us.into_iter().filter(|u| (0.0..1.0).contains(u)) {
                let got = first_at_least(row, u);
                assert_eq!(
                    got,
                    row.partition_point(|&a| a < u),
                    "u={u} len={}",
                    row.len()
                );
                // `inject_cycle` falls back to the last entry only when
                // rounding left every prefix sum below `u`.
                assert_eq!(got == row.len(), row[row.len() - 1] < u);
            }
        }
    }

    #[test]
    fn occupancy_bitset_jumps_to_next_bucket() {
        let t = small_mesh(2, 1);
        let routes = RoutingTable::compute_xy(&t);
        let plan = EnginePlan::new(&t, &routes, SimConfig::paper(), Partition::single(&t));
        let mut s = ShardState::new(&plan, 0);
        assert_eq!(s.next_arrival_cycle(10), None, "empty calendar");
        let f = SlotFlit::new(0, true, true, 0);
        // An arrival within the wheel's revolution is found from any
        // earlier cycle in one bitset probe, including across the
        // bucket-index wrap (cycle 13 lives in a lower bucket than 11).
        s.wheel_push(13, (0, f));
        for now in 10..=13 {
            assert_eq!(s.next_arrival_cycle(now), Some(13), "from {now}");
        }
        s.wheel_push(11, (0, f));
        assert_eq!(s.next_arrival_cycle(10), Some(11));
        assert_eq!(s.next_arrival_cycle(11), Some(11));
    }

    #[test]
    fn snapshot_class_bytes_fold_express_routes_into_class_a() {
        // The reference engine writes class byte 1 for a class-A packet
        // whose route crosses an express link. The active engine reads 0
        // and 1 as class A, writes every class-A packet as 0, and keeps
        // class B as 2.
        let t = express_mesh(
            MeshSpec {
                width: 8,
                height: 8,
                core_spacing_mm: 1.0,
                base_tech: LinkTechnology::Electronic,
                capacity: Gbps::new(50.0),
            },
            ExpressSpec {
                span: 3,
                tech: LinkTechnology::Hyppi,
            },
        );
        let routes = RoutingTable::compute_xy(&t);
        let cfg = SimConfig::paper();
        let n = t.num_nodes() as u16;
        let mut events = Vec::new();
        for k in 1..8u16 {
            for s in 0..n {
                events.push(TraceEvent {
                    cycle: u64::from(k) * 4,
                    src: NodeId(s),
                    dst: NodeId((s + 5 * k) % n),
                    flits: 32,
                });
            }
        }
        let trace = Trace::new("classes", n, 0.0, events);
        let split = 40;
        let reference = crate::reference::ReferenceSimulator::new(&t, &routes, cfg)
            .run_trace_until(&trace, split)
            .expect("bounded run completes")
            .expect_paused();
        let class_bytes = |snap: &Snapshot| {
            let gs = snap.decode_for(snap.plan_hash()).expect("snapshot decodes");
            let mut counts = [0usize; 3];
            for p in &gs.packets {
                counts[usize::from(p.class)] += 1;
            }
            counts
        };
        let before = class_bytes(&reference);
        assert!(before[1] > 0, "no live packet carries class byte 1");
        assert!(before[2] > 0, "no live packet carries class byte 2");
        let resnap = ShardedSimulator::new(&t, &routes, cfg, ShardSpec { sx: 2, sy: 1 })
            .restore(&reference)
            .expect("reference snapshot restores")
            .snapshot(split);
        assert_eq!(
            class_bytes(&resnap),
            [before[0] + before[1], 0, before[2]],
            "class bytes after a re-export (reference: {before:?})"
        );
    }

    /// Packet-table length of every shard after a uniform open-loop run
    /// at 0.1 flits/node/cycle (below saturation) on an 8×8 mesh, with
    /// `measure` injection cycles after a 200-cycle warm-up.
    fn table_lengths(spec: ShardSpec, measure: u64) -> Vec<usize> {
        let t = small_mesh(8, 8);
        let routes = RoutingTable::compute_xy(&t);
        let plan = EnginePlan::new(&t, &routes, SimConfig::paper(), Partition::new(&t, spec));
        let mut shards: Vec<ShardState> = (0..plan.partition.num_shards())
            .map(|id| ShardState::new(&plan, id))
            .collect();
        let m = hyppi_traffic::SyntheticPattern::Uniform.matrix(&t, 0.1);
        let tables = InjectTables::new(&t, &m);
        let workload = Workload::Synthetic {
            tables: &tables,
            warmup: 200,
            measure,
            seed: 3,
        };
        let shared = Shared::new(shards.len(), 1);
        let end = worker_loop(
            &plan,
            &shared,
            &mut shards,
            workload,
            0,
            RunCursor::default(),
            u64::MAX,
            &mut NoopProbe,
            None,
        );
        assert!(matches!(end, Ok(RunEnd::Done(_))), "{end:?}");
        // Drained: every handle is back on its free list.
        assert!(shards.iter().all(|s| s.live_handles() == 0));
        shards.iter().map(|s| s.packets.len()).collect()
    }

    /// A shard's packet table holds its peak count of live packets, so
    /// ten times the run length must not grow it (it grew about tenfold
    /// while every handle lived until the engine was dropped).
    #[test]
    fn packet_tables_do_not_grow_with_run_length() {
        for spec in [ShardSpec::SINGLE, ShardSpec::quadrants()] {
            let short = table_lengths(spec, 2_000);
            let long = table_lengths(spec, 20_000);
            for (s, (&a, &b)) in short.iter().zip(&long).enumerate() {
                assert!(a > 0, "shard {s} of {spec:?} saw no packets");
                assert!(
                    2 * b <= 3 * a,
                    "shard {s} of {spec:?}: {b} handles after the long run, {a} after the short"
                );
            }
        }
    }

    /// Each shard's tables cover only the nodes, links and slots it owns:
    /// summed over a 16-shard 32×32 engine they are as long as the
    /// one-shard engine's. The wormhole remap, which only boundary links
    /// write, is empty at P=1 and holds at most one entry per buffer slot.
    #[test]
    fn shard_tables_partition_the_mesh() {
        let t = small_mesh(32, 32);
        let routes = RoutingTable::compute_xy(&t);
        let lengths = |spec: ShardSpec| {
            let plan = EnginePlan::new(&t, &routes, SimConfig::paper(), Partition::new(&t, spec));
            let shards: Vec<ShardState> = (0..plan.partition.num_shards())
                .map(|id| ShardState::new(&plan, id))
                .collect();
            let sum = |f: fn(&ShardState) -> usize| shards.iter().map(f).sum::<usize>();
            [
                sum(|s| s.credits.len()),
                sum(|s| s.stats.link_flits.len()),
                sum(|s| {
                    let st = &s.stats;
                    st.router_flits.len() + st.peak_backlog.len() + st.peak_outstanding.len()
                }),
                sum(|s| s.nodes.len() + s.ctl.len() + s.next_admission.len() + s.outstanding.len()),
                sum(|s| s.slot_meta.len() + s.credit_of_slot.len() + s.active_pid.len()),
                sum(|s| s.out_port_info.len() + s.holder_mask.len()),
                sum(|s| s.remap.len()),
            ]
        };
        let one = lengths(ShardSpec::SINGLE);
        let sixteen = lengths(ShardSpec::for_count(16));
        assert_eq!(one[..6], sixteen[..6], "P=1 {one:?}, P=16 {sixteen:?}");
        assert_eq!(one[1], t.links().len());
        let slots = one[4] / 3;
        assert_eq!(
            (one[6], sixteen[6] <= slots),
            (0, true),
            "remap {sixteen:?}"
        );
    }

    /// Import mints the handles the live engine holds: one per visit of
    /// a packet's route to a shard. On a 12-wide span-5 express mesh cut
    /// into two 6-wide halves, some routes dip back across the cut to an
    /// express endpoint and return, visiting a shard twice; a 32-flit
    /// packet on such a route holds two handles there while it spans both
    /// visits, and a restore that gave it one would free it under the
    /// flits of the later visit.
    #[test]
    fn import_mints_one_handle_per_route_visit() {
        let t = express_mesh(
            MeshSpec {
                width: 12,
                height: 4,
                core_spacing_mm: 1.0,
                base_tech: LinkTechnology::Electronic,
                capacity: Gbps::new(50.0),
            },
            ExpressSpec {
                span: 5,
                tech: LinkTechnology::Hyppi,
            },
        );
        let routes = RoutingTable::compute_xy(&t);
        let spec = ShardSpec { sx: 2, sy: 1 };
        let plan = EnginePlan::new(&t, &routes, SimConfig::paper(), Partition::new(&t, spec));
        let shard = |n: NodeId| plan.partition.shard_of_node[n.index()];
        let visits_twice = |src: NodeId, dst: NodeId| {
            let mut runs = vec![shard(src)];
            for l in routes.path(&t, src, dst) {
                let s = shard(t.link(l).dst);
                if runs.last() != Some(&s) {
                    runs.push(s);
                }
            }
            runs.len() > 2 && runs.first() == runs.last()
        };
        let (src, dst) = t
            .nodes()
            .flat_map(|s| t.nodes().map(move |d| (s, d)))
            .find(|&(s, d)| visits_twice(s, d))
            .expect("a route that leaves its shard and comes back");
        let event = TraceEvent {
            cycle: 0,
            src,
            dst,
            flits: 32,
        };
        let trace = Trace::new("re-entry", t.num_nodes() as u16, 0.0, vec![event]);
        let mut spans_both = false;
        for split in 1..80 {
            let mut shards: Vec<ShardState> = (0..2).map(|id| ShardState::new(&plan, id)).collect();
            let end = worker_loop(
                &plan,
                &Shared::new(2, 1),
                &mut shards,
                Workload::Trace(&trace),
                0,
                RunCursor::default(),
                split,
                &mut NoopProbe,
                None,
            );
            let Ok(RunEnd::Stopped(cursor)) = end else {
                break;
            };
            let live: Vec<usize> = shards.iter().map(|s| s.live_handles()).collect();
            spans_both |= live[usize::from(shard(src))] == 2;
            let gs = export_shards(&plan, &shards, &cursor);
            let (restored, _) = import_shards(&plan, &gs).expect("snapshot imports");
            let again: Vec<usize> = restored.iter().map(|s| s.live_handles()).collect();
            assert_eq!(again, live, "live handles per shard at split {split}");
        }
        assert!(spans_both, "the packet never spanned both visits");
    }

    /// The importer takes a buffered flit's `ready` only within
    /// `READY_SPAN` of the boundary: the engine keeps its low 32 bits.
    #[test]
    fn import_rejects_ready_cycles_beyond_the_32_bit_span() {
        let t = small_mesh(4, 1);
        let routes = RoutingTable::compute_xy(&t);
        let plan = EnginePlan::new(&t, &routes, SimConfig::paper(), Partition::single(&t));
        let event = TraceEvent {
            cycle: 0,
            src: NodeId(0),
            dst: NodeId(3),
            flits: 32,
        };
        let trace = Trace::new("ready", 4, 0.0, vec![event]);
        let mut shards = vec![ShardState::new(&plan, 0)];
        let end = worker_loop(
            &plan,
            &Shared::new(1, 1),
            &mut shards,
            Workload::Trace(&trace),
            0,
            RunCursor::default(),
            10,
            &mut NoopProbe,
            None,
        );
        let Ok(RunEnd::Stopped(cursor)) = end else {
            panic!("the packet is still in flight at cycle 10: {end:?}");
        };
        let gs = export_shards(&plan, &shards, &cursor);
        let with_ready = |ready: u64| {
            let mut gs = gs.clone();
            let flit = gs
                .nodes
                .iter_mut()
                .flat_map(|n| n.slots.iter_mut())
                .find_map(|s| s.queue.first_mut())
                .expect("a buffered flit");
            flit.ready = ready;
            import_shards(&plan, &gs).map(|_| ())
        };
        assert_eq!(with_ready(gs.now + READY_SPAN - 1), Ok(()));
        assert_eq!(with_ready(gs.now + READY_SPAN), Err(SnapshotError::Corrupt));
    }

    #[test]
    fn uniform_inject_tables_scale_to_128x128() {
        // A dense matrix plus per-source CDFs took 8·N² + 10·N·(N−1) B
        // at this size: 4.5 GiB.
        let t = small_mesh(128, 128);
        let n = t.num_nodes();
        let m = hyppi_traffic::SyntheticPattern::Uniform.matrix(&t, 0.1);
        // Fill rows: every source past the first reuses its neighbour's
        // CDF without building one, so setup is O(N) too.
        assert!((1..n).all(|s| m.rows_alike(NodeId(s as u16 - 1), NodeId(s as u16))));
        let tables = InjectTables::new(&t, &m);
        // 12 B per source (rate + CDF id) plus one shared CDF.
        let bytes = 8 * tables.rates.len()
            + 4 * tables.cdf_of.len()
            + tables.cdfs.iter().map(|c| 8 * c.len()).sum::<usize>();
        assert_eq!(bytes, 12 * n + 8 * (n - 1));
        // Draws name the same destinations as the general row walk.
        for i in 0..200usize {
            let src = NodeId(((i * 7_919) % n) as u16);
            let k = (i * 104_729 + 4_099) % (n - 1);
            let (dst, _) = m.row_demands(src).nth(k).expect("k < N - 1");
            assert_eq!(m.destination(src, k), dst, "{src} slot {k}");
        }
    }
}
