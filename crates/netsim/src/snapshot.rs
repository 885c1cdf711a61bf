//! Versioned, std-only checkpoint format for simulator state.
//!
//! A [`Snapshot`] captures the complete *logical* state of a simulation at
//! a cycle boundary — everything needed so that `run N cycles` equals
//! `snapshot at N + restore + run remainder`, bit-for-bit in [`SimStats`]
//! including the latency histograms. The format is deliberately
//! **partition-independent**: it describes the network the way the
//! reference engine does (per-node input VCs, per-link in-flight flits, a
//! global packet table), so a snapshot taken from a P-shard
//! [`crate::ShardedSimulator`] restores into a P'=1 [`crate::Simulator`]
//! (or any other shard count) and vice versa, and the same bytes restore
//! into [`crate::ReferenceSimulator`] for parity checks.
//!
//! The byte-level layout, the canonicalization rules (credit derivation,
//! latency-1 bypass stripping, per-link event ordering), and the
//! restore-equals-continue argument are documented in
//! `docs/SNAPSHOT_FORMAT.md` at the workspace root — that document is the
//! contract; this module is its implementation.
//!
//! ## Header and mismatch rules
//!
//! Every snapshot starts with a fixed 96-byte header:
//!
//! * magic `b"HYPSNAP1"` — rejects non-snapshots ([`SnapshotError::BadMagic`]);
//! * format version (currently 4) — rejects other formats
//!   ([`SnapshotError::BadVersion`]);
//! * a **checksum** (FNV-1a 64 over every other byte of the snapshot) —
//!   a damaged byte outside the magic, the version and the plan
//!   fingerprint decodes to [`SnapshotError::Truncated`] (a count the
//!   bytes cannot hold) or [`SnapshotError::Corrupt`];
//! * a **plan fingerprint** (FNV-1a 64 over topology links, the routing
//!   table's fingerprint words, the behavior-relevant
//!   [`crate::SimConfig`] fields, and the fault baseline) — restoring
//!   under a different plan is
//!   [`SnapshotError::PlanMismatch`]. The shard layout and `max_cycles`
//!   are deliberately *excluded*: re-partitioning and extending the cycle
//!   budget are supported on resume;
//! * a **workload fingerprint** — trace content, or `(warmup, measure,
//!   seed)` for synthetic runs. The traffic matrix is deliberately
//!   excluded from the synthetic fingerprint so warm-start sweeps can
//!   resume one warmed state under many injection rates. A zero
//!   fingerprint means "unconstrained" (manual-stepping snapshots).
//!
//! Truncated or internally inconsistent bytes decode to
//! [`SnapshotError::Truncated`] / [`SnapshotError::Corrupt`]; decoding
//! never panics on untrusted input.

use crate::config::SimConfig;
use crate::stats::{LatencyStats, SimStats, HISTOGRAM_BUCKETS};
use hyppi_topology::{LinkClass, NodeId, RoutingTable, Topology, ROUTER_PIPELINE_CYCLES};
use hyppi_traffic::Trace;

/// Magic bytes opening every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"HYPSNAP1";

/// Current snapshot format version. Version 4 dropped the lane table
/// that closed the stats section, and its plan-fingerprint fold; version
/// 3 had replaced the header's injection-RNG words with a body checksum
/// (see `docs/SNAPSHOT_FORMAT.md`). Older bytes are rejected with
/// [`SnapshotError::BadVersion`].
pub const SNAPSHOT_VERSION: u32 = 4;

/// Fixed header length in bytes.
const HEADER_LEN: usize = 96;

/// Header offset of the checksum, which covers every other byte.
const CHECKSUM_AT: usize = 56;

/// Why a snapshot failed to load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The bytes do not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The format version is not one this build can read.
    BadVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The snapshot was taken under a different (topology, routing,
    /// config, baseline) plan.
    PlanMismatch,
    /// The snapshot was taken under a different workload (trace content
    /// or synthetic `(warmup, measure, seed)`).
    WorkloadMismatch,
    /// The byte stream ended before the encoded state did.
    Truncated,
    /// The bytes decode to an internally inconsistent state.
    Corrupt,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a hyppi snapshot (bad magic)"),
            SnapshotError::BadVersion { found } => write!(
                f,
                "unsupported snapshot version {found} (this build reads {SNAPSHOT_VERSION})"
            ),
            SnapshotError::PlanMismatch => write!(
                f,
                "snapshot was taken under a different topology/routing/config plan"
            ),
            SnapshotError::WorkloadMismatch => {
                write!(f, "snapshot was taken under a different workload")
            }
            SnapshotError::Truncated => write!(f, "snapshot bytes are truncated"),
            SnapshotError::Corrupt => write!(f, "snapshot bytes are corrupt"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// An opaque, versioned checkpoint of simulator state.
///
/// Produced by `Simulator::snapshot` / the `run_*_until` entry points;
/// consumed by `restore` / `resume_*` on any of the three engines. The
/// raw bytes are stable across processes and suitable for writing to disk
/// (`repro npb32 --save/--resume` does exactly that).
#[derive(Debug, Clone)]
pub struct Snapshot {
    bytes: Vec<u8>,
}

impl Snapshot {
    /// Wraps raw bytes read back from disk, validating the header (magic,
    /// version, length). Plan/workload fingerprints are checked later, at
    /// restore time, against the engine they are restored into.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, SnapshotError> {
        if bytes.len() < HEADER_LEN {
            return Err(SnapshotError::Truncated);
        }
        if bytes[0..8] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = read_u32(&bytes, 8);
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::BadVersion { found: version });
        }
        Ok(Snapshot { bytes })
    }

    /// The serialized snapshot bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the snapshot, returning the serialized bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Total serialized size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The cycle boundary this snapshot was taken at; restored engines
    /// resume at exactly this cycle.
    pub fn now(&self) -> u64 {
        read_u64(&self.bytes, 40)
    }

    /// Number of nodes in the snapshotted topology.
    pub fn num_nodes(&self) -> u32 {
        read_u32(&self.bytes, 12)
    }

    /// Number of links in the snapshotted topology.
    pub fn num_links(&self) -> u32 {
        read_u32(&self.bytes, 16)
    }

    pub(crate) fn plan_hash(&self) -> u64 {
        read_u64(&self.bytes, 24)
    }

    pub(crate) fn workload_hash(&self) -> u64 {
        read_u64(&self.bytes, 32)
    }

    /// Serializes a decoded global state under the given fingerprints.
    pub(crate) fn encode(gs: &GlobalState, plan_hash: u64, workload_hash: u64) -> Snapshot {
        let mut e = Enc {
            buf: Vec::with_capacity(HEADER_LEN + 64 * gs.nodes.len()),
        };
        e.buf.extend_from_slice(&SNAPSHOT_MAGIC);
        e.u32(SNAPSHOT_VERSION);
        e.u32(gs.nodes.len() as u32);
        e.u32(gs.links.len() as u32);
        e.u32(gs.vcs);
        e.u64(plan_hash);
        e.u64(workload_hash);
        e.u64(gs.now);
        e.u64(gs.next_event);
        e.u64(0); // the checksum, sealed once the body is written
        e.u64(gs.accept_from);
        e.u64(gs.accept_until);
        e.u64(gs.origin_packets);
        e.u64(gs.completed_packets);
        debug_assert_eq!(e.buf.len(), HEADER_LEN);

        e.stats(&gs.stats);

        e.u32(gs.packets.len() as u32);
        for p in &gs.packets {
            e.u16(p.src);
            e.u16(p.dst);
            e.u64(p.inject_cycle);
            e.u32(p.flits);
            e.u32(p.ejected);
            e.u8(p.class);
        }

        for n in &gs.nodes {
            let in_ports = n.slots.len() / gs.vcs as usize;
            e.u8(in_ports as u8);
            e.u8(n.va_rr.len() as u8);
            for s in &n.slots {
                e.u8(s.tag);
                e.u8(s.out_port);
                e.u8(s.out_vc);
                e.u32(s.active_pid);
                e.u8(s.queue.len() as u8);
                for f in &s.queue {
                    e.flit(f, true);
                }
            }
            e.u32(n.src_queue.len() as u32);
            for &pid in &n.src_queue {
                e.u32(pid);
            }
            match &n.emitting {
                None => e.u8(0),
                Some(em) => {
                    e.u8(1);
                    e.u32(em.packet);
                    e.u32(em.emitted);
                    e.u32(em.total);
                    e.u8(em.vc);
                    e.u16(em.dst);
                    e.u64(em.inject_cycle);
                }
            }
            e.u32(n.outstanding);
            for &v in &n.va_rr {
                e.u16(v);
            }
            for &v in &n.sa_rr {
                e.u16(v);
            }
        }

        for evs in &gs.links {
            e.u32(evs.len() as u32);
            for ev in evs {
                e.u64(ev.arrive);
                e.u8(ev.vc);
                e.flit(&ev.flit, false);
            }
        }

        let sum = checksum(&e.buf);
        e.buf[CHECKSUM_AT..CHECKSUM_AT + 8].copy_from_slice(&sum.to_le_bytes());
        Snapshot { bytes: e.buf }
    }

    /// Decodes the full state, verifying the plan fingerprint first.
    pub(crate) fn decode_for(&self, expect_plan: u64) -> Result<GlobalState, SnapshotError> {
        if self.plan_hash() != expect_plan {
            return Err(SnapshotError::PlanMismatch);
        }
        let num_nodes = self.num_nodes() as usize;
        let num_links = self.num_links() as usize;
        let vcs = read_u32(&self.bytes, 20);
        if vcs == 0 || vcs > 32 {
            return Err(SnapshotError::Corrupt);
        }
        // The stats section alone takes 16 B per node and 8 B per link:
        // reject counts the bytes cannot hold before allocating for them.
        let stats_bytes = num_nodes
            .checked_mul(16)
            .zip(num_links.checked_mul(8))
            .and_then(|(n, l)| n.checked_add(l));
        if stats_bytes.is_none_or(|b| b > self.bytes.len() - HEADER_LEN) {
            return Err(SnapshotError::Truncated);
        }
        let origin_packets = read_u64(&self.bytes, 80);
        let completed_packets = read_u64(&self.bytes, 88);
        if completed_packets > origin_packets {
            return Err(SnapshotError::Corrupt);
        }
        if read_u64(&self.bytes, CHECKSUM_AT) != checksum(&self.bytes) {
            return Err(SnapshotError::Corrupt);
        }
        let now = self.now();
        // Live packets were admitted at or before the boundary (unmeasured
        // ones carry u64::MAX); a later cycle would underflow latency.
        let admitted = |cycle: u64| cycle == u64::MAX || cycle <= now;
        let mut d = Dec {
            b: &self.bytes,
            pos: HEADER_LEN,
        };

        let stats = d.stats(num_links, num_nodes)?;

        let npackets = d.u32()? as usize;
        if npackets > d.remaining() {
            return Err(SnapshotError::Truncated);
        }
        let mut packets = Vec::with_capacity(npackets);
        for _ in 0..npackets {
            let p = PacketImage {
                src: d.u16()?,
                dst: d.u16()?,
                inject_cycle: d.u64()?,
                flits: d.u32()?,
                ejected: d.u32()?,
                class: d.u8()?,
            };
            if p.src as usize >= num_nodes
                || p.dst as usize >= num_nodes
                || p.class > 2
                || p.flits == 0
                || p.ejected >= p.flits
                || !admitted(p.inject_cycle)
            {
                return Err(SnapshotError::Corrupt);
            }
            packets.push(p);
        }
        let check_pid = |pid: u32| -> Result<u32, SnapshotError> {
            if (pid as usize) < npackets {
                Ok(pid)
            } else {
                Err(SnapshotError::Corrupt)
            }
        };

        let mut nodes = Vec::with_capacity(num_nodes);
        for _ in 0..num_nodes {
            let in_ports = d.u8()? as usize;
            let out_ports = d.u8()? as usize;
            if in_ports == 0 || out_ports == 0 || out_ports > 15 {
                return Err(SnapshotError::Corrupt);
            }
            let mut slots = Vec::with_capacity(in_ports * vcs as usize);
            for _ in 0..in_ports * vcs as usize {
                let tag = d.u8()?;
                let out_port = d.u8()?;
                let out_vc = d.u8()?;
                let active_pid = d.u32()?;
                if tag > 2 || out_port as usize >= out_ports || out_vc >= vcs as u8 {
                    return Err(SnapshotError::Corrupt);
                }
                if tag == 2 {
                    check_pid(active_pid)?;
                }
                let qlen = d.u8()? as usize;
                let mut queue = Vec::with_capacity(qlen);
                for _ in 0..qlen {
                    let f = d.flit(true)?;
                    check_pid(f.packet)?;
                    if f.dst as usize >= num_nodes {
                        return Err(SnapshotError::Corrupt);
                    }
                    queue.push(f);
                }
                slots.push(SlotImage {
                    tag,
                    out_port,
                    out_vc,
                    active_pid,
                    queue,
                });
            }
            let qn = d.u32()? as usize;
            if qn > d.remaining() {
                return Err(SnapshotError::Truncated);
            }
            let mut src_queue = Vec::with_capacity(qn);
            for _ in 0..qn {
                src_queue.push(check_pid(d.u32()?)?);
            }
            let emitting = match d.u8()? {
                0 => None,
                1 => Some(EmissionImage {
                    packet: check_pid(d.u32()?)?,
                    emitted: d.u32()?,
                    total: d.u32()?,
                    vc: d.u8()?,
                    dst: d.u16()?,
                    inject_cycle: d.u64()?,
                }),
                _ => return Err(SnapshotError::Corrupt),
            };
            if let Some(em) = &emitting {
                if em.emitted == 0
                    || em.emitted >= em.total
                    || em.vc >= vcs as u8
                    || em.dst as usize >= num_nodes
                    || !admitted(em.inject_cycle)
                {
                    return Err(SnapshotError::Corrupt);
                }
            }
            let outstanding = d.u32()?;
            let mut va_rr = Vec::with_capacity(out_ports);
            for _ in 0..out_ports {
                va_rr.push(d.u16()?);
            }
            let mut sa_rr = Vec::with_capacity(out_ports);
            for _ in 0..out_ports {
                sa_rr.push(d.u16()?);
            }
            nodes.push(NodeImage {
                slots,
                src_queue,
                emitting,
                outstanding,
                va_rr,
                sa_rr,
            });
        }

        let mut links = Vec::with_capacity(num_links);
        for _ in 0..num_links {
            let n = d.u32()? as usize;
            if n > d.remaining() {
                return Err(SnapshotError::Truncated);
            }
            let mut evs: Vec<EventImage> = Vec::with_capacity(n);
            for _ in 0..n {
                let ev = EventImage {
                    arrive: d.u64()?,
                    vc: d.u8()?,
                    flit: d.flit(false)?,
                };
                check_pid(ev.flit.packet)?;
                // Per-link events are strictly ordered: one flit crosses a
                // link per cycle, and nothing in flight predates the
                // snapshot boundary.
                if ev.arrive < now || ev.vc >= vcs as u8 || ev.flit.dst as usize >= num_nodes {
                    return Err(SnapshotError::Corrupt);
                }
                if let Some(prev) = evs.last() {
                    if ev.arrive <= prev.arrive {
                        return Err(SnapshotError::Corrupt);
                    }
                }
                evs.push(ev);
            }
            links.push(evs);
        }

        if d.remaining() != 0 {
            return Err(SnapshotError::Corrupt);
        }

        Ok(GlobalState {
            now,
            next_event: read_u64(&self.bytes, 48),
            accept_from: read_u64(&self.bytes, 64),
            accept_until: read_u64(&self.bytes, 72),
            origin_packets,
            completed_packets,
            vcs,
            stats,
            packets,
            nodes,
            links,
        })
    }
}

/// One buffered or in-flight flit, with packet ids rewritten to global
/// (snapshot-local) packet-table indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FlitImage {
    pub packet: u32,
    pub dst: u16,
    pub is_head: bool,
    pub is_tail: bool,
    /// Earliest switch-traversal cycle, absolute. Canonically zero for
    /// in-flight flits (the delivering engine overwrites it on arrival).
    pub ready: u64,
}

/// One input VC: state-machine tag plus the buffered flit queue,
/// head-to-tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SlotImage {
    /// 0 = idle, 1 = routed, 2 = active.
    pub tag: u8,
    pub out_port: u8,
    pub out_vc: u8,
    /// Packet holding the output VC when `tag == 2`; `u32::MAX` otherwise.
    pub active_pid: u32,
    pub queue: Vec<FlitImage>,
}

/// An in-progress NIC emission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EmissionImage {
    pub packet: u32,
    pub emitted: u32,
    pub total: u32,
    pub vc: u8,
    pub dst: u16,
    pub inject_cycle: u64,
}

/// One node: its input VC slots plus NIC state and round-robin pointers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct NodeImage {
    /// `in_ports × vcs` slots, port-major.
    pub slots: Vec<SlotImage>,
    pub src_queue: Vec<u32>,
    pub emitting: Option<EmissionImage>,
    /// Closed-loop window occupancy.
    pub outstanding: u32,
    /// Per out-port VA round-robin start index (next slot to scan first).
    pub va_rr: Vec<u16>,
    /// Per out-port SA round-robin start index.
    pub sa_rr: Vec<u16>,
}

/// One flit in flight on a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EventImage {
    /// Absolute arrival cycle at the link's destination router.
    pub arrive: u64,
    /// Destination input VC.
    pub vc: u8,
    pub flit: FlitImage,
}

/// One live packet: the canonical, engine-independent record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PacketImage {
    /// Origin node.
    pub src: u16,
    pub dst: u16,
    pub inject_cycle: u64,
    pub flits: u32,
    /// Flits already consumed at the destination.
    pub ejected: u32,
    /// Dateline class: 0 or 1 = class A (the reference engine writes 1
    /// on express routes), 2 = class B.
    pub class: u8,
}

/// What the next flit of an input VC's lane must be: `None` — some
/// packet's head; `Some((pid, head_ok))` — a flit of packet `pid`, its
/// head only when `head_ok`.
type Expect = Option<(u32, bool)>;

/// Checks the wormhole order of one input VC's lane — the slot's queue
/// followed by `arriving`, the flits still to reach it (in flight on its
/// link, or still to be emitted into an injection VC) in arrival order —
/// and returns what the lane expects next. A packet's flits are
/// contiguous and start with its head; only the slot's active packet
/// may continue without one, and its head may only wait at the front of
/// the queue. A state that breaks this would stall a VC forever, or
/// hand a pipeline stage a body flit where it expects a head.
fn check_lane(
    slot: &SlotImage,
    arriving: impl Iterator<Item = FlitImage>,
) -> Result<Expect, SnapshotError> {
    let mut expect = (slot.tag == 2).then_some((slot.active_pid, !slot.queue.is_empty()));
    for f in slot.queue.iter().copied().chain(arriving) {
        let fits = match expect {
            None => f.is_head,
            Some((pid, head_ok)) => f.packet == pid && (head_ok || !f.is_head),
        };
        if !fits {
            return Err(SnapshotError::Corrupt);
        }
        expect = (!f.is_tail).then_some((f.packet, false));
    }
    Ok(expect)
}

/// The decoded, partition-independent simulation state. Engines export
/// into / import from this; [`Snapshot`] is its serialized form.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct GlobalState {
    pub now: u64,
    /// Trace cursor: next unadmitted event index.
    pub next_event: u64,
    pub accept_from: u64,
    pub accept_until: u64,
    /// Total packets ever admitted (live + completed).
    pub origin_packets: u64,
    /// Total packets fully ejected.
    pub completed_packets: u64,
    pub vcs: u32,
    /// Merged statistics at the snapshot boundary.
    pub stats: SimStats,
    /// Live (incomplete) packets only; completed packets survive through
    /// `stats` and the counters above.
    pub packets: Vec<PacketImage>,
    pub nodes: Vec<NodeImage>,
    /// Per-link in-flight flits, sorted by strictly increasing arrival.
    pub links: Vec<Vec<EventImage>>,
}

impl GlobalState {
    /// Checks the state against wormhole flow control and derives the
    /// spendable credits of every (link, VC), flattened
    /// `[link * vcs + vc]`: `depth` − (in flight on the link) − (buffered
    /// in the destination VC), see `docs/SNAPSHOT_FORMAT.md`. `Corrupt`
    /// when a lane breaks wormhole order ([`check_lane`]) or holds more
    /// than `depth` flits, when two slots of a node hold one output VC,
    /// or when an active slot's packet would enter a downstream lane that
    /// does not expect it. Input port 0 is the injection port; input port
    /// `i + 1` is fed by `topo.incoming(node)[i]`, output port `p > 0`
    /// feeds `topo.outgoing(node)[p - 1]`. Call once the node, link and
    /// per-node slot counts are checked against `topo`.
    pub(crate) fn lane_credits(
        &self,
        topo: &Topology,
        depth: usize,
    ) -> Result<Vec<u16>, SnapshotError> {
        let vcs = self.vcs as usize;
        let mut credits = vec![0u16; self.links.len() * vcs];
        let mut expect: Vec<Expect> = vec![None; self.links.len() * vcs];
        for (node, n) in self.nodes.iter().enumerate() {
            for (v, slot) in n.slots[..vcs].iter().enumerate() {
                let emitted = n.emitting.filter(|em| usize::from(em.vc) == v);
                let next = emitted.map(|em| FlitImage {
                    packet: em.packet,
                    dst: em.dst,
                    is_head: false,
                    is_tail: em.emitted + 1 == em.total,
                    ready: 0,
                });
                check_lane(slot, next.into_iter())?;
            }
            for (i, lid) in topo.incoming(NodeId(node as u16)).iter().enumerate() {
                for v in 0..vcs {
                    let slot = &n.slots[(i + 1) * vcs + v];
                    let lane = lid.index() * vcs + v;
                    let flying = self.links[lid.index()]
                        .iter()
                        .filter(|e| usize::from(e.vc) == v)
                        .map(|e| e.flit);
                    expect[lane] = check_lane(slot, flying.clone())?;
                    let free = depth.checked_sub(slot.queue.len() + flying.count());
                    credits[lane] = free.ok_or(SnapshotError::Corrupt)? as u16;
                }
            }
        }
        // Each active slot holds its output VC alone, and the lane behind
        // that VC must expect the slot's packet: its head if the head
        // still waits here, a continuation once it has left.
        for (node, n) in self.nodes.iter().enumerate() {
            let out = topo.outgoing(NodeId(node as u16));
            // Output VCs held per port (at most 15 ports, see `decode_for`).
            let mut held = [0u32; 16];
            for slot in n.slots.iter().filter(|s| s.tag == 2) {
                let (port, vc) = (usize::from(slot.out_port), slot.out_vc);
                if held[port] & (1 << vc) != 0 {
                    return Err(SnapshotError::Corrupt);
                }
                held[port] |= 1 << vc;
                if port == 0 {
                    continue; // ejection: no downstream lane
                }
                let head_here = slot.queue.first().is_some_and(|f| f.is_head);
                let wants = match expect[out[port - 1].index() * vcs + usize::from(vc)] {
                    None => head_here,
                    Some((pid, _)) => !head_here && pid == slot.active_pid,
                };
                if !wants {
                    return Err(SnapshotError::Corrupt);
                }
            }
        }
        Ok(credits)
    }

    /// Checks every live packet's whereabouts and every node's
    /// closed-loop window. A packet waits in its source's queue (nothing
    /// emitted yet), is mid-emission there, or is fully emitted; the
    /// flits it has emitted and not yet ejected are all buffered or in
    /// flight, carrying its destination, with its head among them until
    /// the head ejects. With a `window` (`max_outstanding` > 0) a node's
    /// `outstanding` count equals its live packets past the queue;
    /// open-loop it stays 0. A state that breaks this would eject a flit
    /// twice, return a source credit twice (underflowing the window) or
    /// park a source for good.
    pub(crate) fn check_packets(&self, window: usize) -> Result<(), SnapshotError> {
        let corrupt = Err(SnapshotError::Corrupt);
        // Flits each packet has emitted: all of them unless it is queued
        // or mid-emission at its source.
        let mut emitted: Vec<u32> = self.packets.iter().map(|p| p.flits).collect();
        let mut at_source = vec![false; self.packets.len()];
        let mut live = vec![0u64; self.nodes.len()];
        for p in &self.packets {
            live[usize::from(p.src)] += 1;
        }
        for (node, n) in self.nodes.iter().enumerate() {
            let queued = n.src_queue.iter().map(|&pid| (pid, 0));
            for (pid, sent) in queued.chain(n.emitting.map(|em| (em.packet, em.emitted))) {
                let g = pid as usize;
                if at_source[g] || usize::from(self.packets[g].src) != node {
                    return corrupt;
                }
                at_source[g] = true;
                emitted[g] = sent;
            }
            if let Some(em) = n.emitting {
                let p = &self.packets[em.packet as usize];
                if em.total != p.flits || em.dst != p.dst {
                    return corrupt;
                }
            }
            let past_queue = live[node] - n.src_queue.len() as u64;
            if u64::from(n.outstanding) != if window == 0 { 0 } else { past_queue } {
                return corrupt;
            }
        }
        let mut present = vec![0u32; self.packets.len()];
        let mut heads = vec![0u32; self.packets.len()];
        let buffered = self.nodes.iter().flat_map(|n| n.slots.iter());
        let flying = self.links.iter().flat_map(|evs| evs.iter().map(|e| e.flit));
        for f in buffered.flat_map(|s| s.queue.iter().copied()).chain(flying) {
            let g = f.packet as usize;
            if f.dst != self.packets[g].dst {
                return corrupt;
            }
            present[g] += 1;
            heads[g] += u32::from(f.is_head);
        }
        for (g, p) in self.packets.iter().enumerate() {
            let head_out = p.ejected == 0 && emitted[g] > 0;
            if u64::from(present[g]) + u64::from(p.ejected) != u64::from(emitted[g])
                || heads[g] != u32::from(head_out)
            {
                return corrupt;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Little-endian codec helpers (std-only).

fn read_u32(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().unwrap())
}

fn read_u64(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().unwrap())
}

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn flit(&mut self, f: &FlitImage, with_ready: bool) {
        self.u32(f.packet);
        self.u16(f.dst);
        self.u8(u8::from(f.is_head) | (u8::from(f.is_tail) << 1));
        if with_ready {
            self.u64(f.ready);
        }
    }
    fn latency(&mut self, l: &LatencyStats) {
        self.u64(l.count);
        self.u64(l.sum);
        self.u64(l.max);
        debug_assert_eq!(l.histogram.len(), HISTOGRAM_BUCKETS);
        for &c in &l.histogram {
            self.u64(c);
        }
    }
    fn stats(&mut self, s: &SimStats) {
        self.latency(&s.all);
        self.latency(&s.control);
        self.latency(&s.data);
        self.u64(s.cycles);
        self.u64(s.flits_delivered);
        self.u64(s.flits_injected);
        self.u64(s.accepted_flits);
        for &v in &s.peak_backlog {
            self.u32(v);
        }
        for &v in &s.peak_outstanding {
            self.u32(v);
        }
        for &v in &s.link_flits {
            self.u64(v);
        }
        for &v in &s.router_flits {
            self.u64(v);
        }
        self.u64(s.rerouted_hops);
        self.u64(s.unreachable_pairs);
    }
}

struct Dec<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Dec<'_> {
    fn remaining(&self) -> usize {
        self.b.len() - self.pos
    }
    fn take(&mut self, n: usize) -> Result<&[u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn flit(&mut self, with_ready: bool) -> Result<FlitImage, SnapshotError> {
        let packet = self.u32()?;
        let dst = self.u16()?;
        let flags = self.u8()?;
        if flags > 3 {
            return Err(SnapshotError::Corrupt);
        }
        let ready = if with_ready { self.u64()? } else { 0 };
        Ok(FlitImage {
            packet,
            dst,
            is_head: flags & 1 != 0,
            is_tail: flags & 2 != 0,
            ready,
        })
    }
    fn latency(&mut self) -> Result<LatencyStats, SnapshotError> {
        let mut l = LatencyStats {
            count: self.u64()?,
            sum: self.u64()?,
            max: self.u64()?,
            histogram: Vec::with_capacity(HISTOGRAM_BUCKETS),
        };
        for _ in 0..HISTOGRAM_BUCKETS {
            l.histogram.push(self.u64()?);
        }
        Ok(l)
    }
    fn stats(&mut self, links: usize, nodes: usize) -> Result<SimStats, SnapshotError> {
        let mut s = SimStats::new(links, nodes);
        s.all = self.latency()?;
        s.control = self.latency()?;
        s.data = self.latency()?;
        s.cycles = self.u64()?;
        s.flits_delivered = self.u64()?;
        s.flits_injected = self.u64()?;
        s.accepted_flits = self.u64()?;
        for v in s.peak_backlog.iter_mut() {
            *v = self.u32()?;
        }
        for v in s.peak_outstanding.iter_mut() {
            *v = self.u32()?;
        }
        for v in s.link_flits.iter_mut() {
            *v = self.u64()?;
        }
        for v in s.router_flits.iter_mut() {
            *v = self.u64()?;
        }
        s.rerouted_hops = self.u64()?;
        s.unreachable_pairs = self.u64()?;
        Ok(s)
    }
}

// ---------------------------------------------------------------------------
// Content fingerprints (FNV-1a 64).

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fold(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

fn fold_u64(h: &mut u64, v: u64) {
    fold(h, &v.to_le_bytes());
}

/// The checksum of snapshot `bytes`: FNV-1a 64 over every byte except
/// the checksum field itself.
fn checksum(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    fold(&mut h, &bytes[..CHECKSUM_AT]);
    fold(&mut h, &bytes[CHECKSUM_AT + 8..]);
    h
}

fn fold_topo_routes(h: &mut u64, topo: &Topology, routes: &RoutingTable) {
    fold_u64(h, topo.num_nodes() as u64);
    fold_u64(h, topo.links().len() as u64);
    for l in topo.links() {
        fold_u64(h, l.src.0 as u64);
        fold_u64(h, l.dst.0 as u64);
        fold_u64(h, u64::from(l.latency_cycles));
        let (class, span) = match l.class {
            LinkClass::Regular => (0u64, 0u64),
            LinkClass::Express { span } => (1, u64::from(span)),
            LinkClass::Wraparound => (2, 0),
        };
        fold_u64(h, class);
        fold_u64(h, span);
        fold_u64(h, u64::from(l.degraded));
    }
    for w in routes.fingerprint_words() {
        fold_u64(h, w);
    }
}

/// Fingerprint of everything that determines engine behavior from a given
/// state onward: topology links, routing rule, the behavior-relevant
/// config fields, the pipeline depth ([`ROUTER_PIPELINE_CYCLES`]), and
/// the fault-aware baseline (if any). `max_cycles` and
/// the shard layout are excluded — a snapshot may be resumed with a
/// different cycle budget and a different partition.
pub(crate) fn plan_fingerprint(
    topo: &Topology,
    routes: &RoutingTable,
    cfg: &SimConfig,
    baseline: Option<(&Topology, &RoutingTable)>,
) -> u64 {
    let mut h = FNV_OFFSET;
    fold(&mut h, b"hyppi-plan-v2");
    fold_u64(&mut h, cfg.vcs as u64);
    fold_u64(&mut h, cfg.buffer_depth as u64);
    fold_u64(&mut h, u64::from(ROUTER_PIPELINE_CYCLES));
    fold_u64(&mut h, cfg.max_outstanding as u64);
    // The burst process changes the injection stream from the snapshot
    // boundary onward, exactly like the config fields above.
    for w in cfg.burst.fingerprint_words() {
        fold_u64(&mut h, w);
    }
    fold_topo_routes(&mut h, topo, routes);
    match baseline {
        None => fold_u64(&mut h, 0),
        Some((bt, br)) => {
            fold_u64(&mut h, 1);
            fold_topo_routes(&mut h, bt, br);
        }
    }
    h
}

/// Fingerprint of a trace workload's content (events; name and wall-clock
/// metadata excluded — they do not affect the simulation).
pub(crate) fn trace_fingerprint(trace: &Trace) -> u64 {
    let mut h = FNV_OFFSET;
    fold(&mut h, b"hyppi-trace-v1");
    fold_u64(&mut h, u64::from(trace.num_nodes));
    fold_u64(&mut h, trace.events.len() as u64);
    for ev in &trace.events {
        fold_u64(&mut h, ev.cycle);
        fold_u64(&mut h, ev.src.0 as u64);
        fold_u64(&mut h, ev.dst.0 as u64);
        fold_u64(&mut h, u64::from(ev.flits));
    }
    h
}

/// Fingerprint of a synthetic workload: `(warmup, measure, seed)`. The
/// traffic matrix is deliberately excluded so a warmed-up state can be
/// resumed under a different injection-rate matrix (warm-start sweeps).
pub(crate) fn synthetic_fingerprint(warmup: u64, measure: u64, seed: u64) -> u64 {
    let mut h = FNV_OFFSET;
    fold(&mut h, b"hyppi-synthetic-v1");
    fold_u64(&mut h, warmup);
    fold_u64(&mut h, measure);
    fold_u64(&mut h, seed);
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_state() -> GlobalState {
        let mut stats = SimStats::new(2, 2);
        stats.record_packet(1, 7);
        stats.flits_delivered = 1;
        stats.link_flits[1] = 3;
        GlobalState {
            now: 42,
            next_event: 5,
            accept_from: 0,
            accept_until: u64::MAX,
            origin_packets: 2,
            completed_packets: 1,
            vcs: 2,
            stats,
            packets: vec![PacketImage {
                src: 0,
                dst: 1,
                inject_cycle: 40,
                flits: 4,
                ejected: 1,
                class: 0,
            }],
            nodes: vec![
                NodeImage {
                    slots: vec![
                        SlotImage {
                            tag: 2,
                            out_port: 1,
                            out_vc: 0,
                            active_pid: 0,
                            queue: vec![FlitImage {
                                packet: 0,
                                dst: 1,
                                is_head: false,
                                is_tail: true,
                                ready: 43,
                            }],
                        },
                        SlotImage {
                            tag: 0,
                            out_port: 0,
                            out_vc: 0,
                            active_pid: u32::MAX,
                            queue: vec![],
                        },
                    ],
                    src_queue: vec![0],
                    emitting: None,
                    outstanding: 1,
                    va_rr: vec![0, 1],
                    sa_rr: vec![1, 0],
                },
                NodeImage {
                    slots: vec![
                        SlotImage {
                            tag: 0,
                            out_port: 0,
                            out_vc: 0,
                            active_pid: u32::MAX,
                            queue: vec![],
                        },
                        SlotImage {
                            tag: 0,
                            out_port: 0,
                            out_vc: 0,
                            active_pid: u32::MAX,
                            queue: vec![],
                        },
                    ],
                    src_queue: vec![],
                    emitting: None,
                    outstanding: 0,
                    va_rr: vec![0, 0],
                    sa_rr: vec![0, 0],
                },
            ],
            links: vec![
                vec![EventImage {
                    arrive: 44,
                    vc: 1,
                    flit: FlitImage {
                        packet: 0,
                        dst: 1,
                        is_head: true,
                        is_tail: false,
                        ready: 0,
                    },
                }],
                vec![],
            ],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let gs = tiny_state();
        let snap = Snapshot::encode(&gs, 0xABCD, 0x1234);
        assert_eq!(snap.now(), 42);
        assert_eq!(snap.num_nodes(), 2);
        assert_eq!(snap.num_links(), 2);
        assert_eq!(snap.workload_hash(), 0x1234);
        let back = snap.decode_for(0xABCD).unwrap();
        assert_eq!(back, gs);
    }

    #[test]
    fn from_bytes_validates_header() {
        let gs = tiny_state();
        let snap = Snapshot::encode(&gs, 1, 0);
        let bytes = snap.into_bytes();
        let re = Snapshot::from_bytes(bytes.clone()).unwrap();
        assert_eq!(re.now(), 42);

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            Snapshot::from_bytes(bad_magic).unwrap_err(),
            SnapshotError::BadMagic
        );

        let mut bad_version = bytes.clone();
        bad_version[8] = 99;
        assert_eq!(
            Snapshot::from_bytes(bad_version).unwrap_err(),
            SnapshotError::BadVersion { found: 99 }
        );

        // Version-2 bytes (RNG words where the checksum now sits) are
        // rejected before anything else is read.
        let mut v2 = bytes.clone();
        v2[8] = 2;
        assert_eq!(
            Snapshot::from_bytes(v2).unwrap_err(),
            SnapshotError::BadVersion { found: 2 }
        );

        // Version-3 bytes (a stats section with a lane table after
        // `unreachable_pairs`) are rejected the same way.
        let mut v3 = bytes.clone();
        v3[8] = 3;
        assert_eq!(
            Snapshot::from_bytes(v3).unwrap_err(),
            SnapshotError::BadVersion { found: 3 }
        );

        assert_eq!(
            Snapshot::from_bytes(bytes[..50].to_vec()).unwrap_err(),
            SnapshotError::Truncated
        );
    }

    #[test]
    fn decode_rejects_mismatch_and_damage() {
        let gs = tiny_state();
        let snap = Snapshot::encode(&gs, 7, 0);
        assert_eq!(snap.decode_for(8).unwrap_err(), SnapshotError::PlanMismatch);

        // Truncating the body (but not the header) is caught.
        let bytes = snap.bytes().to_vec();
        let cut = Snapshot::from_bytes(bytes[..bytes.len() - 4].to_vec()).unwrap();
        assert!(matches!(
            cut.decode_for(7).unwrap_err(),
            SnapshotError::Truncated | SnapshotError::Corrupt
        ));

        // Trailing garbage is caught.
        let mut padded = bytes.clone();
        padded.extend_from_slice(&[0; 3]);
        let padded = Snapshot::from_bytes(padded).unwrap();
        assert!(matches!(
            padded.decode_for(7).unwrap_err(),
            SnapshotError::Truncated | SnapshotError::Corrupt
        ));

        // A destination off the mesh, in flight or mid-emission, is
        // caught; the same emission to a real node decodes.
        let emitting = |dst| {
            let mut gs = tiny_state();
            gs.nodes[0].emitting = Some(EmissionImage {
                packet: 0,
                emitted: 1,
                total: 4,
                vc: 0,
                dst,
                inject_cycle: 40,
            });
            gs
        };
        let mut off_link = tiny_state();
        off_link.links[0][0].flit.dst = 2;
        for gs in [off_link, emitting(2)] {
            let snap = Snapshot::encode(&gs, 7, 0);
            assert_eq!(snap.decode_for(7).unwrap_err(), SnapshotError::Corrupt);
        }
        let gs = emitting(1);
        assert_eq!(Snapshot::encode(&gs, 7, 0).decode_for(7).unwrap(), gs);
    }

    #[test]
    fn checksum_catches_every_flipped_bit() {
        let bytes = Snapshot::encode(&tiny_state(), 7, 0).into_bytes();
        // Outside magic, version and plan fingerprint (each checked first,
        // with its own error), every single-bit flip is `Truncated` (a
        // count the bytes cannot hold) or `Corrupt`, the checksum
        // field's own bits included.
        for at in (12..24).chain(32..bytes.len()) {
            for bit in 0..8 {
                let mut b = bytes.clone();
                b[at] ^= 1 << bit;
                let err = Snapshot::from_bytes(b).unwrap().decode_for(7).unwrap_err();
                assert!(
                    matches!(err, SnapshotError::Corrupt | SnapshotError::Truncated),
                    "byte {at} bit {bit}: {err:?}"
                );
            }
        }
    }

    /// Packet bookkeeping that disagrees with the flits behind it is
    /// `Corrupt` on every engine: a closed-loop window count off by one
    /// (one too few used to underflow when the packets' source credits
    /// came back) and an in-flight flit moved to another live packet
    /// (which a sharded engine used to complete, and credit, twice).
    #[test]
    fn restore_rejects_packet_accounting_errors() {
        use crate::reference::ReferenceSimulator;
        use crate::{ShardedSimulator, SimError, Simulator};
        use hyppi_phys::{Gbps, LinkTechnology};
        use hyppi_topology::{mesh, MeshSpec, ShardSpec};
        use hyppi_traffic::SyntheticPattern;
        let topo = mesh(MeshSpec {
            width: 4,
            height: 4,
            core_spacing_mm: 1.0,
            base_tech: LinkTechnology::Electronic,
            capacity: Gbps::new(50.0),
        });
        let routes = RoutingTable::compute_xy(&topo);
        let cfg = SimConfig::paper_closed_loop(4);
        let m = SyntheticPattern::Uniform.matrix(&topo, 0.3);
        let snap = Simulator::new(&topo, &routes, cfg)
            .run_synthetic_until(&m, 100, 300, 7, 150)
            .expect("bounded run completes")
            .expect_paused();
        let plan = plan_fingerprint(&topo, &routes, &cfg, None);
        let gs = snap.decode_for(plan).expect("intact snapshot decodes");
        let mut cases = vec![("intact", gs.clone())];
        let node = gs.nodes.iter().position(|n| n.outstanding > 0);
        let node = node.expect("a window is in use");
        for (label, delta) in [("one outstanding too few", -1i64), ("one too many", 1)] {
            let mut bad = gs.clone();
            let n = &mut bad.nodes[node];
            n.outstanding = (i64::from(n.outstanding) + delta) as u32;
            cases.push((label, bad));
        }
        let mut moved = gs.clone();
        let flit = &mut moved
            .links
            .iter_mut()
            .flatten()
            .next()
            .expect("a flit in flight")
            .flit;
        flit.packet = (flit.packet + 1) % gs.packets.len() as u32;
        cases.push(("flit moved to another packet", moved));
        for (label, state) in cases {
            let bytes = Snapshot::encode(&state, plan, snap.workload_hash());
            let resume = |out: Result<crate::SimStats, SimError>| out.map(|_| ());
            let outcomes = [
                resume(
                    Simulator::new(&topo, &routes, cfg).resume_synthetic(&bytes, &m, 100, 300, 7),
                ),
                resume(
                    ShardedSimulator::new(&topo, &routes, cfg, ShardSpec::quadrants())
                        .with_threads(1)
                        .resume_synthetic(&bytes, &m, 100, 300, 7),
                ),
                resume(
                    ReferenceSimulator::new(&topo, &routes, cfg)
                        .resume_synthetic(&bytes, &m, 100, 300, 7),
                ),
            ];
            let expected = match label {
                "intact" => Ok(()),
                _ => Err(SimError::Snapshot(SnapshotError::Corrupt)),
            };
            for out in outcomes {
                assert_eq!(out, expected, "{label}");
            }
        }
    }

    #[test]
    fn fingerprints_are_stable_and_sensitive() {
        let a = synthetic_fingerprint(500, 2000, 1);
        assert_eq!(a, synthetic_fingerprint(500, 2000, 1));
        assert_ne!(a, synthetic_fingerprint(500, 2000, 2));
        assert_ne!(a, synthetic_fingerprint(501, 2000, 1));

        let t = Trace::new(
            String::from("t"),
            4,
            0.0,
            vec![hyppi_traffic::TraceEvent {
                cycle: 3,
                src: hyppi_topology::NodeId(0),
                dst: hyppi_topology::NodeId(1),
                flits: 32,
            }],
        );
        let th = trace_fingerprint(&t);
        assert_eq!(th, trace_fingerprint(&t.clone()));
        let mut t2 = t.clone();
        t2.events[0].flits = 1;
        assert_ne!(th, trace_fingerprint(&t2));
        // Name/metadata changes do not invalidate snapshots.
        let mut t3 = t.clone();
        t3.name = "renamed".into();
        assert_eq!(th, trace_fingerprint(&t3));
    }

    #[test]
    fn error_display_is_informative() {
        let msgs = [
            SnapshotError::BadMagic.to_string(),
            SnapshotError::BadVersion { found: 9 }.to_string(),
            SnapshotError::PlanMismatch.to_string(),
            SnapshotError::WorkloadMismatch.to_string(),
            SnapshotError::Truncated.to_string(),
            SnapshotError::Corrupt.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }
}
