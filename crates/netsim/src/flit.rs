//! Flits, packet bookkeeping, and the packed flit-slab slot metadata.

use hyppi_topology::NodeId;

/// Identifies a packet within one simulation run.
pub type PacketId = u32;

/// One flit in flight, as the frozen reference engine buffers it (the
/// active engine's slab holds an 8-byte `SlotFlit` instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Owning packet.
    pub packet: PacketId,
    /// Destination node (copied here so routing needs no packet lookup).
    pub dst: NodeId,
    /// Head flit of its packet (triggers route + VC allocation).
    pub is_head: bool,
    /// Tail flit of its packet (releases the output VC).
    pub is_tail: bool,
    /// Earliest cycle this flit may traverse the switch of the router it
    /// currently sits in (models the 3-stage pipeline).
    pub ready: u64,
}

/// Per-packet record for latency accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketInfo {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Admission number at `src`. With `src` it is the packet's identity
    /// across the active engine's shards and snapshots (it fills the
    /// record's alignment padding); the reference engine numbers packets
    /// globally and leaves it 0.
    pub admission: u32,
    /// Cycle the packet was presented for injection (trace timestamp).
    pub inject_cycle: u64,
    /// Size in flits.
    pub flits: u32,
    /// Flits ejected at the destination so far.
    pub ejected: u32,
}

impl PacketInfo {
    /// True once every flit has been consumed at the destination.
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.ejected == self.flits
    }

    /// The packet's identity, ordered by origin and then admission.
    #[inline]
    pub(crate) fn key(&self) -> u64 {
        (u64::from(self.src.0) << 32) | u64::from(self.admission)
    }
}

/// How far from the current cycle a buffered flit's `ready` cycle may lie:
/// [`SlotFlit`] keeps its low 32 bits and compares them with wrapping
/// arithmetic, exact within this span. The run loops never step past
/// `SimConfig::max_cycles`, which `SimConfig::validate` bounds below it,
/// and the snapshot importer rejects a `ready` this far from the boundary.
pub(crate) const READY_SPAN: u64 = 1 << 31;

/// One buffered flit of the active engine, 8 bytes: a word holding the
/// packet handle plus the head and tail bits, and the low 32 bits of the
/// `ready` cycle. The destination is read from the packet table instead
/// (once per head per hop, by route computation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlotFlit {
    word: u32,
    ready: u32,
}

impl SlotFlit {
    const HEAD: u32 = 1 << 30;
    const TAIL: u32 = 1 << 31;
    /// Largest packet handle the word holds.
    pub const MAX_HANDLE: u32 = Self::HEAD - 1;

    #[inline]
    pub fn new(packet: u32, is_head: bool, is_tail: bool, ready: u64) -> Self {
        debug_assert!(packet <= Self::MAX_HANDLE, "packet handle overflow");
        SlotFlit {
            word: packet
                | if is_head { Self::HEAD } else { 0 }
                | if is_tail { Self::TAIL } else { 0 },
            ready: ready as u32,
        }
    }

    /// The owning packet's shard-local handle.
    #[inline]
    pub fn packet(self) -> usize {
        (self.word & Self::MAX_HANDLE) as usize
    }

    #[inline]
    pub fn is_head(self) -> bool {
        self.word & Self::HEAD != 0
    }

    #[inline]
    pub fn is_tail(self) -> bool {
        self.word & Self::TAIL != 0
    }

    /// The same flit, restamped to become ready at cycle `ready`.
    #[inline]
    pub fn with_ready(self, ready: u64) -> Self {
        SlotFlit {
            ready: ready as u32,
            ..self
        }
    }

    /// True while the flit may not traverse the switch at `now`
    /// (`ready > now`).
    #[inline]
    pub fn waits(self, now: u64) -> bool {
        self.ready.wrapping_sub(now as u32) as i32 > 0
    }

    /// The full `ready` cycle, recovered from its low 32 bits and `now`.
    #[inline]
    pub fn ready_at(self, now: u64) -> u64 {
        now.wrapping_add_signed(i64::from(self.ready.wrapping_sub(now as u32) as i32))
    }
}

/// Packed per-slot metadata word: the VC state machine and the ring
/// cursor of one input VC, in a single `u32` so the arbitration loops
/// read and write slot state with one memory access.
///
/// | bits    | field                                   |
/// |---------|-----------------------------------------|
/// | 0..2    | state tag (Idle / Routed / Active)      |
/// | 2..6    | out-port (valid when Routed or Active)  |
/// | 6..11   | out-VC (valid when Active)              |
/// | 11..19  | ring head index                         |
/// | 19..27  | queue length                            |
///
/// Field widths are enforced by `SimConfig::validate` (VCs ≤ 32, buffer
/// depth ≤ 255) and the per-node port assert in the engine constructor
/// (`crate::shard::ShardState`).
pub(crate) mod meta {
    pub const IDLE: u32 = 0;
    pub const ROUTED: u32 = 1;
    pub const ACTIVE: u32 = 2;
    const TAG_MASK: u32 = 0b11;
    pub const PORT_SHIFT: u32 = 2;
    const PORT_MASK: u32 = 0xF;
    pub const OVC_SHIFT: u32 = 6;
    const OVC_MASK: u32 = 0x1F;
    pub const HEAD_SHIFT: u32 = 11;
    pub const HEAD_MASK: u32 = 0xFF;
    const LEN_SHIFT: u32 = 19;
    const LEN_MASK: u32 = 0xFF;
    /// Adding this to a word increments the queue length.
    pub const LEN_ONE: u32 = 1 << LEN_SHIFT;
    /// Clears tag + out-port + out-VC, leaving the ring cursor.
    pub const STATE_CLEAR: u32 = !((1 << HEAD_SHIFT) - 1);

    #[inline]
    pub fn tag(m: u32) -> u32 {
        m & TAG_MASK
    }

    #[inline]
    pub fn out_port(m: u32) -> usize {
        ((m >> PORT_SHIFT) & PORT_MASK) as usize
    }

    #[inline]
    pub fn out_vc(m: u32) -> usize {
        ((m >> OVC_SHIFT) & OVC_MASK) as usize
    }

    #[inline]
    pub fn head(m: u32) -> usize {
        ((m >> HEAD_SHIFT) & HEAD_MASK) as usize
    }

    #[inline]
    pub fn len(m: u32) -> usize {
        ((m >> LEN_SHIFT) & LEN_MASK) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_tracks_ejections() {
        let mut p = PacketInfo {
            src: NodeId(0),
            dst: NodeId(1),
            admission: 0,
            inject_cycle: 5,
            flits: 3,
            ejected: 0,
        };
        assert!(!p.is_complete());
        p.ejected = 3;
        assert!(p.is_complete());
    }

    #[test]
    fn flit_is_small() {
        // The active engine's slab pre-allocates `slots × depth` slot
        // flits; the reference engine's flit packs its flags into the
        // `ready` alignment hole; the admission number fills the packet
        // record's padding.
        assert_eq!(std::mem::size_of::<SlotFlit>(), 8);
        assert_eq!(std::mem::size_of::<Flit>(), 16);
        assert_eq!(std::mem::size_of::<PacketInfo>(), 24);
    }

    #[test]
    fn slot_flit_round_trips_and_compares_across_the_wrap() {
        let f = SlotFlit::new(SlotFlit::MAX_HANDLE, true, false, 7);
        assert_eq!(f.packet(), SlotFlit::MAX_HANDLE as usize);
        assert!(f.is_head() && !f.is_tail());
        let t = SlotFlit::new(5, false, true, 0);
        assert!(!t.is_head() && t.is_tail() && t.packet() == 5);
        // `waits` is `ready > now`, and `ready_at` recovers the full
        // cycle, on both sides of a 2^32 boundary of the low word.
        for ready in [2u64, (1 << 32) - 1, (3 << 32) + 2] {
            let f = SlotFlit::new(1, true, true, ready);
            for now in ready.saturating_sub(5)..ready + 6 {
                assert_eq!(f.waits(now), ready > now, "ready {ready} now {now}");
                assert_eq!(f.ready_at(now), ready);
            }
            // Exact up to READY_SPAN - 1 cycles either way.
            let late = ready + READY_SPAN - 1;
            assert!(!f.waits(late));
            assert_eq!(f.ready_at(late), ready);
            if let Some(early) = ready.checked_sub(READY_SPAN - 1) {
                assert!(f.waits(early));
                assert_eq!(f.ready_at(early), ready);
            }
        }
    }
}
