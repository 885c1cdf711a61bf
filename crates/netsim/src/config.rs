//! Simulator configuration (Table II).

use hyppi_topology::ROUTER_PIPELINE_CYCLES;
use hyppi_traffic::BurstSpec;
use serde::{Deserialize, Serialize};

/// Microarchitectural and run-control parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Virtual channels per port (Table II: 4).
    pub vcs: usize,
    /// Buffer depth per VC in flits (Table II: 8).
    pub buffer_depth: usize,
    /// Hard cycle cap; the simulator reports an error past this point
    /// (guards against deadlock in misconfigured runs). Below 2^31: the
    /// active engine keeps flit `ready` cycles as 32-bit words.
    pub max_cycles: u64,
    /// Closed-loop NIC window: the number of packets a source may have
    /// in the network (emitted but not yet fully ejected) before it is
    /// parked. `0` (the default) is open-loop injection — the NIC never
    /// throttles, exactly the paper's BookSim setup. With a window in
    /// force, packet latency is measured from emission start (network
    /// latency, bounded by the window) rather than from admission, and
    /// source overload shows up in [`crate::SimStats::peak_backlog`] and
    /// a flattening [`crate::SimStats::accepted_flits`] instead of a
    /// diverging latency.
    pub max_outstanding: usize,
    /// Temporal burstiness of synthetic injection: a seeded per-node
    /// factor process that modulates the per-cycle Bernoulli gate
    /// (`rate × factor`), mean-normalized so the long-run offered load
    /// still matches the traffic matrix. [`BurstSpec::Steady`] (the
    /// default) is the identity — exactly the previous behaviour. The
    /// factor, like the injection draw it scales
    /// ([`hyppi_traffic::injection_draw`]), is a pure function of
    /// (workload seed, node, cycle), so sharded runs and snapshot
    /// resumes stay bit-for-bit whatever the spec. Ignored by
    /// trace-driven runs (traces carry their own timing).
    pub burst: BurstSpec,
}

impl SimConfig {
    /// The paper's configuration (open-loop injection).
    pub fn paper() -> Self {
        SimConfig {
            vcs: 4,
            buffer_depth: 8,
            max_cycles: 200_000_000,
            max_outstanding: 0,
            burst: BurstSpec::Steady,
        }
    }

    /// The paper's configuration with a closed-loop NIC window of
    /// `window` outstanding packets per source.
    pub fn paper_closed_loop(window: usize) -> Self {
        let mut cfg = Self::paper();
        cfg.max_outstanding = window;
        cfg
    }

    /// Cycles a flit must dwell before it may traverse the switch: the
    /// router pipeline ([`ROUTER_PIPELINE_CYCLES`], the constant every
    /// route cost charges per hop) minus the traversal stage itself.
    #[inline]
    pub fn pipeline_dwell(&self) -> u64 {
        u64::from(ROUTER_PIPELINE_CYCLES) - 1
    }

    /// Panics on configurations the engine cannot represent. The packed
    /// slot-metadata word gives out-VC ids 5 bits and ring positions /
    /// queue lengths 8 bits each (see `flit::meta`), a buffered flit's
    /// `ready` cycle is a 32-bit word compared with wrapping arithmetic
    /// (exact while it lies within 2^31 cycles of the clock, see
    /// `flit::SlotFlit`), and the simulator assumes at least one VC and
    /// one buffer slot per VC.
    pub fn validate(&self) {
        assert!(self.vcs >= 1, "at least one virtual channel required");
        assert!(
            self.vcs <= 32,
            "out-VC ids are 5 bits in the packed slot metadata ({} VCs requested)",
            self.vcs
        );
        assert!(self.buffer_depth >= 1, "VC buffers need at least one slot");
        assert!(
            self.buffer_depth <= u8::MAX as usize,
            "ring positions are u8 ({} requested)",
            self.buffer_depth
        );
        assert!(
            self.max_cycles < crate::flit::READY_SPAN,
            "max_cycles must stay below 2^31: flit ready cycles are 32-bit words ({} requested)",
            self.max_cycles
        );
        assert!(
            self.max_outstanding <= u32::MAX as usize,
            "window occupancy counters are u32 ({} requested)",
            self.max_outstanding
        );
        self.burst.validate();
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values() {
        let c = SimConfig::paper();
        assert_eq!(c.vcs, 4);
        assert_eq!(c.buffer_depth, 8);
        assert_eq!(c.pipeline_dwell(), 2);
        // The paper's setup is open-loop: no NIC window.
        assert_eq!(c.max_outstanding, 0);
        c.validate();
    }

    #[test]
    fn closed_loop_constructor_sets_window() {
        let c = SimConfig::paper_closed_loop(16);
        assert_eq!(c.max_outstanding, 16);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "u32")]
    fn rejects_unrepresentable_window() {
        let mut c = SimConfig::paper();
        c.max_outstanding = u32::MAX as usize + 1;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "2^31")]
    fn rejects_unrepresentable_cycle_cap() {
        let mut c = SimConfig::paper();
        c.max_cycles = 1 << 31;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "virtual channel")]
    fn rejects_zero_vcs() {
        let mut c = SimConfig::paper();
        c.vcs = 0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "ring positions")]
    fn rejects_unrepresentable_depth() {
        let mut c = SimConfig::paper();
        c.buffer_depth = 300;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "5 bits")]
    fn rejects_unrepresentable_vc_count() {
        let mut c = SimConfig::paper();
        c.vcs = 33;
        c.validate();
    }
}
