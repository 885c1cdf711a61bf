//! The frozen seed engine, kept as the parity oracle.
//!
//! This is the original full-scan simulation engine exactly as seeded:
//! every link pipe and every node is visited every cycle, VC buffers are
//! per-node `Vec<VecDeque<Flit>>` nests, and the only fast-forward is the
//! fully-drained case in [`ReferenceSimulator::run_trace`]. It is **not**
//! maintained for speed — its sole job is to define the golden
//! cycle-level behaviour that the active-set engine in [`crate::sim`]
//! must reproduce bit-for-bit (see `tests/parity.rs`). Any intentional
//! microarchitectural change must be made to both engines, with the
//! parity fixtures re-examined.
//!
//! Do not add optimisations here.

use crate::config::SimConfig;
use crate::flit::{Flit, PacketInfo};
use crate::router::{Emission, VcState};
use crate::shard::RunCursor;
use crate::sim::{rescan_trace_cursor, RunOutcome, SimError};
use crate::snapshot::{
    plan_fingerprint, synthetic_fingerprint, trace_fingerprint, EmissionImage, EventImage,
    FlitImage, GlobalState, NodeImage, PacketImage, SlotImage, Snapshot, SnapshotError,
};
use crate::stats::SimStats;
use hyppi_topology::{LinkId, NodeId, RoutingTable, Topology};
use hyppi_traffic::{injection_draw, BurstState, Trace, TrafficMatrix};
use std::collections::VecDeque;

/// Dateline VC class of a packet (see the `router` module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VcClass {
    Free,
    PreExpress,
    PostExpress,
}

/// One buffered input virtual channel (seed layout: queue-of-flits).
#[derive(Debug, Clone)]
struct InputVc {
    queue: VecDeque<Flit>,
    state: VcState,
}

impl InputVc {
    fn new(depth: usize) -> Self {
        InputVc {
            queue: VecDeque::with_capacity(depth),
            state: VcState::Idle,
        }
    }
}

/// Full router + NIC state of one node (seed layout).
#[derive(Debug, Clone)]
struct NodeState {
    in_links: Vec<LinkId>,
    out_links: Vec<LinkId>,
    route_port: Vec<u8>,
    vcs: Vec<InputVc>,
    out_holder: Vec<Option<(u8, u8)>>,
    sa_rr: Vec<u32>,
    va_rr: Vec<u32>,
    src_queue: VecDeque<u32>,
    emitting: Option<Emission>,
    in_port_used: u32,
    routed_count: u16,
    active_for_out: Vec<u16>,
    /// Packet holding each VC's output grant, written at VC allocation
    /// (valid while the VC's state is `Active`, stale otherwise). Pure
    /// snapshot bookkeeping — covers the corner where an active VC's
    /// buffered flits have all been forwarded; never read by the
    /// simulation stages.
    active_pid: Vec<u32>,
}

impl NodeState {
    fn new(topo: &Topology, routes: &RoutingTable, node: NodeId, vcs: usize) -> Self {
        let in_links = topo.incoming(node).to_vec();
        let out_links = topo.outgoing(node).to_vec();
        let mut route_port = vec![0u8; topo.num_nodes()];
        for dst in topo.nodes() {
            route_port[dst.index()] = match routes.next_link(topo, node, dst) {
                None => 0,
                Some(lid) => {
                    let pos = out_links
                        .iter()
                        .position(|&l| l == lid)
                        .expect("routing table uses this node's own out links");
                    (pos + 1) as u8
                }
            };
        }
        let in_ports = 1 + in_links.len();
        let out_ports = 1 + out_links.len();
        NodeState {
            in_links,
            out_links,
            route_port,
            vcs: (0..in_ports * vcs).map(|_| InputVc::new(8)).collect(),
            out_holder: vec![None; out_ports * vcs],
            sa_rr: vec![0; out_ports],
            va_rr: vec![0; out_ports],
            src_queue: VecDeque::new(),
            emitting: None,
            in_port_used: 0,
            routed_count: 0,
            active_for_out: vec![0; out_ports],
            active_pid: vec![u32::MAX; in_ports * vcs],
        }
    }

    fn in_ports(&self) -> usize {
        1 + self.in_links.len()
    }

    fn out_ports(&self) -> usize {
        1 + self.out_links.len()
    }
}

/// The seed full-scan simulator. Same microarchitecture and same public
/// run methods as [`crate::Simulator`], kept only as the parity baseline.
pub struct ReferenceSimulator<'a> {
    topo: &'a Topology,
    routes: &'a RoutingTable,
    /// Healthy-mesh baseline for `SimStats::rerouted_hops` (faulted
    /// topologies only; see [`ReferenceSimulator::with_baseline`]).
    baseline: Option<(&'a Topology, &'a RoutingTable)>,
    cfg: SimConfig,
    dateline: bool,
    nodes: Vec<NodeState>,
    buffered: Vec<u32>,
    credits: Vec<Vec<u16>>,
    pipes: Vec<VecDeque<(u64, u8, Flit)>>,
    in_port_of_link: Vec<u8>,
    packets: Vec<PacketInfo>,
    class_of: Vec<VcClass>,
    express_on_path: Vec<Vec<bool>>,
    pending_credits: Vec<(LinkId, u8)>,
    active_flits: u64,
    pending_sources: u64,
    /// Closed-loop window occupancy per node (packets emitted but not yet
    /// fully ejected); only maintained when `cfg.max_outstanding > 0`.
    outstanding: Vec<u32>,
    /// Acceptance window for `stats.accepted_flits` (the measurement
    /// window of a synthetic run; the whole run for traces).
    accept_from: u64,
    accept_until: u64,
    /// Packets completed before a restore and therefore dropped from
    /// `packets` (snapshot bookkeeping: keeps the exported admission and
    /// completion totals exact across save/restore cycles).
    dropped_packets: u64,
    stats: SimStats,
}

impl<'a> ReferenceSimulator<'a> {
    /// Builds the seed engine for `topo` with `routes` (X-then-Y).
    pub fn new(topo: &'a Topology, routes: &'a RoutingTable, cfg: SimConfig) -> Self {
        assert_eq!(routes.num_nodes(), topo.num_nodes());
        let dateline = topo.count_links(|l| l.is_express()) > 0;
        let nodes: Vec<NodeState> = topo
            .nodes()
            .map(|n| NodeState::new(topo, routes, n, cfg.vcs))
            .collect();
        let mut express_on_path: Vec<Vec<bool>> = Vec::new();
        if dateline {
            express_on_path.reserve(topo.num_nodes());
            for dst in topo.nodes() {
                let mut table = vec![false; topo.num_nodes()];
                let mut visited = vec![false; topo.num_nodes()];
                visited[dst.index()] = true;
                for start in topo.nodes() {
                    if visited[start.index()] {
                        continue;
                    }
                    let mut chain = Vec::new();
                    let mut at = start;
                    while !visited[at.index()] {
                        chain.push(at);
                        // Unreachable pairs (faulted topologies) have no
                        // next hop; the chain inherits `false` below.
                        let Some(lid) = routes.next_link(topo, at, dst) else {
                            break;
                        };
                        let link = topo.link(lid);
                        if link.is_express() {
                            for &n in &chain {
                                table[n.index()] = true;
                                visited[n.index()] = true;
                            }
                            chain.clear();
                        }
                        at = link.dst;
                    }
                    let tail = table[at.index()];
                    for &n in &chain {
                        table[n.index()] = tail;
                        visited[n.index()] = true;
                    }
                }
                express_on_path.push(table);
            }
        }
        let mut in_port_of_link = vec![0u8; topo.links().len()];
        for (node, state) in topo.nodes().zip(&nodes) {
            let _ = node;
            for (i, &lid) in state.in_links.iter().enumerate() {
                in_port_of_link[lid.index()] = (i + 1) as u8;
            }
        }
        ReferenceSimulator {
            topo,
            routes,
            baseline: None,
            cfg,
            dateline,
            buffered: vec![0; nodes.len()],
            nodes,
            credits: vec![vec![cfg.buffer_depth as u16; cfg.vcs]; topo.links().len()],
            pipes: vec![VecDeque::new(); topo.links().len()],
            in_port_of_link,
            packets: Vec::new(),
            class_of: Vec::new(),
            express_on_path,
            pending_credits: Vec::new(),
            active_flits: 0,
            pending_sources: 0,
            outstanding: vec![0; topo.num_nodes()],
            accept_from: 0,
            accept_until: u64::MAX,
            dropped_packets: 0,
            stats: SimStats::new(topo.links().len(), topo.num_nodes()),
        }
    }

    /// Installs the healthy-mesh baseline (topology + routes the faults
    /// were applied to) so admitted packets are charged
    /// `SimStats::rerouted_hops` for detours versus the healthy route.
    pub fn with_baseline(mut self, topo: &'a Topology, routes: &'a RoutingTable) -> Self {
        assert_eq!(routes.num_nodes(), topo.num_nodes());
        assert_eq!(topo.num_nodes(), self.topo.num_nodes());
        self.baseline = Some((topo, routes));
        self
    }

    /// Extra hops the faulted route src → dst takes versus the healthy
    /// baseline route (clamped at zero; zero with no baseline installed).
    fn extra_hops(&self, src: NodeId, dst: NodeId) -> u64 {
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

    /// Records the post-admission NIC backlog of `node` into the peak
    /// gauge (seed-engine twin of the active-set engine's `admit`).
    fn note_backlog(&mut self, node: usize) {
        let backlog = self.nodes[node].src_queue.len() as u32
            + u32::from(self.nodes[node].emitting.is_some());
        if backlog > self.stats.peak_backlog[node] {
            self.stats.peak_backlog[node] = backlog;
        }
    }

    #[inline]
    fn vc_range(&self, class: VcClass) -> std::ops::Range<usize> {
        if !self.dateline {
            return 0..self.cfg.vcs;
        }
        let b_start = self.cfg.vcs - (self.cfg.vcs / 4).max(1);
        match class {
            VcClass::Free | VcClass::PreExpress => 0..b_start,
            VcClass::PostExpress => b_start..self.cfg.vcs,
        }
    }

    /// [`Self::vc_range`] restricted to a fault-degraded link: the lowest
    /// `max(1, half)` VCs of the class — every dateline class stays
    /// usable, so the class-B escape argument is untouched.
    #[inline]
    fn degraded_vc_range(&self, class: VcClass) -> std::ops::Range<usize> {
        if !self.dateline {
            return 0..(self.cfg.vcs / 2).max(1);
        }
        let b_start = self.cfg.vcs - (self.cfg.vcs / 4).max(1);
        match class {
            VcClass::Free | VcClass::PreExpress => 0..(b_start / 2).max(1),
            VcClass::PostExpress => b_start..b_start + ((self.cfg.vcs - b_start) / 2).max(1),
        }
    }

    fn route_uses_express(&self, src: NodeId, dst: NodeId) -> bool {
        self.dateline && src != dst && self.express_on_path[dst.index()][src.index()]
    }

    #[inline]
    fn initial_class(&self, src: NodeId, dst: NodeId) -> VcClass {
        if self.route_uses_express(src, dst) {
            VcClass::PreExpress
        } else {
            VcClass::Free
        }
    }

    /// Runs a trace to completion (seed algorithm).
    pub fn run_trace(self, trace: &Trace) -> Result<SimStats, SimError> {
        Ok(self
            .run_trace_span(trace, RunCursor::default(), u64::MAX)?
            .expect_finished())
    }

    /// Runs a trace, pausing at the cycle boundary `stop_at`; the seed
    /// engine's twin of [`crate::Simulator::run_trace_until`].
    pub fn run_trace_until(self, trace: &Trace, stop_at: u64) -> Result<RunOutcome, SimError> {
        self.run_trace_span(trace, RunCursor::default(), stop_at)
    }

    /// Resumes a paused trace run from `snap`, itself pausing again at
    /// `stop_at` (pass `u64::MAX` to run to completion). Accepts
    /// snapshots from any engine — the byte format is engine- and
    /// partition-independent.
    pub fn resume_trace_until(
        self,
        snap: &Snapshot,
        trace: &Trace,
        stop_at: u64,
    ) -> Result<RunOutcome, SimError> {
        let (sim, mut cursor) = self.restore_from(snap, trace_fingerprint(trace))?;
        if snap.workload_hash() == 0 {
            cursor.next_event = rescan_trace_cursor(trace, cursor.now);
        }
        sim.run_trace_span(trace, cursor, stop_at)
    }

    /// Resumes a paused trace run to completion.
    pub fn resume_trace(self, snap: &Snapshot, trace: &Trace) -> Result<SimStats, SimError> {
        Ok(self
            .resume_trace_until(snap, trace, u64::MAX)?
            .expect_finished())
    }

    /// The trace run loop (seed algorithm, restartable): drives cycles
    /// `cursor.now ..` until the workload drains or the `stop_at`
    /// boundary is reached — pausing serializes the engine state. The
    /// cycle-by-cycle behaviour with `stop_at = u64::MAX` is exactly the
    /// seed loop's.
    fn run_trace_span(
        mut self,
        trace: &Trace,
        cursor: RunCursor,
        stop_at: u64,
    ) -> Result<RunOutcome, SimError> {
        assert_eq!(usize::from(trace.num_nodes), self.topo.num_nodes());
        let mut now = cursor.now;
        let mut next_event = cursor.next_event as usize;
        loop {
            if now >= stop_at {
                let pause = RunCursor {
                    now,
                    next_event: next_event as u64,
                };
                let snap = self.snapshot_at(&pause, trace_fingerprint(trace));
                return Ok(RunOutcome::Paused(snap));
            }
            while next_event < trace.events.len() && trace.events[next_event].cycle <= now {
                let e = &trace.events[next_event];
                next_event += 1;
                // Faulted topologies: traffic to or from a dead router has
                // no route — dropped at admission.
                if !self.routes.reachable(e.src, e.dst) {
                    self.stats.unreachable_pairs += 1;
                    continue;
                }
                let pid = self.packets.len() as u32;
                self.packets.push(PacketInfo {
                    src: e.src,
                    dst: e.dst,
                    admission: 0,
                    inject_cycle: e.cycle,
                    flits: e.flits,
                    ejected: 0,
                });
                self.class_of.push(self.initial_class(e.src, e.dst));
                self.stats.rerouted_hops += self.extra_hops(e.src, e.dst);
                self.nodes[e.src.index()].src_queue.push_back(pid);
                self.pending_sources += 1;
                self.note_backlog(e.src.index());
            }

            let drained = self.active_flits == 0 && self.pending_sources == 0;
            if drained {
                if next_event == trace.events.len() {
                    break;
                }
                // A bounded run never jumps past its stop cycle: the
                // loop-top check turns the clamped landing into a clean
                // pause (no-op when `stop_at` is `u64::MAX`).
                now = trace.events[next_event].cycle.min(stop_at);
                continue;
            }

            self.step(now);
            now += 1;
            if now > self.cfg.max_cycles {
                let stuck = self.packets.iter().filter(|p| !p.is_complete()).count() as u64;
                return Err(SimError::CycleLimit {
                    stuck_packets: stuck,
                });
            }
        }
        self.stats.cycles = now;
        Ok(RunOutcome::Finished(self.stats))
    }

    /// Runs Bernoulli-injected synthetic traffic (seed algorithm).
    pub fn run_synthetic(
        self,
        matrix: &TrafficMatrix,
        warmup: u64,
        measure: u64,
        seed: u64,
    ) -> Result<SimStats, SimError> {
        Ok(self
            .run_synthetic_span(
                matrix,
                warmup,
                measure,
                seed,
                RunCursor::default(),
                u64::MAX,
            )?
            .expect_finished())
    }

    /// Runs synthetic traffic, pausing at the cycle boundary `stop_at`;
    /// the seed engine's twin of
    /// [`crate::Simulator::run_synthetic_until`].
    pub fn run_synthetic_until(
        self,
        matrix: &TrafficMatrix,
        warmup: u64,
        measure: u64,
        seed: u64,
        stop_at: u64,
    ) -> Result<RunOutcome, SimError> {
        self.run_synthetic_span(matrix, warmup, measure, seed, RunCursor::default(), stop_at)
    }

    /// Resumes a paused synthetic run to completion; same
    /// workload-fingerprint rules as
    /// [`crate::Simulator::resume_synthetic`] (the traffic matrix is
    /// deliberately not pinned — warm-start rate sweeps resume one
    /// post-warmup snapshot under many matrices).
    pub fn resume_synthetic(
        self,
        snap: &Snapshot,
        matrix: &TrafficMatrix,
        warmup: u64,
        measure: u64,
        seed: u64,
    ) -> Result<SimStats, SimError> {
        let (sim, cursor) =
            self.restore_from(snap, synthetic_fingerprint(warmup, measure, seed))?;
        Ok(sim
            .run_synthetic_span(matrix, warmup, measure, seed, cursor, u64::MAX)?
            .expect_finished())
    }

    /// The synthetic run loop (seed algorithm, restartable); see
    /// [`Self::run_trace_span`] for the pause protocol.
    fn run_synthetic_span(
        mut self,
        matrix: &TrafficMatrix,
        warmup: u64,
        measure: u64,
        seed: u64,
        cursor: RunCursor,
        stop_at: u64,
    ) -> Result<RunOutcome, SimError> {
        assert_eq!(matrix.num_nodes(), self.topo.num_nodes());
        self.accept_from = warmup;
        self.accept_until = warmup + measure;
        let n = self.topo.num_nodes();
        let mut rates = Vec::with_capacity(n);
        let mut cdfs: Vec<Vec<(f64, NodeId)>> = Vec::with_capacity(n);
        for src in self.topo.nodes() {
            let rate = matrix.injection_rate(src);
            let mut cdf = Vec::new();
            if rate > 0.0 {
                let mut acc = 0.0;
                for dst in self.topo.nodes() {
                    let r = matrix.rate(src, dst);
                    if r > 0.0 {
                        acc += r / rate;
                        cdf.push((acc, dst));
                    }
                }
            }
            rates.push(rate);
            cdfs.push(cdf);
        }

        let mut now = cursor.now;
        let inject_until = warmup + measure;
        // Burst factors and injection draws are pure per-(seed, node,
        // cycle) functions — the gate product below is the same
        // expression the active-set engines evaluate, so runs stay
        // bit-for-bit.
        let mut burst = BurstState::new(self.cfg.burst, seed, n);
        loop {
            if now >= stop_at {
                let pause = RunCursor { now, next_event: 0 };
                let snap = self.snapshot_at(&pause, synthetic_fingerprint(warmup, measure, seed));
                return Ok(RunOutcome::Paused(snap));
            }
            if now < inject_until {
                let factors = burst.factors_at(now);
                for src in 0..n {
                    if let Some(u) = injection_draw(seed, src, now, rates[src] * factors[src]) {
                        // Seed behaviour: linear scan of the per-source CDF.
                        let dst = cdfs[src]
                            .iter()
                            .find(|&&(acc, _)| u <= acc)
                            .map(|&(_, d)| d)
                            .unwrap_or(cdfs[src].last().expect("nonempty cdf").1);
                        if dst == NodeId(src as u16) {
                            continue;
                        }
                        if !self.routes.reachable(NodeId(src as u16), dst) {
                            self.stats.unreachable_pairs += 1;
                            continue;
                        }
                        let pid = self.packets.len() as u32;
                        let measured = now >= warmup;
                        self.packets.push(PacketInfo {
                            src: NodeId(src as u16),
                            dst,
                            admission: 0,
                            inject_cycle: if measured { now } else { u64::MAX },
                            flits: 1,
                            ejected: 0,
                        });
                        self.class_of
                            .push(self.initial_class(NodeId(src as u16), dst));
                        self.stats.rerouted_hops += self.extra_hops(NodeId(src as u16), dst);
                        self.nodes[src].src_queue.push_back(pid);
                        self.pending_sources += 1;
                        self.note_backlog(src);
                    }
                }
            } else if self.active_flits == 0 && self.pending_sources == 0 {
                break;
            }
            self.step(now);
            now += 1;
            if now > self.cfg.max_cycles {
                let stuck = self.packets.iter().filter(|p| !p.is_complete()).count() as u64;
                return Err(SimError::CycleLimit {
                    stuck_packets: stuck,
                });
            }
        }
        self.stats.cycles = now;
        Ok(RunOutcome::Finished(self.stats))
    }

    fn step(&mut self, now: u64) {
        self.deliver_link_arrivals(now);
        self.emit_from_sources(now);
        self.route_compute();
        self.allocate_vcs();
        self.switch_traversal(now);
        for (lid, vc) in self.pending_credits.drain(..) {
            self.credits[lid.index()][usize::from(vc)] += 1;
        }
    }

    /// Stage 1 (seed): scan every link pipe for due arrivals.
    fn deliver_link_arrivals(&mut self, now: u64) {
        let dwell = self.cfg.pipeline_dwell();
        for lid in 0..self.pipes.len() {
            while let Some(&(arrive, vc, flit)) = self.pipes[lid].front() {
                if arrive > now {
                    break;
                }
                self.pipes[lid].pop_front();
                let link = self.topo.link(LinkId(lid as u32));
                let node = link.dst.index();
                let in_port = usize::from(self.in_port_of_link[lid]);
                let slot = in_port * self.cfg.vcs + usize::from(vc);
                let mut f = flit;
                f.ready = now + 1 + dwell;
                self.nodes[node].vcs[slot].queue.push_back(f);
                self.buffered[node] += 1;
            }
        }
    }

    /// Stage 2 (seed): scan every node for NIC emission.
    fn emit_from_sources(&mut self, now: u64) {
        let dwell = self.cfg.pipeline_dwell();
        let vcs = self.cfg.vcs;
        let window = self.cfg.max_outstanding;
        for node in 0..self.nodes.len() {
            self.nodes[node].in_port_used = 0;
            if self.nodes[node].emitting.is_none() {
                // Closed loop: a full window parks the source until an
                // ejection returns a source credit.
                let window_open = window == 0 || (self.outstanding[node] as usize) < window;
                if let Some(&pid) = self.nodes[node].src_queue.front() {
                    if window_open {
                        let info = self.packets[pid as usize];
                        let range = self.vc_range(self.class_of[pid as usize]);
                        let pick = range
                            .clone()
                            .find(|&v| self.nodes[node].vcs[v].queue.len() < self.cfg.buffer_depth);
                        if let Some(v) = pick {
                            self.nodes[node].src_queue.pop_front();
                            let mut inject_cycle = info.inject_cycle;
                            if window > 0 {
                                self.outstanding[node] += 1;
                                if self.outstanding[node] > self.stats.peak_outstanding[node] {
                                    self.stats.peak_outstanding[node] = self.outstanding[node];
                                }
                                // Closed-loop latency is network latency:
                                // the measured clock restarts at emission.
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
                let slot = usize::from(em.vc);
                debug_assert!(slot < vcs);
                if self.nodes[node].vcs[slot].queue.len() < self.cfg.buffer_depth {
                    let flit = Flit {
                        packet: em.packet,
                        dst: em.dst,
                        is_head: em.emitted == 0,
                        is_tail: em.emitted + 1 == em.total,
                        ready: now + dwell,
                    };
                    self.nodes[node].vcs[slot].queue.push_back(flit);
                    self.buffered[node] += 1;
                    self.active_flits += 1;
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
        }
    }

    /// Stage 3 (seed): scan every VC of every buffered node for RC.
    fn route_compute(&mut self) {
        for node in 0..self.nodes.len() {
            if self.buffered[node] == 0 {
                continue;
            }
            let st = &mut self.nodes[node];
            for vc in st.vcs.iter_mut() {
                if vc.state == VcState::Idle {
                    if let Some(head) = vc.queue.front() {
                        debug_assert!(head.is_head, "queue head after Idle must be a head flit");
                        vc.state = VcState::Routed {
                            out_port: st.route_port[head.dst.index()],
                        };
                        st.routed_count += 1;
                    }
                }
            }
        }
    }

    /// Stage 4 (seed): VC allocation, round-robin per output port.
    fn allocate_vcs(&mut self) {
        let vcs = self.cfg.vcs;
        for node in 0..self.nodes.len() {
            if self.buffered[node] == 0 {
                continue;
            }
            if self.nodes[node].routed_count == 0 {
                continue;
            }
            let total_in_vcs = self.nodes[node].in_ports() * vcs;
            for p in 0..self.nodes[node].out_ports() {
                if self.nodes[node].routed_count == 0 {
                    break;
                }
                // Fault-degraded links expose only the low half of each
                // class's VCs (the ejection port never degrades).
                let degraded = p > 0 && self.topo.link(self.nodes[node].out_links[p - 1]).degraded;
                let start = self.nodes[node].va_rr[p] as usize;
                for k in 0..total_in_vcs {
                    let idx = (start + k) % total_in_vcs;
                    let VcState::Routed { out_port } = self.nodes[node].vcs[idx].state else {
                        continue;
                    };
                    if usize::from(out_port) != p {
                        continue;
                    }
                    let Some(head) = self.nodes[node].vcs[idx].queue.front() else {
                        continue;
                    };
                    let head_packet = head.packet;
                    let class = self.class_of[head_packet as usize];
                    let range = if degraded {
                        self.degraded_vc_range(class)
                    } else {
                        self.vc_range(class)
                    };
                    let free = range
                        .clone()
                        .find(|&v| self.nodes[node].out_holder[p * vcs + v].is_none());
                    if let Some(ovc) = free {
                        let in_port = (idx / vcs) as u8;
                        let in_vc = (idx % vcs) as u8;
                        self.nodes[node].out_holder[p * vcs + ovc] = Some((in_port, in_vc));
                        self.nodes[node].vcs[idx].state = VcState::Active {
                            out_port: p as u8,
                            out_vc: ovc as u8,
                        };
                        self.nodes[node].active_pid[idx] = head_packet;
                        self.nodes[node].routed_count -= 1;
                        self.nodes[node].active_for_out[p] += 1;
                        self.nodes[node].va_rr[p] = ((idx + 1) % total_in_vcs) as u32;
                    }
                }
            }
        }
    }

    /// Stage 5 (seed): switch allocation + traversal.
    fn switch_traversal(&mut self, now: u64) {
        let vcs = self.cfg.vcs;
        for node in 0..self.nodes.len() {
            if self.buffered[node] == 0 {
                continue;
            }
            let out_ports = self.nodes[node].out_ports();
            let total_in_vcs = self.nodes[node].in_ports() * vcs;
            for p in 0..out_ports {
                if self.nodes[node].active_for_out[p] == 0 {
                    continue;
                }
                let start = self.nodes[node].sa_rr[p] as usize;
                let mut winner: Option<usize> = None;
                for k in 0..total_in_vcs {
                    let idx = (start + k) % total_in_vcs;
                    let VcState::Active { out_port, out_vc } = self.nodes[node].vcs[idx].state
                    else {
                        continue;
                    };
                    if usize::from(out_port) != p {
                        continue;
                    }
                    let in_port = idx / vcs;
                    if self.nodes[node].in_port_used & (1 << in_port) != 0 {
                        continue;
                    }
                    let Some(head) = self.nodes[node].vcs[idx].queue.front() else {
                        continue;
                    };
                    if head.ready > now {
                        continue;
                    }
                    if p > 0 {
                        let lid = self.nodes[node].out_links[p - 1];
                        if self.credits[lid.index()][usize::from(out_vc)] == 0 {
                            continue;
                        }
                    }
                    winner = Some(idx);
                    break;
                }
                let Some(idx) = winner else { continue };
                self.nodes[node].sa_rr[p] = ((idx + 1) % total_in_vcs) as u32;
                let VcState::Active { out_vc, .. } = self.nodes[node].vcs[idx].state else {
                    unreachable!("winner is Active");
                };
                let flit = self.nodes[node].vcs[idx]
                    .queue
                    .pop_front()
                    .expect("winner has a flit");
                self.buffered[node] -= 1;
                let in_port = idx / vcs;
                self.nodes[node].in_port_used |= 1 << in_port;
                self.stats.router_flits[node] += 1;

                if in_port > 0 {
                    let up = self.nodes[node].in_links[in_port - 1];
                    self.pending_credits.push((up, (idx % vcs) as u8));
                }

                if p == 0 {
                    let pid = flit.packet as usize;
                    self.packets[pid].ejected += 1;
                    self.stats.flits_delivered += 1;
                    let accepted = now >= self.accept_from && now < self.accept_until;
                    if accepted {
                        self.stats.accepted_flits += 1;
                    }
                    self.active_flits -= 1;
                    if self.packets[pid].is_complete() {
                        let info = self.packets[pid];
                        if info.inject_cycle != u64::MAX {
                            self.stats
                                .record_packet(info.flits, now + 1 - info.inject_cycle);
                        }
                        // Closed loop: the window slot frees; first
                        // observable next cycle (emission precedes switch
                        // traversal within a cycle).
                        if self.cfg.max_outstanding > 0 {
                            debug_assert!(self.outstanding[info.src.index()] > 0);
                            self.outstanding[info.src.index()] -= 1;
                        }
                    }
                } else {
                    let lid = self.nodes[node].out_links[p - 1];
                    let link = self.topo.link(lid);
                    self.credits[lid.index()][usize::from(out_vc)] -= 1;
                    if link.is_express() {
                        self.class_of[flit.packet as usize] = VcClass::PostExpress;
                    }
                    self.stats.link_flits[lid.index()] += 1;
                    self.pipes[lid.index()].push_back((
                        now + u64::from(link.latency_cycles),
                        out_vc,
                        flit,
                    ));
                }

                if flit.is_tail {
                    self.nodes[node].out_holder[p * vcs + usize::from(out_vc)] = None;
                    self.nodes[node].vcs[idx].state = VcState::Idle;
                    self.nodes[node].active_for_out[p] -= 1;
                }
            }
        }
    }

    // ---- checkpoint / restore -------------------------------------------
    //
    // Snapshot bookkeeping, not optimisation: the simulation stages above
    // are untouched. The mirror exists so the parity oracle covers the
    // checkpoint dimension — `tests/snapshot_parity.rs` asserts that the
    // seed engine's own save/restore splices are bit-for-bit, and that
    // its snapshots interchange with the production engines'.

    /// Exports the full logical engine state at the cycle boundary
    /// `cursor.now` (cycles `0..now` simulated, `now` not yet).
    /// Completed packets are dropped from the table — they live on in
    /// the statistics and the exported completion total.
    fn export(&self, cursor: &RunCursor) -> GlobalState {
        let vcs = self.cfg.vcs;
        let mut gpid_of = vec![u32::MAX; self.packets.len()];
        let mut packets = Vec::new();
        for (pid, info) in self.packets.iter().enumerate() {
            if info.is_complete() {
                continue;
            }
            gpid_of[pid] = packets.len() as u32;
            packets.push(PacketImage {
                src: info.src.0,
                dst: info.dst.0,
                inject_cycle: info.inject_cycle,
                flits: info.flits,
                ejected: info.ejected,
                class: match self.class_of[pid] {
                    VcClass::Free => 0,
                    VcClass::PreExpress => 1,
                    VcClass::PostExpress => 2,
                },
            });
        }
        let map = |pid: u32| -> u32 {
            let g = gpid_of[pid as usize];
            debug_assert_ne!(g, u32::MAX, "live state references a completed packet");
            g
        };
        let mut nodes = Vec::with_capacity(self.nodes.len());
        for (node, st) in self.nodes.iter().enumerate() {
            let mut slots = Vec::with_capacity(st.in_ports() * vcs);
            for (idx, vc) in st.vcs.iter().enumerate() {
                let (tag, out_port, out_vc) = match vc.state {
                    VcState::Idle => (0u8, 0u8, 0u8),
                    VcState::Routed { out_port } => (1, out_port, 0),
                    VcState::Active { out_port, out_vc } => (2, out_port, out_vc),
                };
                slots.push(SlotImage {
                    tag,
                    out_port,
                    out_vc,
                    active_pid: if tag == 2 {
                        map(st.active_pid[idx])
                    } else {
                        u32::MAX
                    },
                    queue: vc
                        .queue
                        .iter()
                        .map(|f| FlitImage {
                            packet: map(f.packet),
                            dst: f.dst.0,
                            is_head: f.is_head,
                            is_tail: f.is_tail,
                            ready: f.ready,
                        })
                        .collect(),
                });
            }
            nodes.push(NodeImage {
                slots,
                src_queue: st.src_queue.iter().map(|&p| map(p)).collect(),
                emitting: st.emitting.map(|em| EmissionImage {
                    packet: map(em.packet),
                    emitted: em.emitted,
                    total: em.total,
                    vc: em.vc,
                    dst: em.dst.0,
                    inject_cycle: em.inject_cycle,
                }),
                outstanding: self.outstanding[node],
                va_rr: st.va_rr.iter().map(|&v| v as u16).collect(),
                sa_rr: st.sa_rr.iter().map(|&v| v as u16).collect(),
            });
        }
        // In-flight flits: the seed engine's per-link pipes are already
        // the canonical (arrive, vc, flit) event lists, in send order
        // (strictly increasing arrivals — one flit per link per cycle).
        let links = self
            .pipes
            .iter()
            .map(|pipe| {
                pipe.iter()
                    .map(|&(arrive, vc, f)| EventImage {
                        arrive,
                        vc,
                        flit: FlitImage {
                            packet: map(f.packet),
                            dst: f.dst.0,
                            is_head: f.is_head,
                            is_tail: f.is_tail,
                            ready: 0,
                        },
                    })
                    .collect()
            })
            .collect();
        let completed_now = self.packets.iter().filter(|p| p.is_complete()).count() as u64;
        let mut stats = self.stats.clone();
        stats.cycles = cursor.now;
        GlobalState {
            now: cursor.now,
            next_event: cursor.next_event,
            accept_from: self.accept_from,
            accept_until: self.accept_until,
            origin_packets: self.dropped_packets + self.packets.len() as u64,
            completed_packets: self.dropped_packets + completed_now,
            vcs: vcs as u32,
            stats,
            packets,
            nodes,
            links,
        }
    }

    /// Serializes the engine state under this plan's fingerprint.
    fn snapshot_at(&self, cursor: &RunCursor, workload_hash: u64) -> Snapshot {
        let plan_hash = plan_fingerprint(self.topo, self.routes, &self.cfg, self.baseline);
        Snapshot::encode(&self.export(cursor), plan_hash, workload_hash)
    }

    /// Decodes `snap` against this plan, checks the workload
    /// fingerprint, and rebuilds the engine state; returns the engine
    /// plus the cursor to resume from.
    fn restore_from(
        self,
        snap: &Snapshot,
        workload_hash: u64,
    ) -> Result<(Self, RunCursor), SimError> {
        let gs = snap.decode_for(plan_fingerprint(
            self.topo,
            self.routes,
            &self.cfg,
            self.baseline,
        ))?;
        let stored = snap.workload_hash();
        if stored != 0 && workload_hash != 0 && stored != workload_hash {
            return Err(SimError::Snapshot(SnapshotError::WorkloadMismatch));
        }
        let cursor = RunCursor {
            now: gs.now,
            next_event: gs.next_event,
        };
        let sim = self.import(&gs).map_err(SimError::Snapshot)?;
        Ok((sim, cursor))
    }

    /// Fills this (freshly built) engine from a decoded snapshot.
    /// Derived state — `out_holder`, `routed_count`, `active_for_out`,
    /// `buffered`, credits — is reconstructed from the logical image;
    /// credits are fully determined by downstream occupancy
    /// (depth − in flight − buffered, see `docs/SNAPSHOT_FORMAT.md`).
    fn import(mut self, gs: &GlobalState) -> Result<Self, SnapshotError> {
        let vcs = self.cfg.vcs;
        let depth = self.cfg.buffer_depth;
        if gs.vcs as usize != vcs
            || gs.nodes.len() != self.topo.num_nodes()
            || gs.links.len() != self.topo.links().len()
        {
            return Err(SnapshotError::Corrupt);
        }
        gs.check_packets(self.cfg.max_outstanding)?;
        // The seed engine is single-partition: packet ids are global
        // packet ids, no handle minting needed.
        self.packets = gs
            .packets
            .iter()
            .map(|p| PacketInfo {
                src: NodeId(p.src),
                dst: NodeId(p.dst),
                admission: 0,
                inject_cycle: p.inject_cycle,
                flits: p.flits,
                ejected: p.ejected,
            })
            .collect();
        self.class_of = gs
            .packets
            .iter()
            .map(|p| match p.class {
                0 => VcClass::Free,
                1 => VcClass::PreExpress,
                _ => VcClass::PostExpress,
            })
            .collect();
        self.dropped_packets = gs.completed_packets;
        for (node, n) in gs.nodes.iter().enumerate() {
            let st = &mut self.nodes[node];
            let total_in_vcs = st.in_ports() * vcs;
            if n.slots.len() != total_in_vcs
                || n.va_rr.len() != st.out_ports()
                || n.sa_rr.len() != st.out_ports()
            {
                return Err(SnapshotError::Corrupt);
            }
            let mut buffered = 0u32;
            for (idx, img) in n.slots.iter().enumerate() {
                if img.queue.len() > depth {
                    return Err(SnapshotError::Corrupt);
                }
                // Invariants the stages rely on: a non-empty idle or
                // routed VC holds a head flit at the front; a routed VC
                // is never empty.
                if img.tag != 2 && !img.queue.is_empty() && !img.queue[0].is_head {
                    return Err(SnapshotError::Corrupt);
                }
                if img.tag == 1 && img.queue.is_empty() {
                    return Err(SnapshotError::Corrupt);
                }
                let vc_state = &mut st.vcs[idx];
                for f in &img.queue {
                    vc_state.queue.push_back(Flit {
                        packet: f.packet,
                        dst: NodeId(f.dst),
                        is_head: f.is_head,
                        is_tail: f.is_tail,
                        ready: f.ready,
                    });
                }
                buffered += img.queue.len() as u32;
                vc_state.state = match img.tag {
                    0 => VcState::Idle,
                    1 => VcState::Routed {
                        out_port: img.out_port,
                    },
                    2 => VcState::Active {
                        out_port: img.out_port,
                        out_vc: img.out_vc,
                    },
                    _ => return Err(SnapshotError::Corrupt),
                };
                match img.tag {
                    1 => st.routed_count += 1,
                    2 => {
                        let p = usize::from(img.out_port);
                        st.out_holder[p * vcs + usize::from(img.out_vc)] =
                            Some(((idx / vcs) as u8, (idx % vcs) as u8));
                        st.active_for_out[p] += 1;
                        st.active_pid[idx] = img.active_pid;
                    }
                    _ => {}
                }
            }
            for p in 0..st.out_ports() {
                if usize::from(n.va_rr[p]) >= total_in_vcs
                    || usize::from(n.sa_rr[p]) >= total_in_vcs
                {
                    return Err(SnapshotError::Corrupt);
                }
                st.va_rr[p] = u32::from(n.va_rr[p]);
                st.sa_rr[p] = u32::from(n.sa_rr[p]);
            }
            st.src_queue = n.src_queue.iter().copied().collect();
            st.emitting = n.emitting.as_ref().map(|em| Emission {
                packet: em.packet,
                emitted: em.emitted,
                total: em.total,
                vc: em.vc,
                dst: NodeId(em.dst),
                inject_cycle: em.inject_cycle,
            });
            self.buffered[node] = buffered;
            self.pending_sources += n.src_queue.len() as u64 + u64::from(st.emitting.is_some());
            self.outstanding[node] = n.outstanding;
            self.active_flits += u64::from(buffered);
        }
        for (lid, evs) in gs.links.iter().enumerate() {
            for ev in evs {
                self.pipes[lid].push_back((
                    ev.arrive,
                    ev.vc,
                    Flit {
                        packet: ev.flit.packet,
                        dst: NodeId(ev.flit.dst),
                        is_head: ev.flit.is_head,
                        is_tail: ev.flit.is_tail,
                        ready: 0,
                    },
                ));
                self.active_flits += 1;
            }
        }
        // Derived credit state: depth − (in flight on the link) −
        // (buffered in the destination VC). The live `pending_credits`
        // list is always empty at a cycle boundary (drained at the end
        // of every step).
        let credits = gs.lane_credits(self.topo, depth)?;
        for (lid, per_vc) in self.credits.iter_mut().enumerate() {
            per_vc.copy_from_slice(&credits[lid * vcs..(lid + 1) * vcs]);
        }
        self.accept_from = gs.accept_from;
        self.accept_until = gs.accept_until;
        self.stats = gs.stats.clone();
        Ok(self)
    }
}
