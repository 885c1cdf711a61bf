//! Deterministic oblivious routing, healthy and fault-aware.
//!
//! The paper adopts "an oblivious shortest-path routing method … in order to
//! match the routing technique used in the BookSim 2.0 simulator for custom
//! networks". Per-hop cost is always `router pipeline (3 cycles) + link
//! latency`, and every variant answers per-(node, destination) next-hop and
//! cost queries with deterministic link-id tie-breaks. Three table
//! builders:
//!
//! * [`RoutingTable::compute_xy`] — the production rule for healthy meshes:
//!   X-then-Y. A packet first finishes all horizontal movement within its
//!   source row (a row-restricted Dijkstra, so span-3/5/15 express links
//!   are taken exactly where they lower the cost), then descends the
//!   destination column. Combined with the express-dateline VC discipline
//!   in `hyppi-netsim` this is deadlock-free.
//! * [`RoutingTable::compute_xy_avoiding`] — the fault-aware variant for
//!   topologies produced by [`FaultSpec::apply`](crate::FaultSpec::apply).
//!   It uses the **up\*/down\*** turn model: links are oriented by a BFS
//!   spanning order, every route is zero or more "up" moves followed by
//!   zero or more "down" moves, and the down→up turn is prohibited. That
//!   single prohibited turn makes the channel dependency graph acyclic on
//!   *any* surviving topology (express links and degraded spans
//!   included), and it routes every pair of live routers in a connected
//!   component — only genuinely disconnecting fault sets are reported as
//!   [`RouteError::Unreachable`]. Routers with no surviving links are
//!   *dead* and exempt (engines drop their traffic at admission).
//! * [`RoutingTable::compute`] — unrestricted shortest paths, used by the
//!   static analyses.
//!
//! ## Storage forms and complexity
//!
//! Every entry stores its next hop as a one-byte **out-port**: the index
//! into `topo.outgoing(node)` plus one, with 0 meaning "no hop" (the
//! packet is home, or the pair is unroutable) — the port numbering the
//! engines' routers use, so route computation needs no link→port remap.
//! [`RoutingTable::next_port`] answers with it; [`RoutingTable::next_link`]
//! maps it back through the topology's own adjacency. Outgoing lists
//! ascend by link id, so the smallest-link-id tie-break is also the
//! smallest-port one. The builder picks how its table is stored; queries
//! look the same. For an N = W×H mesh:
//!
//! * **Per line, interned** (`compute_xy`). An XY route is an X leg
//!   inside the source row followed by a Y leg inside the destination
//!   column, and the legs of a line are a pure function of the links
//!   joining two of its nodes (their positions, costs and out-ports).
//!   Lines whose link lists are equal share one *block* of legs: W
//!   row-restricted reverse Dijkstras (one per target position) for each
//!   distinct row, H column-restricted ones for each distinct column. A
//!   plain mesh has two distinct rows and two distinct columns (its edge
//!   lines, whose routers lack a port, and the rest); express meshes and
//!   tori have three distinct rows and two distinct columns. So a mesh
//!   with R distinct rows and C distinct columns stores R·W² + C·H²
//!   entries of 5 bytes (port + `u32` cost), plus a 2-byte block id per
//!   row and column: O(N) on a square mesh (0.38 MiB at 128×128). The
//!   Dijkstras run once per distinct line, after an O(N + L) gather of
//!   every line's links. [`RoutingTable::next_port`] and
//!   [`RoutingTable::cost`] compose the two legs from a per-node `u16`
//!   coordinate table and the block ids, with no division, much as
//!   BookSim derives dimension-order hops from router coordinates.
//! * **Dense** (`compute_xy_avoiding`, `compute`). Up\*/down\* detours and
//!   unrestricted shortest paths do not split into line legs, so these
//!   keep port and cost for all N² pairs (5·N² bytes: 80 MiB at 64×64),
//!   one full reverse Dijkstra per destination: O(N²) memory and
//!   O(N²·log N) time. Only faulted runs and the static analyses pay for
//!   it.
//!
//! `NodeId` is a `u16`, so a topology holds at most 65,536 nodes; a
//! router has at most 255 outgoing links.

use crate::graph::Topology;
use crate::ids::{Coord, LinkId, NodeId};
use crate::link::{Link, ROUTER_PIPELINE_CYCLES};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;

/// Failure modes of fault-aware route computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// The fault set disconnects two live routers: no route from `src`
    /// to `dst` exists (up*/down* is complete within a connected
    /// component, so this only fires on genuine disconnection).
    Unreachable {
        /// Live router that cannot reach `dst`.
        src: NodeId,
        /// Live router unreachable from `src`.
        dst: NodeId,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::Unreachable { src, dst } => {
                write!(f, "fault set leaves no route from {src} to {dst}")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// Next-hop routing table over every (node, destination) pair, stored per
/// line or densely (see the module docs).
#[derive(Debug, Clone)]
pub struct RoutingTable {
    n: usize,
    rule: Rule,
    tables: Tables,
}

/// The builder a table came from. With the topology it fixes every entry,
/// which [`RoutingTable::fingerprint_words`] relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rule {
    Xy,
    UpDown,
    Shortest,
}

#[derive(Debug, Clone)]
enum Tables {
    Lines(LineTables),
    Dense {
        /// `port[dst][node]` = out-port to take at `node` toward `dst`.
        port: Vec<Vec<u8>>,
        /// `dist[dst][node]` = total path cost in cycles.
        dist: Vec<Vec<u32>>,
    },
}

/// The X legs and Y legs of every XY route on a healthy mesh, one block
/// of legs per distinct line (see the module docs).
#[derive(Debug, Clone)]
struct LineTables {
    width: u16,
    height: u16,
    /// Grid coordinate of every node, so queries need no division.
    coord: Vec<Coord>,
    /// Leg block of each row, and of each column.
    row_block: Vec<u16>,
    col_block: Vec<u16>,
    /// X legs: entry `(b·W + tx)·W + sx` of block `b = row_block[y]`
    /// routes `(sx, y)` toward `(tx, y)` inside row `y`.
    row: Legs,
    /// Y legs: entry `(b·H + ty)·H + sy` of block `b = col_block[x]`
    /// routes `(x, sy)` toward `(x, ty)` inside column `x`.
    col: Legs,
}

/// Out-ports and costs of one family of line legs. A leg that starts at
/// its target has no next hop (port 0) and costs 0.
#[derive(Debug, Clone)]
struct Legs {
    port: Vec<u8>,
    dist: Vec<u32>,
}

/// Out-port (at the link's source) of every link, for the table builders:
/// `outgoing(v)[p - 1]` has port `p`.
fn ports_of_links(topo: &Topology) -> Vec<u8> {
    let mut port = vec![0u8; topo.links().len()];
    for v in topo.nodes() {
        let out = topo.outgoing(v);
        assert!(
            out.len() <= usize::from(u8::MAX),
            "{v} has {} outgoing links; ports are one byte",
            out.len()
        );
        debug_assert!(out.windows(2).all(|w| w[0] < w[1]), "{v}: unsorted ports");
        for (i, &lid) in out.iter().enumerate() {
            port[lid.index()] = (i + 1) as u8;
        }
    }
    port
}

/// One grid row or column. An XY leg may use only the links joining two
/// nodes of its line.
#[derive(Debug, Clone, Copy)]
enum Line {
    Row(u16),
    Column(u16),
}

impl Line {
    /// Position along the line of the node at `c`, or `None` off it.
    fn pos(self, c: Coord) -> Option<u16> {
        match self {
            Line::Row(y) => (c.y == y).then_some(c.x),
            Line::Column(x) => (c.x == x).then_some(c.y),
        }
    }

    /// Grid coordinate of position `p`.
    fn at(self, p: u16) -> Coord {
        match self {
            Line::Row(y) => Coord { x: p, y },
            Line::Column(x) => Coord { x, y: p },
        }
    }
}

impl fmt::Display for Line {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Line::Row(y) => write!(f, "row {y}"),
            Line::Column(x) => write!(f, "column {x}"),
        }
    }
}

impl Legs {
    /// The blocks of `count` lines of `len` positions (`line(i)` is line
    /// `i`): the block id of each line, and the legs of each distinct
    /// line, built when its gathered links first appear.
    fn interned(
        topo: &Topology,
        port_of: &[u8],
        count: u16,
        len: u16,
        line: fn(u16) -> Line,
    ) -> (Vec<u16>, Legs) {
        let mut heap = BinaryHeap::new();
        let mut links = LineLinks::default();
        let mut blocks: HashMap<LineLinks, u16> = HashMap::new();
        let mut legs = Legs {
            port: Vec::new(),
            dist: Vec::new(),
        };
        let block_of = (0..count)
            .map(|i| {
                links.gather(topo, port_of, line(i), len);
                if let Some(&b) = blocks.get(&links) {
                    return b;
                }
                for target in 0..len {
                    legs.push_line(&links, line(i), target, &mut heap);
                }
                let b = blocks.len() as u16;
                blocks.insert(links.clone(), b);
                b
            })
            .collect();
        legs.port.shrink_to_fit();
        legs.dist.shrink_to_fit();
        (block_of, legs)
    }

    /// Appends the legs of `line` toward its position `target`: one
    /// reverse Dijkstra over the links joining two nodes of the line
    /// (`links`, gathered for `line`), with the per-hop cost and
    /// smallest-link-id tie-break of [`RoutingTable::dijkstra_filtered`].
    ///
    /// # Panics
    ///
    /// Panics if some node of the line cannot reach the target inside it.
    fn push_line(
        &mut self,
        links: &LineLinks,
        line: Line,
        target: u16,
        heap: &mut BinaryHeap<Reverse<(u32, u16)>>,
    ) {
        let base = self.dist.len();
        let len = links.first.len() - 1;
        self.port.resize(base + len, 0);
        self.dist.resize(base + len, u32::MAX);
        let (port, dist) = (&mut self.port[base..], &mut self.dist[base..]);
        dist[usize::from(target)] = 0;
        heap.push(Reverse((0, target)));
        while let Some(Reverse((d, p))) = heap.pop() {
            if d > dist[usize::from(p)] {
                continue;
            }
            for &(sp, hop, lp) in links.feeding(p) {
                let src = usize::from(sp);
                let cand = d + hop;
                if cand < dist[src] || (cand == dist[src] && lp < port[src]) {
                    dist[src] = cand;
                    port[src] = lp;
                    heap.push(Reverse((cand, sp)));
                }
            }
        }
        if let Some(p) = dist.iter().position(|&d| d == u32::MAX) {
            panic!(
                "{line} is not internally connected: {} cannot reach {} inside it",
                line.at(p as u16),
                line.at(target)
            );
        }
    }
}

/// The links joining two nodes of one line, gathered once per line for
/// its W (or H) target Dijkstras: `hops[first[p]..first[p + 1]]` feed
/// position `p`, each as (source position, hop cost, out-port at the
/// source). The legs of a line are a pure function of these lists.
#[derive(Default, Clone, PartialEq, Eq, Hash)]
struct LineLinks {
    first: Vec<u32>,
    hops: Vec<(u16, u32, u8)>,
}

impl LineLinks {
    /// Refills the lists for `line`, which has `len` positions.
    fn gather(&mut self, topo: &Topology, port_of: &[u8], line: Line, len: u16) {
        self.first.clear();
        self.hops.clear();
        for p in 0..len {
            self.first.push(self.hops.len() as u32);
            for &lid in topo.incoming(topo.node_at(line.at(p))) {
                let link = topo.link(lid);
                if let Some(sp) = line.pos(topo.coord(link.src)) {
                    let hop = ROUTER_PIPELINE_CYCLES + link.latency_cycles;
                    self.hops.push((sp, hop, port_of[lid.index()]));
                }
            }
        }
        self.first.push(self.hops.len() as u32);
    }

    /// The links into position `p`.
    fn feeding(&self, p: u16) -> &[(u16, u32, u8)] {
        let p = usize::from(p);
        &self.hops[self.first[p] as usize..self.first[p + 1] as usize]
    }
}

impl LineTables {
    fn build(topo: &Topology) -> Self {
        let (w, h) = (topo.width, topo.height);
        let port_of = ports_of_links(topo);
        let (row_block, row) = Legs::interned(topo, &port_of, h, w, Line::Row);
        let (col_block, col) = Legs::interned(topo, &port_of, w, h, Line::Column);
        LineTables {
            width: w,
            height: h,
            coord: topo.nodes().map(|v| topo.coord(v)).collect(),
            row_block,
            col_block,
            row,
            col,
        }
    }

    /// Index of the X leg at `(sx, y)` toward `(tx, y)`.
    #[inline]
    fn row_at(&self, y: u16, tx: u16, sx: u16) -> usize {
        let w = usize::from(self.width);
        let b = usize::from(self.row_block[usize::from(y)]);
        (b * w + usize::from(tx)) * w + usize::from(sx)
    }

    /// Index of the Y leg at `(x, sy)` toward `(x, ty)`.
    #[inline]
    fn col_at(&self, x: u16, ty: u16, sy: u16) -> usize {
        let h = usize::from(self.height);
        let b = usize::from(self.col_block[usize::from(x)]);
        (b * h + usize::from(ty)) * h + usize::from(sy)
    }

    /// Bytes of the legs, the coordinate table and the block ids.
    fn bytes(&self) -> usize {
        let legs = |l: &Legs| l.port.len() + 4 * l.dist.len();
        legs(&self.row)
            + legs(&self.col)
            + 4 * self.coord.len()
            + 2 * (self.row_block.len() + self.col_block.len())
    }

    /// The X leg while the column differs, then the Y leg (which has no
    /// next hop once `node == dst`).
    #[inline]
    fn next_port(&self, node: NodeId, dst: NodeId) -> u8 {
        let (a, b) = (self.coord[node.index()], self.coord[dst.index()]);
        if a.x != b.x {
            self.row.port[self.row_at(a.y, b.x, a.x)]
        } else {
            self.col.port[self.col_at(a.x, b.y, a.y)]
        }
    }

    /// The X leg to `(dst.x, src.y)` plus the Y leg down column `dst.x`.
    #[inline]
    fn cost(&self, src: NodeId, dst: NodeId) -> u32 {
        let (a, b) = (self.coord[src.index()], self.coord[dst.index()]);
        self.row.dist[self.row_at(a.y, b.x, a.x)] + self.col.dist[self.col_at(b.x, b.y, a.y)]
    }
}

impl RoutingTable {
    /// Computes an X-then-Y ordered shortest-path table.
    ///
    /// Packets first complete all horizontal movement (using row express
    /// links where they shorten the path), then travel straight in Y. This
    /// matches the paper's router (Fig. 4: "the basic routing always uses
    /// electronics", with horizontal express shortcuts) and — combined with
    /// the express-dateline VC discipline in `hyppi-netsim` — is provably
    /// deadlock-free (see that crate's documentation). Stored once per
    /// distinct line: O(W² + H²) entries on a mesh (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if some row or column is not internally connected.
    pub fn compute_xy(topo: &Topology) -> Self {
        Self::new(topo, Rule::Xy, Tables::Lines(LineTables::build(topo)))
    }

    /// Wraps tables built for `topo` by `rule`.
    fn new(topo: &Topology, rule: Rule, tables: Tables) -> Self {
        RoutingTable {
            n: topo.num_nodes(),
            rule,
            tables,
        }
    }

    /// Computes a fault-aware **up\*/down\*** table for a (possibly
    /// faulted) topology, e.g. one produced by
    /// [`FaultSpec::apply`](crate::FaultSpec::apply).
    ///
    /// Nodes get a total order `(BFS level, id)` — one BFS per live
    /// component, rooted at its lowest-id node. A directed link is *up*
    /// when it decreases that order and *down* when it increases it.
    /// Every route is up-moves first, then down-moves: per destination,
    /// a node that reaches it on the down-subnetwork takes its Dijkstra
    /// next hop there; a node that cannot takes its cheapest up first hop
    /// (targets sit earlier in the order, so their entries are already
    /// final). A packet that has made a down move is at a node whose
    /// down-distance is finite, so the table never turns it back up —
    /// the down→up turn is structurally impossible.
    ///
    /// Deadlock freedom: up channels form an acyclic dependency graph
    /// (the order strictly decreases), down channels likewise (it
    /// strictly increases), and the only transition is up → down — the
    /// classic up*/down* argument, valid for any surviving topology,
    /// express links and degraded spans included. The engines' dateline
    /// VC discipline composes on top exactly as for healthy tables.
    ///
    /// Completeness: the component root reaches every component node via
    /// down tree edges, and every non-root node has an up link (its BFS
    /// parent), so **all live pairs within a component route**. A fault
    /// set that splits the live routers into ≥ 2 components is rejected
    /// with [`RouteError::Unreachable`]. Routers with no surviving links
    /// are **dead**: pairs involving them stay unroutable (`next_port` =
    /// 0) without being an error — engines drop such traffic at
    /// admission and count it in `unreachable_pairs`.
    ///
    /// Stored densely: O(N²) entries.
    pub fn compute_xy_avoiding(topo: &Topology) -> Result<Self, RouteError> {
        let n = topo.num_nodes();
        let live: Vec<bool> = topo
            .nodes()
            .map(|v| !topo.outgoing(v).is_empty() || !topo.incoming(v).is_empty())
            .collect();
        // BFS levels over the undirected graph, one BFS per live component
        // (components other than the first only matter to produce a clean
        // Unreachable error below).
        let mut level = vec![u32::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        for root in topo.nodes() {
            if !live[root.index()] || level[root.index()] != u32::MAX {
                continue;
            }
            level[root.index()] = 0;
            queue.push_back(root);
            while let Some(u) = queue.pop_front() {
                let lu = level[u.index()];
                for &lid in topo.outgoing(u).iter().chain(topo.incoming(u)) {
                    let l = topo.link(lid);
                    let w = if l.src == u { l.dst } else { l.src };
                    if level[w.index()] == u32::MAX {
                        level[w.index()] = lu + 1;
                        queue.push_back(w);
                    }
                }
            }
        }
        let ord = |v: NodeId| (level[v.index()], v.0);
        let port_of = ports_of_links(topo);
        // Down-subnetwork: links that increase the (level, id) order.
        let (down_port, down_dist) =
            Self::restricted(topo, &port_of, |_, l| ord(l.dst) > ord(l.src));
        // Ascending order: an up link's target entry is already final.
        let mut order: Vec<NodeId> = topo.nodes().collect();
        order.sort_by_key(|&v| ord(v));
        let mut port = vec![vec![0u8; n]; n];
        let mut dist = vec![vec![u32::MAX; n]; n];
        for dst in topo.nodes() {
            let di = dst.index();
            for &node in &order {
                let ni = node.index();
                if node == dst {
                    dist[di][ni] = 0;
                    continue;
                }
                if down_dist[di][ni] != u32::MAX {
                    port[di][ni] = down_port[di][ni];
                    dist[di][ni] = down_dist[di][ni];
                    continue;
                }
                // Down-unreachable: cheapest up first hop.
                for (i, &lid) in topo.outgoing(node).iter().enumerate() {
                    let link = topo.link(lid);
                    if ord(link.dst) > ord(link.src) {
                        continue; // down link
                    }
                    let tail = dist[di][link.dst.index()];
                    if tail == u32::MAX {
                        continue;
                    }
                    let cand = tail + ROUTER_PIPELINE_CYCLES + link.latency_cycles;
                    let lp = (i + 1) as u8;
                    if cand < dist[di][ni] || (cand == dist[di][ni] && lp < port[di][ni]) {
                        dist[di][ni] = cand;
                        port[di][ni] = lp;
                    }
                }
                if port[di][ni] == 0 && live[ni] && live[di] {
                    return Err(RouteError::Unreachable { src: node, dst });
                }
            }
        }
        Ok(Self::new(topo, Rule::UpDown, Tables::Dense { port, dist }))
    }

    /// Dense out-port and cost tables over the links accepted by `allow`,
    /// leaving unreachable pairs at `u32::MAX` (callers must only consult
    /// pairs valid for the restriction).
    #[allow(clippy::type_complexity)]
    fn restricted(
        topo: &Topology,
        port_of: &[u8],
        allow: impl Fn(&Topology, &Link) -> bool,
    ) -> (Vec<Vec<u8>>, Vec<Vec<u32>>) {
        topo.nodes()
            .map(|d| Self::dijkstra_filtered(topo, port_of, d, &allow))
            .unzip()
    }

    /// Computes the unrestricted shortest-path table for a topology.
    /// Stored densely: O(N²) entries.
    ///
    /// # Panics
    ///
    /// Panics if the topology is not strongly connected — every node must
    /// reach every other node.
    pub fn compute(topo: &Topology) -> Self {
        let (port, dist) = Self::restricted(topo, &ports_of_links(topo), |_, _| true);
        for (dst, d) in dist.iter().enumerate() {
            assert!(
                d.iter().all(|&d| d != u32::MAX),
                "topology is not strongly connected toward {}",
                NodeId(dst as u16)
            );
        }
        Self::new(topo, Rule::Shortest, Tables::Dense { port, dist })
    }

    /// Reverse Dijkstra over the subgraph of links accepted by `allow`.
    fn dijkstra_filtered(
        topo: &Topology,
        port_of: &[u8],
        dst: NodeId,
        allow: &impl Fn(&Topology, &Link) -> bool,
    ) -> (Vec<u8>, Vec<u32>) {
        let n = topo.num_nodes();
        let mut dist = vec![u32::MAX; n];
        let mut port = vec![0u8; n];
        let mut heap = BinaryHeap::new();
        dist[dst.index()] = 0;
        heap.push(Reverse((0u32, dst)));
        while let Some(Reverse((d, node))) = heap.pop() {
            if d > dist[node.index()] {
                continue;
            }
            // Relax over links *into* `node`: their sources route via `node`.
            for &lid in topo.incoming(node) {
                let link = topo.link(lid);
                if !allow(topo, link) {
                    continue;
                }
                let cost = ROUTER_PIPELINE_CYCLES + link.latency_cycles;
                let cand = d + cost;
                let src = link.src.index();
                // Strictly-better, or equal-cost with a smaller link id
                // (= smaller port): deterministic and independent of heap
                // pop order.
                let lp = port_of[lid.index()];
                if cand < dist[src] || (cand == dist[src] && lp < port[src]) {
                    dist[src] = cand;
                    port[src] = lp;
                    heap.push(Reverse((cand, link.src)));
                }
            }
        }
        (port, dist)
    }

    /// Out-port to take at `node` toward `dst`: the index into
    /// `topo.outgoing(node)` plus one, or 0 when there is no next hop
    /// (already there, or the pair is unroutable). This is the engines'
    /// router port numbering, with out-port 0 ejecting.
    #[inline]
    pub fn next_port(&self, node: NodeId, dst: NodeId) -> u8 {
        match &self.tables {
            Tables::Lines(lines) => lines.next_port(node, dst),
            Tables::Dense { port, .. } => port[dst.index()][node.index()],
        }
    }

    /// Link of `topo` (the topology this table was computed for) to take
    /// at `node` toward `dst`; `None` when already there or unroutable.
    #[inline]
    pub fn next_link(&self, topo: &Topology, node: NodeId, dst: NodeId) -> Option<LinkId> {
        debug_assert_eq!(topo.num_nodes(), self.n, "table built for another topology");
        let p = usize::from(self.next_port(node, dst));
        (p != 0).then(|| topo.outgoing(node)[p - 1])
    }

    /// Whether the table routes `src` to `dst`. Always true for healthy
    /// (per-line) tables; false for pairs a fault-aware table left
    /// unroutable (dead endpoints).
    #[inline]
    pub fn reachable(&self, src: NodeId, dst: NodeId) -> bool {
        match &self.tables {
            Tables::Lines(_) => true,
            Tables::Dense { port, .. } => src == dst || port[dst.index()][src.index()] != 0,
        }
    }

    /// Total path cost in clock cycles (router pipelines + link latencies
    /// for every traversed hop).
    #[inline]
    pub fn cost(&self, src: NodeId, dst: NodeId) -> u32 {
        match &self.tables {
            Tables::Lines(lines) => lines.cost(src, dst),
            Tables::Dense { dist, .. } => dist[dst.index()][src.index()],
        }
    }

    /// Bytes of the stored route entries: the legs, coordinate table and
    /// block ids of a per-line table, or the 5·N² bytes of a dense one.
    pub fn table_bytes(&self) -> usize {
        match &self.tables {
            Tables::Lines(lines) => lines.bytes(),
            Tables::Dense { port, .. } => 5 * self.n * port.len(),
        }
    }

    /// Words folded into plan fingerprints: the builder's tag and the node
    /// count. A table is a pure function of its topology and its builder,
    /// so these words identify it once the caller also folds the
    /// topology's links — no walk over the N² pairs.
    pub fn fingerprint_words(&self) -> [u64; 2] {
        let rule = match self.rule {
            Rule::Xy => 0,
            Rule::UpDown => 1,
            Rule::Shortest => 2,
        };
        [rule, self.n as u64]
    }

    /// The full link path from `src` to `dst` (empty when equal).
    pub fn path(&self, topo: &Topology, src: NodeId, dst: NodeId) -> Vec<LinkId> {
        let mut path = Vec::new();
        let mut at = src;
        while at != dst {
            let lid = self
                .next_link(topo, at, dst)
                .expect("connected topology always has a next hop");
            path.push(lid);
            at = topo.link(lid).dst;
            debug_assert!(path.len() <= self.n, "routing loop detected");
        }
        path
    }

    /// Number of hops (links traversed) from `src` to `dst`. Unlike
    /// [`path`](Self::path) this never allocates, so engines can afford it
    /// per admitted packet when accounting rerouted hops.
    pub fn hops(&self, topo: &Topology, src: NodeId, dst: NodeId) -> u32 {
        let mut at = src;
        let mut hops = 0u32;
        while at != dst {
            let lid = self
                .next_link(topo, at, dst)
                .expect("connected topology always has a next hop");
            at = topo.link(lid).dst;
            hops += 1;
            debug_assert!(hops as usize <= self.n, "routing loop detected");
        }
        hops
    }

    /// Number of nodes the table covers.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{express_mesh, mesh, torus, ExpressSpec, MeshSpec};
    use crate::link::LinkClass;
    use hyppi_phys::{Gbps, LinkTechnology, Micrometers};

    fn paper_mesh() -> (Topology, RoutingTable) {
        let t = mesh(MeshSpec::paper(LinkTechnology::Electronic));
        let r = RoutingTable::compute(&t);
        (t, r)
    }

    fn sized(width: u16, height: u16, base_tech: LinkTechnology) -> MeshSpec {
        MeshSpec {
            width,
            height,
            core_spacing_mm: 1.0,
            base_tech,
            capacity: Gbps::new(50.0),
        }
    }

    fn hyppi_express(spec: MeshSpec, span: u16) -> Topology {
        express_mesh(
            spec,
            ExpressSpec {
                span,
                tech: LinkTechnology::Hyppi,
            },
        )
    }

    /// The three-table dense `compute_xy` the per-line form replaced, kept
    /// as the oracle that form must match pair for pair.
    fn compute_xy_dense(topo: &Topology) -> RoutingTable {
        let n = topo.num_nodes();
        let port_of = ports_of_links(topo);
        let (row_port, row_dist) =
            RoutingTable::restricted(topo, &port_of, |t, l| t.coord(l.src).y == t.coord(l.dst).y);
        let (col_port, col_dist) =
            RoutingTable::restricted(topo, &port_of, |t, l| t.coord(l.src).x == t.coord(l.dst).x);
        let mut port = vec![vec![0u8; n]; n];
        let mut dist = vec![vec![0u32; n]; n];
        for dst in topo.nodes() {
            let (d, dc) = (dst.index(), topo.coord(dst));
            for node in topo.nodes().filter(|&v| v != dst) {
                let (v, nc) = (node.index(), topo.coord(node));
                // The X-phase targets the node in this row at dst's column;
                // the Y-phase then descends the column.
                let r = topo.node_at(Coord { x: dc.x, y: nc.y }).index();
                if nc.x != dc.x {
                    port[d][v] = row_port[r][v];
                    dist[d][v] = row_dist[r][v] + col_dist[d][r];
                } else {
                    port[d][v] = col_port[d][v];
                    dist[d][v] = col_dist[d][v];
                }
            }
        }
        RoutingTable::new(topo, Rule::Xy, Tables::Dense { port, dist })
    }

    /// The un-interned per-line form interning replaced: every row and
    /// column its own leg block.
    fn per_line_reference(topo: &Topology) -> LineTables {
        let (w, h) = (topo.width, topo.height);
        let port_of = ports_of_links(topo);
        let mut heap = BinaryHeap::new();
        let mut links = LineLinks::default();
        let mut legs = |count: u16, len: u16, line: fn(u16) -> Line| {
            let mut l = Legs {
                port: Vec::new(),
                dist: Vec::new(),
            };
            for i in 0..count {
                links.gather(topo, &port_of, line(i), len);
                for target in 0..len {
                    l.push_line(&links, line(i), target, &mut heap);
                }
            }
            l
        };
        LineTables {
            width: w,
            height: h,
            coord: topo.nodes().map(|v| topo.coord(v)).collect(),
            row_block: (0..h).collect(),
            col_block: (0..w).collect(),
            row: legs(h, w, Line::Row),
            col: legs(w, h, Line::Column),
        }
    }

    #[test]
    fn interned_lines_match_per_line_reference() {
        let paper = MeshSpec::paper(LinkTechnology::Electronic);
        let topos = [
            mesh(paper),
            hyppi_express(paper, 3),
            hyppi_express(paper, 5),
            hyppi_express(paper, 15),
            mesh(sized(8, 4, LinkTechnology::Hyppi)),
            hyppi_express(sized(5, 9, LinkTechnology::Electronic), 3),
            torus(sized(6, 6, LinkTechnology::Electronic)),
            torus(sized(7, 3, LinkTechnology::Hyppi)),
            mesh(sized(12, 1, LinkTechnology::Electronic)),
            hyppi_express(sized(12, 1, LinkTechnology::Electronic), 5),
        ];
        for t in &topos {
            let r = RoutingTable::compute_xy(t);
            let Tables::Lines(lines) = &r.tables else {
                panic!("{}: compute_xy stores per line", t.name);
            };
            let reference = per_line_reference(t);
            for dst in t.nodes() {
                for node in t.nodes() {
                    let what = || format!("{}: {node}->{dst}", t.name);
                    assert_eq!(
                        lines.next_port(node, dst),
                        reference.next_port(node, dst),
                        "{}",
                        what()
                    );
                    assert_eq!(
                        lines.cost(node, dst),
                        reference.cost(node, dst),
                        "{}",
                        what()
                    );
                }
            }
        }
        // A plain mesh has two distinct rows (the edge rows, whose
        // routers lack a port, and the rest) and two distinct columns.
        let r = RoutingTable::compute_xy(&topos[0]);
        let Tables::Lines(lines) = &r.tables else {
            panic!("compute_xy stores per line");
        };
        let blocks = |ids: &[u16]| usize::from(ids.iter().copied().max().unwrap_or(0)) + 1;
        assert_eq!(blocks(&lines.row_block), 2);
        assert_eq!(blocks(&lines.col_block), 2);
    }

    /// `next_port` is 0 exactly when there is no next hop, and otherwise
    /// names the out-port driving `next_link`; `reachable` agrees.
    fn assert_ports_match_links(t: &Topology, r: &RoutingTable, node: NodeId, dst: NodeId) {
        let port = usize::from(r.next_port(node, dst));
        match r.next_link(t, node, dst) {
            None => assert_eq!(port, 0, "{}: {node}->{dst}", t.name),
            Some(lid) => {
                assert_ne!(port, 0, "{}: {node}->{dst}", t.name);
                assert_eq!(t.outgoing(node)[port - 1], lid, "{}: {node}->{dst}", t.name);
            }
        }
        assert_eq!(r.reachable(node, dst), node == dst || port != 0);
    }

    #[test]
    fn line_tables_match_dense_oracle() {
        let paper = MeshSpec::paper(LinkTechnology::Electronic);
        let topos = [
            mesh(paper),
            hyppi_express(paper, 3),
            hyppi_express(paper, 5),
            hyppi_express(paper, 15),
            mesh(sized(8, 8, LinkTechnology::Hyppi)),
            mesh(sized(12, 5, LinkTechnology::Electronic)),
            hyppi_express(sized(12, 5, LinkTechnology::Electronic), 5),
            hyppi_express(sized(32, 32, LinkTechnology::Electronic), 5),
        ];
        for t in &topos {
            let lines = RoutingTable::compute_xy(t);
            let dense = compute_xy_dense(t);
            assert!(matches!(lines.tables, Tables::Lines(_)), "{}", t.name);
            for dst in t.nodes() {
                for node in t.nodes() {
                    let what = || format!("{}: {node}->{dst}", t.name);
                    assert_eq!(
                        lines.next_port(node, dst),
                        dense.next_port(node, dst),
                        "{}",
                        what()
                    );
                    assert_eq!(
                        lines.next_link(t, node, dst),
                        dense.next_link(t, node, dst),
                        "{}",
                        what()
                    );
                    assert_ports_match_links(t, &lines, node, dst);
                    assert_eq!(lines.cost(node, dst), dense.cost(node, dst), "{}", what());
                }
            }
            assert_eq!(lines.fingerprint_words(), dense.fingerprint_words());
        }
    }

    #[test]
    fn dense_ports_point_at_next_links() {
        // The faulted 6×6 parity cell's fault set (a dead span, a degraded
        // span, a dead router) under up*/down*, and shortest paths on an
        // express mesh.
        let faulted = FaultSpec::none()
            .dead_link(NodeId(14), NodeId(15))
            .degraded_span(NodeId(20), NodeId(26))
            .dead_router(NodeId(28))
            .apply(&mesh(sized(6, 6, LinkTechnology::Electronic)));
        let updown = RoutingTable::compute_xy_avoiding(&faulted).expect("connected");
        let express = hyppi_express(sized(12, 5, LinkTechnology::Electronic), 5);
        let shortest = RoutingTable::compute(&express);
        for (t, r) in [(&faulted, &updown), (&express, &shortest)] {
            assert!(matches!(r.tables, Tables::Dense { .. }), "{}", t.name);
            for dst in t.nodes() {
                for node in t.nodes() {
                    assert_ports_match_links(t, r, node, dst);
                }
            }
        }
        // The dead router's pairs are the unroutable ones.
        assert_eq!(updown.next_port(NodeId(0), NodeId(28)), 0);
        assert!(!updown.reachable(NodeId(28), NodeId(0)));
    }

    #[test]
    fn line_tables_scale_to_128x128() {
        // The dense tables needed ~9.6 GB at this size.
        let t = mesh(sized(128, 128, LinkTechnology::Electronic));
        let r = RoutingTable::compute_xy(&t);
        let Tables::Lines(lines) = &r.tables else {
            panic!("compute_xy stores per line");
        };
        // Two row blocks and two column blocks of 128·128 legs at 5 B
        // (port + cost), the 4 B-per-node coordinate table, and a 2 B
        // block id per row and column: 0.38 MiB.
        let legs = |l: &Legs| l.port.len() + 4 * l.dist.len();
        let bytes = legs(&lines.row) + legs(&lines.col) + 4 * lines.coord.len();
        assert_eq!(bytes, 4 * 128 * 128 * 5 + 128 * 128 * 4);
        assert_eq!(r.table_bytes(), bytes + 2 * (128 + 128));
        let n = t.num_nodes();
        for i in 0..500usize {
            let a = NodeId(((i * 7_919) % n) as u16);
            let b = NodeId(((i * 104_729 + 4_099) % n) as u16);
            let manhattan = t.coord(a).manhattan(t.coord(b));
            // Electronic mesh: cost = hops × (3 router + 1 link).
            assert_eq!(r.cost(a, b), 4 * manhattan, "{a}->{b}");
            assert_eq!(r.hops(&t, a, b), manhattan, "{a}->{b}");
        }
    }

    #[test]
    #[should_panic(expected = "row 1 is not internally connected")]
    fn xy_rejects_broken_row() {
        // 3×2 grid whose row 1 lacks the (1,1)–(2,1) span: (2,1) still
        // reaches the others through column 2, but not inside its row.
        let mut t = Topology::empty("broken row", 3, 2);
        for (a, b) in [(0, 1), (1, 2), (3, 4), (0, 3), (1, 4), (2, 5)] {
            t.add_bidi(
                NodeId(a),
                NodeId(b),
                LinkClass::Regular,
                LinkTechnology::Electronic,
                Micrometers::from_mm(1.0),
                1,
                Gbps::new(50.0),
            );
        }
        let _ = RoutingTable::compute_xy(&t);
    }

    #[test]
    fn fingerprint_words_name_the_builder() {
        let t = mesh4();
        let words = [
            RoutingTable::compute_xy(&t).fingerprint_words(),
            RoutingTable::compute_xy_avoiding(&t)
                .expect("healthy mesh routes")
                .fingerprint_words(),
            RoutingTable::compute(&t).fingerprint_words(),
        ];
        for i in 0..words.len() {
            for j in i + 1..words.len() {
                assert_ne!(words[i], words[j], "{i} vs {j}");
            }
        }
    }

    #[test]
    fn mesh_paths_are_manhattan() {
        let (t, r) = paper_mesh();
        for &(a, b) in &[(0u16, 255u16), (17, 200), (15, 240), (100, 101)] {
            let (a, b) = (NodeId(a), NodeId(b));
            let hops = r.hops(&t, a, b);
            assert_eq!(hops, t.coord(a).manhattan(t.coord(b)), "{a}->{b}");
            // Electronic mesh: cost = hops × (3 router + 1 link).
            assert_eq!(r.cost(a, b), hops * 4);
        }
    }

    #[test]
    fn path_endpoints_connect() {
        let (t, r) = paper_mesh();
        let path = r.path(&t, NodeId(0), NodeId(255));
        assert_eq!(t.link(path[0]).src, NodeId(0));
        assert_eq!(t.link(*path.last().unwrap()).dst, NodeId(255));
        for w in path.windows(2) {
            assert_eq!(t.link(w[0]).dst, t.link(w[1]).src);
        }
    }

    #[test]
    fn express_links_shorten_long_paths() {
        let t = express_mesh(
            MeshSpec::paper(LinkTechnology::Electronic),
            ExpressSpec {
                span: 3,
                tech: LinkTechnology::Hyppi,
            },
        );
        let r = RoutingTable::compute(&t);
        // West-to-east across a row: 15 regular hops (cost 60) should
        // become 5 express hops (5 × (3+2) = 25).
        let a = t.node_at(Coord { x: 0, y: 8 });
        let b = t.node_at(Coord { x: 15, y: 8 });
        assert_eq!(r.cost(a, b), 25);
        let path = r.path(&t, a, b);
        assert_eq!(path.len(), 5);
        assert!(path.iter().all(|&l| t.link(l).is_express()));
    }

    #[test]
    fn express_not_used_when_slower() {
        let t = express_mesh(
            MeshSpec::paper(LinkTechnology::Electronic),
            ExpressSpec {
                span: 3,
                tech: LinkTechnology::Hyppi,
            },
        );
        let r = RoutingTable::compute(&t);
        // A 2-hop journey cannot profit from span-3 express links.
        let a = t.node_at(Coord { x: 1, y: 0 });
        let b = t.node_at(Coord { x: 3, y: 0 });
        let path = r.path(&t, a, b);
        assert_eq!(path.len(), 2);
        assert!(path.iter().all(|&l| !t.link(l).is_express()));
    }

    #[test]
    fn express_spans_mix_with_regular_tail() {
        let t = express_mesh(
            MeshSpec::paper(LinkTechnology::Electronic),
            ExpressSpec {
                span: 5,
                tech: LinkTechnology::Hyppi,
            },
        );
        let r = RoutingTable::compute(&t);
        // x: 0 → 7 = one span-5 express (cost 5) + two regular (8) = 13
        // vs 7 regular hops = 28.
        let a = t.node_at(Coord { x: 0, y: 3 });
        let b = t.node_at(Coord { x: 7, y: 3 });
        assert_eq!(r.cost(a, b), 13);
    }

    #[test]
    fn costs_are_symmetric_on_symmetric_topologies() {
        let (_, r) = paper_mesh();
        for a in [0u16, 5, 100, 255] {
            for b in [0u16, 9, 77, 254] {
                assert_eq!(r.cost(NodeId(a), NodeId(b)), r.cost(NodeId(b), NodeId(a)));
            }
        }
    }

    #[test]
    fn xy_matches_dijkstra_costs_on_plain_mesh() {
        let t = mesh(MeshSpec::paper(LinkTechnology::Electronic));
        let free = RoutingTable::compute(&t);
        let xy = RoutingTable::compute_xy(&t);
        for a in [0u16, 5, 100, 255, 240] {
            for b in [0u16, 9, 77, 254, 15] {
                assert_eq!(
                    free.cost(NodeId(a), NodeId(b)),
                    xy.cost(NodeId(a), NodeId(b)),
                    "{a}->{b}"
                );
            }
        }
    }

    #[test]
    fn xy_paths_complete_x_before_y() {
        let t = express_mesh(
            MeshSpec::paper(LinkTechnology::Electronic),
            ExpressSpec {
                span: 5,
                tech: LinkTechnology::Hyppi,
            },
        );
        let r = RoutingTable::compute_xy(&t);
        for (a, b) in [(0u16, 255u16), (17, 98), (250, 3), (16, 31)] {
            let (a, b) = (NodeId(a), NodeId(b));
            let path = r.path(&t, a, b);
            let mut seen_y = false;
            for &lid in &path {
                let l = t.link(lid);
                let horizontal = t.coord(l.src).y == t.coord(l.dst).y;
                if !horizontal {
                    seen_y = true;
                } else {
                    assert!(!seen_y, "horizontal move after vertical: {a}->{b}");
                }
            }
        }
    }

    #[test]
    fn xy_uses_express_links() {
        let t = express_mesh(
            MeshSpec::paper(LinkTechnology::Electronic),
            ExpressSpec {
                span: 3,
                tech: LinkTechnology::Hyppi,
            },
        );
        let r = RoutingTable::compute_xy(&t);
        let a = t.node_at(Coord { x: 0, y: 8 });
        let b = t.node_at(Coord { x: 15, y: 8 });
        assert_eq!(r.cost(a, b), 25); // 5 express hops × (3+2)
                                      // Span-15 ring: a westward-wrap path may cost less than direct.
        let t15 = express_mesh(
            MeshSpec::paper(LinkTechnology::Electronic),
            ExpressSpec {
                span: 15,
                tech: LinkTechnology::Hyppi,
            },
        );
        let r15 = RoutingTable::compute_xy(&t15);
        let a = t15.node_at(Coord { x: 2, y: 0 });
        let b = t15.node_at(Coord { x: 14, y: 0 });
        // 2→1→0, express 0→15, 15→14: 2·4 + 5 + 4 = 17 vs 12·4 = 48.
        assert_eq!(r15.cost(a, b), 17);
    }

    #[test]
    fn self_route_is_empty() {
        let (t, r) = paper_mesh();
        assert_eq!(r.cost(NodeId(7), NodeId(7)), 0);
        assert!(r.next_link(&t, NodeId(7), NodeId(7)).is_none());
        assert!(r.path(&t, NodeId(7), NodeId(7)).is_empty());
    }

    // --- fault-aware up*/down* routing ---

    use crate::fault::FaultSpec;

    fn mesh4() -> Topology {
        mesh(sized(4, 4, LinkTechnology::Electronic))
    }

    #[test]
    fn avoiding_routes_all_pairs_on_healthy_mesh() {
        let t = mesh(MeshSpec::paper(LinkTechnology::Electronic));
        let xy = RoutingTable::compute_xy(&t);
        let ud = RoutingTable::compute_xy_avoiding(&t).expect("healthy mesh routes");
        for a in [0u16, 5, 100, 255, 240, 15] {
            for b in [0u16, 9, 77, 254, 15, 240] {
                let (a, b) = (NodeId(a), NodeId(b));
                assert!(ud.reachable(a, b));
                // Up*/down* paths are a subset of all paths, so their cost
                // is bounded below by the shortest-path (= XY) cost.
                assert!(ud.cost(a, b) >= xy.cost(a, b), "{a}->{b}");
            }
        }
    }

    #[test]
    fn avoiding_detours_around_dead_link() {
        let healthy = mesh4();
        // Row 1 is 4-5-6-7; kill the 5–6 span.
        let t = FaultSpec::none()
            .dead_link(NodeId(5), NodeId(6))
            .apply(&healthy);
        let r = RoutingTable::compute_xy_avoiding(&t).expect("still connected");
        let path = r.path(&t, NodeId(4), NodeId(7));
        assert!(path.len() > 3, "must detour, got {} hops", path.len());
        for &lid in &path {
            let l = t.link(lid);
            assert!(
                (l.src, l.dst) != (NodeId(5), NodeId(6))
                    && (l.src, l.dst) != (NodeId(6), NodeId(5))
            );
        }
        // Every live pair routes.
        for s in t.nodes() {
            for d in t.nodes() {
                assert!(r.reachable(s, d), "{s}->{d}");
            }
        }
    }

    #[test]
    fn avoiding_tolerates_dead_router() {
        let healthy = mesh4();
        let t = FaultSpec::none().dead_router(NodeId(5)).apply(&healthy);
        let r = RoutingTable::compute_xy_avoiding(&t).expect("live nodes stay connected");
        // Pairs touching the dead router are unroutable, not an error.
        assert!(!r.reachable(NodeId(0), NodeId(5)));
        assert!(!r.reachable(NodeId(5), NodeId(0)));
        // Its neighbours detour around it: 4 -> 6 is 2 hops healthy, 4 faulted.
        assert_eq!(r.hops(&t, NodeId(4), NodeId(6)), 4);
        for s in t.nodes() {
            for d in t.nodes() {
                if s != NodeId(5) && d != NodeId(5) {
                    assert!(r.reachable(s, d), "{s}->{d}");
                }
            }
        }
    }

    #[test]
    fn avoiding_rejects_disconnecting_faults() {
        let healthy = mesh(sized(2, 2, LinkTechnology::Electronic));
        // Killing both horizontal spans splits the mesh into two live columns.
        let t = FaultSpec::none()
            .dead_link(NodeId(0), NodeId(1))
            .dead_link(NodeId(2), NodeId(3))
            .apply(&healthy);
        let err = RoutingTable::compute_xy_avoiding(&t).unwrap_err();
        let RouteError::Unreachable { src, dst } = err;
        assert_ne!(src, dst);
    }

    #[test]
    fn avoiding_paths_are_consistent_on_faulted_express_mesh() {
        let healthy = express_mesh(
            MeshSpec::paper(LinkTechnology::Electronic),
            ExpressSpec {
                span: 5,
                tech: LinkTechnology::Hyppi,
            },
        );
        let t = FaultSpec::none()
            .dead_link(NodeId(100), NodeId(101))
            .dead_router(NodeId(37))
            .degraded_span(NodeId(7), NodeId(8))
            .apply(&healthy);
        let r = RoutingTable::compute_xy_avoiding(&t).expect("connected");
        for s in [0u16, 36, 99, 102, 255, 240, 15] {
            for d in [0u16, 38, 101, 255, 15, 240, 129] {
                let (s, d) = (NodeId(s), NodeId(d));
                if s == d {
                    continue;
                }
                // Only pairs touching the dead router are unroutable.
                assert_eq!(r.reachable(s, d), s != NodeId(37) && d != NodeId(37));
                if !r.reachable(s, d) {
                    continue;
                }
                // Loop-free (path() debug-asserts length ≤ n) and the
                // advertised cost equals the sum of per-hop costs.
                let path = r.path(&t, s, d);
                let mut seen = vec![false; t.num_nodes()];
                let mut cost = 0;
                for &lid in &path {
                    let l = t.link(lid);
                    assert!(!seen[l.src.index()], "revisited {} on {s}->{d}", l.src);
                    seen[l.src.index()] = true;
                    cost += ROUTER_PIPELINE_CYCLES + l.latency_cycles;
                }
                assert_eq!(cost, r.cost(s, d), "{s}->{d}");
            }
        }
    }

    #[test]
    fn degraded_latency_raises_route_cost() {
        let healthy = mesh4();
        let t = FaultSpec::none()
            .degraded_span(NodeId(0), NodeId(1))
            .apply(&healthy);
        let r = RoutingTable::compute_xy_avoiding(&t).expect("connected");
        let h = RoutingTable::compute_xy(&healthy);
        // 0 -> 1: the direct link now costs 3 + (1+2) = 6, and any detour
        // costs more — either way the faulted cost exceeds the healthy 4.
        assert!(r.cost(NodeId(0), NodeId(1)) > h.cost(NodeId(0), NodeId(1)));
    }
}
