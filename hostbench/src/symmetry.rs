//! Seeded input variation for the trace workloads: one of the square
//! mesh's eight symmetries (the dihedral group D4) applied to a trace's
//! node ids. A symmetry is only offered for a workload when it maps every
//! topology of that workload onto itself, link for link — the HyPPI
//! express placement included — so the engine sees a genuinely different
//! but equally valid input, never a different network.

use hyppi_topology::{Coord, Link, LinkClass, LinkId, NodeId, Partition, ShardSpec, Topology};
use hyppi_traffic::{Trace, TraceEvent};
use std::collections::HashMap;

/// An element of D4 acting on the coordinates of a `side × side` mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Symmetry {
    Identity,
    MirrorX,
    MirrorY,
    Rotate180,
    Transpose,
    Rotate90,
    Rotate270,
    AntiTranspose,
}

impl Symmetry {
    /// Every element, identity first.
    pub const ALL: [Symmetry; 8] = [
        Symmetry::Identity,
        Symmetry::MirrorX,
        Symmetry::MirrorY,
        Symmetry::Rotate180,
        Symmetry::Transpose,
        Symmetry::Rotate90,
        Symmetry::Rotate270,
        Symmetry::AntiTranspose,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Symmetry::Identity => "identity",
            Symmetry::MirrorX => "mirror_x",
            Symmetry::MirrorY => "mirror_y",
            Symmetry::Rotate180 => "rotate_180",
            Symmetry::Transpose => "transpose",
            Symmetry::Rotate90 => "rotate_90",
            Symmetry::Rotate270 => "rotate_270",
            Symmetry::AntiTranspose => "anti_transpose",
        }
    }

    fn map(self, c: Coord, side: u16) -> Coord {
        let m = side - 1;
        let (x, y) = match self {
            Symmetry::Identity => (c.x, c.y),
            Symmetry::MirrorX => (m - c.x, c.y),
            Symmetry::MirrorY => (c.x, m - c.y),
            Symmetry::Rotate180 => (m - c.x, m - c.y),
            Symmetry::Transpose => (c.y, c.x),
            Symmetry::Rotate90 => (m - c.y, c.x),
            Symmetry::Rotate270 => (c.y, m - c.x),
            Symmetry::AntiTranspose => (m - c.y, m - c.x),
        };
        Coord { x, y }
    }

    fn node(self, topo: &Topology, n: NodeId) -> NodeId {
        topo.node_at(self.map(topo.coord(n), topo.width))
    }

    /// Whether the symmetry maps `topo`'s link set onto itself, matching
    /// endpoints, class (express span), technology and latency — and, when
    /// a shard partition is given, boundary links onto boundary links, so
    /// the sharded engine sees an equivalent cut.
    pub fn preserves(self, topo: &Topology, cut: Option<&Partition>) -> bool {
        assert_eq!(topo.width, topo.height, "symmetries act on square meshes");
        let key = |src: NodeId, dst: NodeId, l: &Link| {
            let span = match l.class {
                LinkClass::Regular => 0,
                LinkClass::Express { span } => span,
                LinkClass::Wraparound => u16::MAX,
            };
            (src.0, dst.0, span, l.tech.to_string(), l.latency_cycles)
        };
        let ids: HashMap<_, LinkId> = topo
            .links()
            .iter()
            .map(|l| (key(l.src, l.dst, l), l.id))
            .collect();
        topo.links().iter().all(|l| {
            let image = key(self.node(topo, l.src), self.node(topo, l.dst), l);
            ids.get(&image).is_some_and(|&m| {
                cut.is_none_or(|p| p.is_boundary_link(m) == p.is_boundary_link(l.id))
            })
        })
    }

    /// The trace with every source and destination mapped through the
    /// symmetry; event order and timing are unchanged.
    pub fn apply(self, topo: &Topology, trace: Trace) -> Trace {
        if self == Symmetry::Identity {
            return trace;
        }
        let events: Vec<TraceEvent> = trace
            .events
            .iter()
            .map(|e| TraceEvent {
                src: self.node(topo, e.src),
                dst: self.node(topo, e.dst),
                ..*e
            })
            .collect();
        Trace::new(trace.name, trace.num_nodes, trace.comm_wall_seconds, events)
    }
}

/// The symmetries that preserve every topology in `topos` (and its shard
/// cut, when `shards` > 1), identity first.
pub fn allowed(topos: &[Topology], shards: usize) -> Vec<Symmetry> {
    let cuts: Vec<Option<Partition>> = topos
        .iter()
        .map(|t| (shards > 1).then(|| Partition::new(t, ShardSpec::for_count(shards))))
        .collect();
    Symmetry::ALL
        .into_iter()
        .filter(|s| {
            topos
                .iter()
                .zip(&cuts)
                .all(|(t, cut)| s.preserves(t, cut.as_ref()))
        })
        .collect()
}

/// The workload seed's symmetry: seed 0 is the identity (the paper's
/// layout); other seeds cycle through `allowed`.
pub fn for_seed(allowed: &[Symmetry], seed: u64) -> Symmetry {
    allowed[(seed % allowed.len() as u64) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyppi_phys::{Gbps, LinkTechnology};
    use hyppi_topology::{express_mesh, mesh, ExpressSpec, MeshSpec};

    fn paper_topologies() -> Vec<Topology> {
        let spec = MeshSpec::paper(LinkTechnology::Electronic);
        let mut topos = vec![mesh(spec)];
        for span in [3, 5, 15] {
            topos.push(express_mesh(
                spec,
                ExpressSpec {
                    span,
                    tech: LinkTechnology::Hyppi,
                },
            ));
        }
        topos
    }

    #[test]
    fn express_placement_keeps_the_mirror_subgroup() {
        // Row express links laid end to end from x = 0 cover x = 0..15 for
        // spans 3, 5 and 15, so both mirrors keep them; anything that swaps
        // rows with columns moves them onto columns.
        let a = allowed(&paper_topologies(), 1);
        assert_eq!(
            a,
            vec![
                Symmetry::Identity,
                Symmetry::MirrorX,
                Symmetry::MirrorY,
                Symmetry::Rotate180
            ]
        );
    }

    #[test]
    fn plain_mesh_keeps_all_eight() {
        let t = mesh(MeshSpec {
            width: 8,
            height: 8,
            core_spacing_mm: 1.0,
            base_tech: LinkTechnology::Hyppi,
            capacity: Gbps::new(50.0),
        });
        assert_eq!(allowed(std::slice::from_ref(&t), 1).len(), 8);
        // Two vertical strips: only the symmetries that keep columns
        // columns keep the cut a cut.
        assert_eq!(
            allowed(&[t], 2),
            vec![
                Symmetry::Identity,
                Symmetry::MirrorX,
                Symmetry::MirrorY,
                Symmetry::Rotate180
            ]
        );
    }

    #[test]
    fn span_that_does_not_tile_the_row_loses_mirror_x() {
        // Span 4 on a 16-wide row places 0-4, 4-8, 8-12 and leaves 12-15
        // bare, so mirroring x moves the links.
        let t = express_mesh(
            MeshSpec::paper(LinkTechnology::Electronic),
            ExpressSpec {
                span: 4,
                tech: LinkTechnology::Hyppi,
            },
        );
        assert!(!Symmetry::MirrorX.preserves(&t, None));
        assert!(Symmetry::MirrorY.preserves(&t, None));
    }

    #[test]
    fn apply_maps_ids_and_keeps_timing() {
        let topos = paper_topologies();
        let trace = Trace::new(
            "t",
            256,
            0.0,
            vec![TraceEvent {
                cycle: 7,
                src: NodeId(0),
                dst: NodeId(17),
                flits: 1,
            }],
        );
        let mapped = Symmetry::Rotate180.apply(&topos[0], trace);
        assert_eq!(mapped.events[0].src, NodeId(255));
        assert_eq!(mapped.events[0].dst, NodeId(255 - 17));
        assert_eq!(mapped.events[0].cycle, 7);
    }
}
