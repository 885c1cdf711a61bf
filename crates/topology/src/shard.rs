//! Mesh partitioning for sharded parallel simulation.
//!
//! A [`ShardSpec`] cuts the W×H grid into `sx × sy` rectangular tiles
//! (quadrants for 2×2); [`Partition`] resolves the spec against a concrete
//! [`Topology`] into node-ownership and boundary-link classification
//! tables. A link is a *boundary link* when its endpoints live in
//! different shards: the shard owning `src` drives the link (credit
//! counters, send-side accounting) and the shard owning `dst` receives its
//! arrivals, so the two sides of every boundary link know exactly which
//! mailbox to use. Everything here is pure table-building — the superstep
//! protocol itself lives in `hyppi_netsim::shard`.

use crate::graph::Topology;
use crate::ids::{LinkId, NodeId};
use serde::{Deserialize, Serialize};

/// A rectangular shard grid: `sx` columns × `sy` rows of tiles laid over
/// the mesh. Tile `(tx, ty)` owns the nodes whose grid coordinates fall in
/// its contiguous x/y span (spans are balanced to within one column/row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// Tile columns (cuts along x).
    pub sx: u16,
    /// Tile rows (cuts along y).
    pub sy: u16,
}

impl ShardSpec {
    /// The trivial single-shard spec (the P=1 engine).
    pub const SINGLE: ShardSpec = ShardSpec { sx: 1, sy: 1 };

    /// The default 2×2 quadrant split.
    pub fn quadrants() -> Self {
        ShardSpec { sx: 2, sy: 2 }
    }

    /// A near-square tile grid with exactly `shards` tiles: the
    /// factorization `sx × sy = shards` with the smallest aspect ratio,
    /// preferring more columns than rows (mesh rows are the short
    /// dimension of most sweeps). 1 → single, 2 → 2×1, 4 → quadrants,
    /// 8 → 4×2, … Panics when the grid is wider than `u16::MAX` tiles
    /// (a prime count above 65,535, for one).
    pub fn for_count(shards: usize) -> Self {
        assert!(shards >= 1, "at least one shard required");
        let mut sy = (shards as f64).sqrt() as usize;
        while !shards.is_multiple_of(sy) {
            sy -= 1;
        }
        // sy <= sx, so a grid whose width fits a u16 fits whole.
        let sx = u16::try_from(shards / sy).unwrap_or_else(|_| {
            panic!(
                "{shards} shards need a {}x{sy} grid, wider than {} tiles",
                shards / sy,
                u16::MAX
            )
        });
        ShardSpec { sx, sy: sy as u16 }
    }

    /// Total tile count.
    pub fn count(&self) -> usize {
        usize::from(self.sx) * usize::from(self.sy)
    }
}

/// The resolved node-ownership and link-classification tables of one
/// (topology, spec) pair.
#[derive(Debug, Clone)]
pub struct Partition {
    /// The spec this partition was built from.
    pub spec: ShardSpec,
    /// Owning shard of every node, node-id indexed.
    pub shard_of_node: Vec<u16>,
    /// Index of every node within its owning shard's node list.
    pub local_of_node: Vec<u32>,
    /// Nodes of each shard, ascending node id (local index order).
    pub nodes_of_shard: Vec<Vec<NodeId>>,
    /// Shard owning each link's source endpoint (drives the link:
    /// credit counters, send-side stats), link-id indexed.
    pub link_src_shard: Vec<u16>,
    /// Index of every link among the links its source shard drives, in
    /// ascending link id (with one shard, the link id itself), link-id
    /// indexed.
    pub local_of_link: Vec<u32>,
    /// Shard owning each link's destination endpoint (receives its
    /// arrivals), link-id indexed.
    pub link_dst_shard: Vec<u16>,
}

impl Partition {
    /// Resolves `spec` against a topology. Panics when the grid has fewer
    /// columns/rows than tiles (an empty tile could never make progress).
    pub fn new(topo: &Topology, spec: ShardSpec) -> Self {
        assert!(
            spec.sx >= 1 && spec.sy >= 1,
            "degenerate shard grid {}x{}",
            spec.sx,
            spec.sy
        );
        assert!(
            spec.sx <= topo.width && spec.sy <= topo.height,
            "shard grid {}x{} exceeds the {}x{} mesh",
            spec.sx,
            spec.sy,
            topo.width,
            topo.height
        );
        let shards = spec.count();
        let tile_of = |v: u16, extent: u16, tiles: u16| -> u16 {
            // Balanced block partition: tile k owns [k*extent/tiles,
            // (k+1)*extent/tiles).
            ((u32::from(v) * u32::from(tiles)) / u32::from(extent)) as u16
        };
        let mut shard_of_node = Vec::with_capacity(topo.num_nodes());
        let mut local_of_node = vec![0u32; topo.num_nodes()];
        let mut nodes_of_shard: Vec<Vec<NodeId>> = vec![Vec::new(); shards];
        for node in topo.nodes() {
            let c = topo.coord(node);
            let tx = tile_of(c.x, topo.width, spec.sx);
            let ty = tile_of(c.y, topo.height, spec.sy);
            let shard = usize::from(ty) * usize::from(spec.sx) + usize::from(tx);
            shard_of_node.push(shard as u16);
            local_of_node[node.index()] = nodes_of_shard[shard].len() as u32;
            nodes_of_shard[shard].push(node);
        }
        let link_src_shard: Vec<u16> = topo
            .links()
            .iter()
            .map(|l| shard_of_node[l.src.index()])
            .collect();
        let mut driven = vec![0u32; shards];
        let local_of_link = link_src_shard
            .iter()
            .map(|&s| {
                driven[usize::from(s)] += 1;
                driven[usize::from(s)] - 1
            })
            .collect();
        let link_dst_shard: Vec<u16> = topo
            .links()
            .iter()
            .map(|l| shard_of_node[l.dst.index()])
            .collect();
        Partition {
            spec,
            shard_of_node,
            local_of_node,
            nodes_of_shard,
            link_src_shard,
            local_of_link,
            link_dst_shard,
        }
    }

    /// The trivial partition: every node in shard 0.
    pub fn single(topo: &Topology) -> Self {
        Self::new(topo, ShardSpec::SINGLE)
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.spec.count()
    }

    /// Whether a link crosses a shard boundary.
    pub fn is_boundary_link(&self, link: LinkId) -> bool {
        self.link_src_shard[link.index()] != self.link_dst_shard[link.index()]
    }

    /// Count of boundary links.
    pub fn boundary_link_count(&self) -> usize {
        self.link_src_shard
            .iter()
            .zip(&self.link_dst_shard)
            .filter(|(s, d)| s != d)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{express_mesh, mesh, ExpressSpec, MeshSpec};
    use hyppi_phys::{Gbps, LinkTechnology};

    fn grid(w: u16, h: u16) -> Topology {
        mesh(MeshSpec {
            width: w,
            height: h,
            core_spacing_mm: 1.0,
            base_tech: LinkTechnology::Electronic,
            capacity: Gbps::new(50.0),
        })
    }

    #[test]
    fn for_count_prefers_near_square() {
        assert_eq!(ShardSpec::for_count(1), ShardSpec::SINGLE);
        assert_eq!(ShardSpec::for_count(2), ShardSpec { sx: 2, sy: 1 });
        assert_eq!(ShardSpec::for_count(4), ShardSpec::quadrants());
        assert_eq!(ShardSpec::for_count(6), ShardSpec { sx: 3, sy: 2 });
        assert_eq!(ShardSpec::for_count(8), ShardSpec { sx: 4, sy: 2 });
        assert_eq!(ShardSpec::for_count(16), ShardSpec { sx: 4, sy: 4 });
    }

    #[test]
    #[should_panic(expected = "65537 shards need a 65537x1 grid")]
    fn for_count_refuses_a_grid_wider_than_u16() {
        // 65,537 is prime, so its only grid is one row of 65,537 tiles.
        let _ = ShardSpec::for_count(65_537);
    }

    #[test]
    fn quadrants_split_evenly_and_cover() {
        let t = grid(16, 16);
        let p = Partition::new(&t, ShardSpec::quadrants());
        assert_eq!(p.num_shards(), 4);
        for s in &p.nodes_of_shard {
            assert_eq!(s.len(), 64);
        }
        // Ownership tables are consistent.
        for node in t.nodes() {
            let s = usize::from(p.shard_of_node[node.index()]);
            let l = p.local_of_node[node.index()] as usize;
            assert_eq!(p.nodes_of_shard[s][l], node);
        }
        // Each shard numbers the links it drives 0, 1, … by ascending id.
        let mut driven = vec![0u32; p.num_shards()];
        for l in t.links() {
            let s = usize::from(p.link_src_shard[l.id.index()]);
            assert_eq!(p.local_of_link[l.id.index()], driven[s], "{:?}", l.id);
            driven[s] += 1;
        }
        // Tiles are rectangles: per-shard coordinate ranges are exact.
        for (s, nodes) in p.nodes_of_shard.iter().enumerate() {
            let xs: Vec<u16> = nodes.iter().map(|&n| t.coord(n).x).collect();
            let ys: Vec<u16> = nodes.iter().map(|&n| t.coord(n).y).collect();
            let (w, h) = (
                xs.iter().max().unwrap() - xs.iter().min().unwrap() + 1,
                ys.iter().max().unwrap() - ys.iter().min().unwrap() + 1,
            );
            assert_eq!(usize::from(w) * usize::from(h), nodes.len(), "shard {s}");
        }
    }

    #[test]
    fn quadrant_boundary_links_are_the_cuts() {
        // 16×16 quadrants: one vertical cut (16 row crossings) + one
        // horizontal cut (16 column crossings), each bidirectional.
        let t = grid(16, 16);
        let p = Partition::new(&t, ShardSpec::quadrants());
        assert_eq!(p.boundary_link_count(), 2 * 16 + 2 * 16);
        for l in t.links() {
            let cross = p.shard_of_node[l.src.index()] != p.shard_of_node[l.dst.index()];
            assert_eq!(p.is_boundary_link(l.id), cross);
        }
    }

    #[test]
    fn express_links_can_cross_boundaries() {
        let t = express_mesh(
            MeshSpec::paper(LinkTechnology::Electronic),
            ExpressSpec {
                span: 5,
                tech: LinkTechnology::Hyppi,
            },
        );
        let p = Partition::new(&t, ShardSpec::quadrants());
        let crossing_express = t
            .links()
            .iter()
            .filter(|l| l.is_express() && p.is_boundary_link(l.id))
            .count();
        // Span-5 express links at x=5..10 straddle the x=8 cut in every row.
        assert_eq!(crossing_express, 2 * 16);
    }

    #[test]
    fn single_partition_has_no_boundaries() {
        let t = grid(7, 3);
        let p = Partition::single(&t);
        assert_eq!(p.num_shards(), 1);
        assert_eq!(p.boundary_link_count(), 0);
        assert!(p.shard_of_node.iter().all(|&s| s == 0));
        // Local index = node id under the identity partition.
        for node in t.nodes() {
            assert_eq!(p.local_of_node[node.index()] as usize, node.index());
        }
    }

    #[test]
    fn uneven_grids_stay_balanced_within_one_row() {
        let t = grid(10, 6);
        let p = Partition::new(&t, ShardSpec { sx: 3, sy: 2 });
        let sizes: Vec<usize> = p.nodes_of_shard.iter().map(Vec::len).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 60);
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        // 10 columns over 3 tiles: 3/3/4 wide → 9/9/12-node tiles.
        assert!(max - min <= 3, "sizes {sizes:?}");
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn rejects_more_tiles_than_rows() {
        let t = grid(4, 1);
        let _ = Partition::new(&t, ShardSpec::quadrants());
    }

    #[test]
    fn strip_and_row_shapes() {
        // Vertical strips cut only horizontal links; horizontal strips
        // cut only vertical links.
        let t = grid(8, 8);
        let v = Partition::new(&t, ShardSpec { sx: 4, sy: 1 });
        for l in t.links() {
            if v.is_boundary_link(l.id) {
                assert_eq!(t.coord(l.src).y, t.coord(l.dst).y);
            }
        }
        let h = Partition::new(&t, ShardSpec { sx: 1, sy: 4 });
        for l in t.links() {
            if h.is_boundary_link(l.id) {
                assert_eq!(t.coord(l.src).x, t.coord(l.dst).x);
            }
        }
        // Per-row slices: 8 single-row shards of 8 nodes each.
        let r = Partition::new(&t, ShardSpec { sx: 1, sy: 8 });
        assert_eq!(r.num_shards(), 8);
        for nodes in &r.nodes_of_shard {
            assert_eq!(nodes.len(), 8);
            let y = t.coord(nodes[0]).y;
            assert!(nodes.iter().all(|&n| t.coord(n).y == y));
        }
    }
}
