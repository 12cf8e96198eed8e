//! Deterministic overlay topologies for locality-aware gossip.
//!
//! The paper's evaluation assumes a flat group where every peer is equally
//! cheap to reach. Real deployments are not flat: racks, sites, and radio
//! neighbourhoods make some links an order of magnitude more expensive than
//! others. A [`Topology`] captures that structure as a neighbour list per
//! node plus a *region* label (rack / cluster / site) used by the
//! observability planes to account cross-region traffic.
//!
//! Three deterministic generators cover the shapes the experiments sweep:
//!
//! | Generator | Shape | Regions |
//! |---|---|---|
//! | [`Topology::ring`] | cycle `0-1-…-(n-1)-0` | one region |
//! | [`Topology::grid`] | 4-neighbour lattice, no wraparound | quadrants |
//! | [`Topology::clustered`] | cliques bridged into a cycle + random extra links | one per clique |
//!
//! All generators are pure functions of their parameters (plus an explicit
//! seed for the random extra links), so a topology never perturbs the
//! engine's determinism contract.

use crate::id::NodeId;
use crate::rng::DetRng;
use rand::{RngExt, SeedableRng};

/// A static overlay: per-node neighbour lists plus region labels.
///
/// Neighbour lists are sorted and deduplicated; edges are symmetric by
/// construction in all generators. The structure is immutable — churn is
/// modelled by the membership layer on top, not by mutating the topology.
///
/// # Example
///
/// ```
/// use agb_types::topology::Topology;
/// use agb_types::NodeId;
///
/// let grid = Topology::grid(3, 3);
/// assert_eq!(grid.len(), 9);
/// // The centre cell of a 3x3 lattice has all four neighbours.
/// assert_eq!(grid.degree(NodeId::new(4)), 4);
/// // Corners have two.
/// assert_eq!(grid.degree(NodeId::new(0)), 2);
/// assert!(grid.is_connected());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    neighbors: Vec<Vec<NodeId>>,
    regions: Vec<u32>,
    n_regions: usize,
    label: &'static str,
}

impl Topology {
    /// Builds a topology from explicit adjacency lists (single region).
    ///
    /// Lists are sorted, deduplicated, and self-loops are removed; symmetry
    /// is the caller's responsibility.
    pub fn from_adjacency(neighbors: Vec<Vec<NodeId>>) -> Self {
        let n = neighbors.len();
        let neighbors = neighbors
            .into_iter()
            .enumerate()
            .map(|(i, mut list)| {
                list.retain(|p| p.index() != i && p.index() < n);
                list.sort();
                list.dedup();
                list
            })
            .collect();
        Topology {
            neighbors,
            regions: vec![0; n],
            n_regions: usize::from(n > 0),
            label: "custom",
        }
    }

    /// Replaces the region labelling (labels must be `< regions.len() as
    /// u32` dense ids; the region count is `max + 1`).
    ///
    /// # Panics
    ///
    /// Panics if `regions.len()` differs from the node count.
    pub fn with_regions(mut self, regions: Vec<u32>) -> Self {
        assert_eq!(regions.len(), self.neighbors.len(), "one region per node");
        self.n_regions = regions.iter().map(|&r| r as usize + 1).max().unwrap_or(0);
        self.regions = regions;
        self
    }

    /// A cycle `0-1-…-(n-1)-0`; every node has degree 2 (degenerate below
    /// 3 nodes). One region.
    pub fn ring(n: usize) -> Self {
        let neighbors = (0..n)
            .map(|i| {
                let prev = (i + n - 1) % n;
                let next = (i + 1) % n;
                vec![NodeId::new(prev as u32), NodeId::new(next as u32)]
            })
            .collect();
        let mut t = Topology::from_adjacency(neighbors);
        t.label = "ring";
        t
    }

    /// A `rows x cols` 4-neighbour lattice without wraparound, node `i` at
    /// `(i / cols, i % cols)`. Regions are the four quadrants (used only
    /// for traffic accounting; the lattice itself has no region structure).
    pub fn grid(rows: usize, cols: usize) -> Self {
        let at = |r: usize, c: usize| NodeId::new((r * cols + c) as u32);
        let mut neighbors = Vec::with_capacity(rows * cols);
        let mut regions = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                let mut list = Vec::with_capacity(4);
                if r > 0 {
                    list.push(at(r - 1, c));
                }
                if r + 1 < rows {
                    list.push(at(r + 1, c));
                }
                if c > 0 {
                    list.push(at(r, c - 1));
                }
                if c + 1 < cols {
                    list.push(at(r, c + 1));
                }
                neighbors.push(list);
                regions.push(u32::from(r >= rows / 2) * 2 + u32::from(c >= cols / 2));
            }
        }
        let mut t = Topology::from_adjacency(neighbors).with_regions(regions);
        t.label = "grid";
        t
    }

    /// `n_clusters` cliques of `cluster_size` nodes each, bridged into a
    /// cycle (last member of cluster `c` links to first member of cluster
    /// `c + 1 mod n_clusters`), plus `extra_links` seeded random
    /// inter-cluster edges. Connected by construction; regions are the
    /// cliques.
    pub fn clustered(
        n_clusters: usize,
        cluster_size: usize,
        extra_links: usize,
        seed: u64,
    ) -> Self {
        let n = n_clusters * cluster_size;
        let mut neighbors: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let mut regions = vec![0u32; n];
        for c in 0..n_clusters {
            let base = c * cluster_size;
            for i in 0..cluster_size {
                regions[base + i] = c as u32;
                for j in 0..cluster_size {
                    if i != j {
                        neighbors[base + i].push(NodeId::new((base + j) as u32));
                    }
                }
            }
        }
        // Bridge ring between consecutive clusters keeps the overlay
        // connected regardless of how the random extra links fall.
        if n_clusters > 1 && cluster_size > 0 {
            for c in 0..n_clusters {
                let from = c * cluster_size + (cluster_size - 1);
                let to = ((c + 1) % n_clusters) * cluster_size;
                if from != to {
                    neighbors[from].push(NodeId::new(to as u32));
                    neighbors[to].push(NodeId::new(from as u32));
                }
            }
        }
        let mut rng = DetRng::seed_from_u64(seed);
        if n_clusters > 1 && cluster_size > 0 {
            for _ in 0..extra_links {
                let a = rng.random_range(0..n);
                let mut b = rng.random_range(0..n);
                // Re-draw the far end until it lands in a different
                // cluster: extra links are inter-cluster by definition.
                while regions[b] == regions[a] {
                    b = rng.random_range(0..n);
                }
                neighbors[a].push(NodeId::new(b as u32));
                neighbors[b].push(NodeId::new(a as u32));
            }
        }
        let mut t = Topology::from_adjacency(neighbors).with_regions(regions);
        t.label = "clustered";
        t
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.neighbors.len()
    }

    /// Whether the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.neighbors.is_empty()
    }

    /// The generator name (`ring` / `grid` / `clustered` / `custom`).
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// The neighbour list of `node` (empty for out-of-range ids).
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        self.neighbors
            .get(node.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The degree of `node`.
    pub fn degree(&self, node: NodeId) -> usize {
        self.neighbors(node).len()
    }

    /// The region label of `node` (0 for out-of-range ids).
    pub fn region_of(&self, node: NodeId) -> u32 {
        self.regions.get(node.index()).copied().unwrap_or(0)
    }

    /// The per-node region labels, indexed by dense node id.
    pub fn regions(&self) -> &[u32] {
        &self.regions
    }

    /// Number of distinct regions.
    pub fn n_regions(&self) -> usize {
        self.n_regions
    }

    /// Whether every node is reachable from node 0 (BFS).
    pub fn is_connected(&self) -> bool {
        let n = self.len();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::from([0usize]);
        seen[0] = true;
        let mut reached = 1;
        while let Some(i) = queue.pop_front() {
            for p in &self.neighbors[i] {
                let j = p.index();
                if !seen[j] {
                    seen[j] = true;
                    reached += 1;
                    queue.push_back(j);
                }
            }
        }
        reached == n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_has_degree_two_and_is_connected() {
        let t = Topology::ring(10);
        assert_eq!(t.len(), 10);
        for i in 0..10 {
            assert_eq!(t.degree(NodeId::new(i)), 2);
        }
        assert_eq!(
            t.neighbors(NodeId::new(0)),
            &[NodeId::new(1), NodeId::new(9)]
        );
        assert!(t.is_connected());
        assert_eq!(t.n_regions(), 1);
        assert_eq!(t.label(), "ring");
    }

    #[test]
    fn grid_degrees_match_lattice_positions() {
        let t = Topology::grid(4, 5);
        assert_eq!(t.len(), 20);
        // Corner, edge, interior.
        assert_eq!(t.degree(NodeId::new(0)), 2);
        assert_eq!(t.degree(NodeId::new(2)), 3);
        assert_eq!(t.degree(NodeId::new(7)), 4);
        assert!(t.is_connected());
        // Quadrant regions: node (0,0) vs node (3,4).
        assert_eq!(t.region_of(NodeId::new(0)), 0);
        assert_eq!(t.region_of(NodeId::new(19)), 3);
        assert_eq!(t.n_regions(), 4);
    }

    #[test]
    fn clustered_is_connected_and_region_labelled() {
        let t = Topology::clustered(4, 6, 3, 42);
        assert_eq!(t.len(), 24);
        assert!(t.is_connected());
        assert_eq!(t.n_regions(), 4);
        let in_region_2 = (0..24).filter(|&i| t.region_of(NodeId::new(i)) == 2);
        assert_eq!(in_region_2.count(), 6);
        // Intra-cluster cliques: first member of cluster 0 reaches the
        // other five members.
        let n0 = t.neighbors(NodeId::new(0));
        for j in 1..6 {
            assert!(n0.contains(&NodeId::new(j)));
        }
        // Extra links are inter-cluster only.
        for i in 0..24u32 {
            let extra_intra = t
                .neighbors(NodeId::new(i))
                .iter()
                .filter(|p| t.region_of(**p) == t.region_of(NodeId::new(i)))
                .count();
            assert!(extra_intra <= 5, "node {i} grew an intra-cluster edge");
        }
    }

    #[test]
    fn clustered_generation_is_deterministic_per_seed() {
        assert_eq!(
            Topology::clustered(3, 5, 4, 7),
            Topology::clustered(3, 5, 4, 7)
        );
        assert_ne!(
            Topology::clustered(3, 5, 4, 7),
            Topology::clustered(3, 5, 4, 8)
        );
    }

    #[test]
    fn degenerate_shapes() {
        let empty = Topology::ring(0);
        assert!(empty.is_empty());
        assert!(empty.is_connected());
        assert_eq!(empty.n_regions(), 0);
        let single = Topology::ring(1);
        assert_eq!(single.degree(NodeId::new(0)), 0);
        assert!(single.is_connected());
        let pair = Topology::ring(2);
        assert_eq!(pair.neighbors(NodeId::new(0)), &[NodeId::new(1)]);
        // Out-of-range lookups are safe.
        assert_eq!(pair.degree(NodeId::new(9)), 0);
        assert_eq!(pair.region_of(NodeId::new(9)), 0);
    }

    #[test]
    fn from_adjacency_sanitises_lists() {
        let t = Topology::from_adjacency(vec![
            vec![
                NodeId::new(1),
                NodeId::new(1),
                NodeId::new(0),
                NodeId::new(9),
            ],
            vec![NodeId::new(0)],
        ]);
        assert_eq!(t.neighbors(NodeId::new(0)), &[NodeId::new(1)]);
        assert!(t.is_connected());
        assert_eq!(t.label(), "custom");
    }

    #[test]
    fn disconnected_graph_detected() {
        let t = Topology::from_adjacency(vec![vec![], vec![]]);
        assert!(!t.is_connected());
    }
}
