//! The KD-tree structure produced by the builders.

use crate::error::CoreError;
use fsi_geo::{Axis, CellRect, Grid, Partition};
use serde::{Deserialize, Serialize};

/// Node payload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// A leaf: one neighborhood of the final partition.
    Leaf {
        /// Dense leaf/region id (stable across serialization).
        region_id: usize,
    },
    /// An internal division.
    Internal {
        /// Axis the cut runs along.
        axis: Axis,
        /// Division offset along the axis.
        offset: usize,
        /// Arena index of the low child.
        low: u32,
        /// Arena index of the high child.
        high: u32,
    },
}

/// One tree node.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KdNode {
    /// Grid region covered by the node.
    pub region: CellRect,
    /// Leaf or internal payload.
    pub kind: NodeKind,
}

/// A KD-tree over the base grid whose leaves are the generated
/// neighborhoods.
///
/// Produced by [`crate::builder::build_kd_tree`] (Algorithm 1) or
/// [`crate::iterative::IterativeBuilder`] (Algorithm 3); serializable with
/// serde for persistence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KdTree {
    nodes: Vec<KdNode>,
    grid_rows: usize,
    grid_cols: usize,
    num_leaves: usize,
}

impl KdTree {
    /// Assembles a tree from an arena. Used by the builders; leaf region
    /// ids are re-assigned densely in arena order.
    pub(crate) fn from_arena(nodes: Vec<KdNode>, grid_rows: usize, grid_cols: usize) -> Self {
        let mut nodes = nodes;
        let mut next = 0usize;
        for n in &mut nodes {
            if let NodeKind::Leaf { region_id } = &mut n.kind {
                *region_id = next;
                next += 1;
            }
        }
        Self {
            nodes,
            grid_rows,
            grid_cols,
            num_leaves: next,
        }
    }

    /// Number of leaves (generated neighborhoods).
    pub fn num_leaves(&self) -> usize {
        self.num_leaves
    }

    /// Total number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Grid shape `(rows, cols)` the tree was built over.
    pub fn grid_shape(&self) -> (usize, usize) {
        (self.grid_rows, self.grid_cols)
    }

    /// Maximum root-to-leaf depth (a lone leaf has depth 0).
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[KdNode], i: u32) -> usize {
            match &nodes[i as usize].kind {
                NodeKind::Leaf { .. } => 0,
                NodeKind::Internal { low, high, .. } => 1 + rec(nodes, *low).max(rec(nodes, *high)),
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            rec(&self.nodes, 0)
        }
    }

    /// Leaf regions in region-id order.
    pub fn leaf_regions(&self) -> Vec<CellRect> {
        let mut out = vec![CellRect::new(0, 0, 0, 0); self.num_leaves];
        for n in &self.nodes {
            if let NodeKind::Leaf { region_id } = n.kind {
                out[region_id] = n.region;
            }
        }
        out
    }

    /// Region id of the leaf containing grid cell `(row, col)`.
    pub fn locate(&self, row: usize, col: usize) -> Result<usize, CoreError> {
        if row >= self.grid_rows || col >= self.grid_cols {
            return Err(CoreError::ShapeMismatch {
                expected: self.grid_rows * self.grid_cols,
                got: row * self.grid_cols + col,
                what: "cell coordinates",
            });
        }
        let mut i = 0u32;
        loop {
            let node = &self.nodes[i as usize];
            match &node.kind {
                NodeKind::Leaf { region_id } => return Ok(*region_id),
                NodeKind::Internal {
                    axis,
                    offset,
                    low,
                    high,
                } => {
                    let in_low = match axis {
                        Axis::Row => row < node.region.row_start + offset,
                        Axis::Col => col < node.region.col_start + offset,
                    };
                    i = if in_low { *low } else { *high };
                }
            }
        }
    }

    /// Region ids of all leaves intersecting `query` (a range query over
    /// the index).
    pub fn range_query(&self, query: &CellRect) -> Vec<usize> {
        let mut out = Vec::new();
        if self.nodes.is_empty() {
            return out;
        }
        let mut stack = vec![0u32];
        while let Some(i) = stack.pop() {
            let node = &self.nodes[i as usize];
            if !node.region.intersects(query) {
                continue;
            }
            match &node.kind {
                NodeKind::Leaf { region_id } => out.push(*region_id),
                NodeKind::Internal { low, high, .. } => {
                    stack.push(*high);
                    stack.push(*low);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Converts the leaf set into a complete, non-overlapping
    /// [`Partition`] of `grid` (Algorithm 1, step 3).
    pub fn partition(&self, grid: &Grid) -> Result<Partition, CoreError> {
        if grid.rows() != self.grid_rows || grid.cols() != self.grid_cols {
            return Err(CoreError::ShapeMismatch {
                expected: self.grid_rows * self.grid_cols,
                got: grid.len(),
                what: "partition grid",
            });
        }
        Partition::from_rects(grid, &self.leaf_regions()).map_err(CoreError::Geo)
    }

    /// Read access to the node arena (for diagnostics and rendering).
    pub fn nodes(&self) -> &[KdNode] {
        &self.nodes
    }

    /// The node at arena index `index`, or `None` when out of range.
    pub fn node(&self, index: u32) -> Option<&KdNode> {
        self.nodes.get(index as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-built tree: root splits rows at 2; low child splits cols at 1.
    fn sample() -> KdTree {
        let nodes = vec![
            KdNode {
                region: CellRect::new(0, 4, 0, 4),
                kind: NodeKind::Internal {
                    axis: Axis::Row,
                    offset: 2,
                    low: 1,
                    high: 2,
                },
            },
            KdNode {
                region: CellRect::new(0, 2, 0, 4),
                kind: NodeKind::Internal {
                    axis: Axis::Col,
                    offset: 1,
                    low: 3,
                    high: 4,
                },
            },
            KdNode {
                region: CellRect::new(2, 4, 0, 4),
                kind: NodeKind::Leaf { region_id: 0 },
            },
            KdNode {
                region: CellRect::new(0, 2, 0, 1),
                kind: NodeKind::Leaf { region_id: 0 },
            },
            KdNode {
                region: CellRect::new(0, 2, 1, 4),
                kind: NodeKind::Leaf { region_id: 0 },
            },
        ];
        KdTree::from_arena(nodes, 4, 4)
    }

    #[test]
    fn leaf_ids_are_densified_in_arena_order() {
        let t = sample();
        assert_eq!(t.num_leaves(), 3);
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.depth(), 2);
        let regions = t.leaf_regions();
        assert_eq!(regions[0], CellRect::new(2, 4, 0, 4));
        assert_eq!(regions[1], CellRect::new(0, 2, 0, 1));
        assert_eq!(regions[2], CellRect::new(0, 2, 1, 4));
    }

    #[test]
    fn locate_visits_correct_leaf() {
        let t = sample();
        assert_eq!(t.locate(3, 3).unwrap(), 0);
        assert_eq!(t.locate(0, 0).unwrap(), 1);
        assert_eq!(t.locate(1, 2).unwrap(), 2);
        assert!(t.locate(4, 0).is_err());
    }

    #[test]
    fn locate_agrees_with_partition() {
        let t = sample();
        let g = Grid::unit(4).unwrap();
        let p = t.partition(&g).unwrap();
        for cell in g.cells() {
            let (r, c) = g.row_col(cell);
            assert_eq!(t.locate(r, c).unwrap(), p.region_of(cell));
        }
    }

    #[test]
    fn partition_requires_matching_grid() {
        let t = sample();
        let g = Grid::unit(5).unwrap();
        assert!(t.partition(&g).is_err());
    }

    #[test]
    fn range_query_finds_intersecting_leaves() {
        let t = sample();
        // Query covering only the top-left corner.
        assert_eq!(t.range_query(&CellRect::new(0, 1, 0, 1)), vec![1]);
        // Full-grid query returns every leaf.
        assert_eq!(t.range_query(&CellRect::new(0, 4, 0, 4)), vec![0, 1, 2]);
        // Empty query returns nothing.
        assert!(t.range_query(&CellRect::new(1, 1, 0, 0)).is_empty());
    }

    #[test]
    fn serde_round_trip() {
        let t = sample();
        let json = serde_json::to_string(&t).unwrap();
        let back: KdTree = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
        assert_eq!(back.locate(3, 3).unwrap(), 0);
    }
}
