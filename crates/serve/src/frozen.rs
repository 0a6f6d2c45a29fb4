//! The compiled, immutable, query-optimized index.
//!
//! [`FrozenIndex`] fuses three training-time artifacts into one flat
//! structure sized for the read path:
//!
//! * the served partition as a per-cell leaf table — one `u32` leaf
//!   slot per grid cell, row-major. This is Algorithm 1's complete,
//!   non-overlapping cell → neighborhood map stored as is, whether it
//!   came from a [`KdTree`] ([`FrozenIndex::compile`]) or any other
//!   [`Partition`] ([`FrozenIndex::from_partition`]);
//! * the grid geometry, so queries are *continuous* [`Point`]s rather
//!   than grid coordinates;
//! * a [`ModelSnapshot`] of per-leaf raw scores and calibration offsets,
//!   with calibrated scores precomputed at compile time.
//!
//! A lookup is two subtractions, two divisions (or exact reciprocal
//! multiplies), a floor-and-clamp and one table load. Cell assignment is
//! bit-identical to [`Grid::locate`], not approximate: the fractional
//! cell coordinates are computed with the same operations
//! `Grid::cell_of` uses and floored and clamped the same way, so every
//! answer equals [`Grid::locate`] + [`KdTree::locate`].
//!
//! The table costs `4·rows·cols` bytes (a partial index stores only its
//! block). A flattened tree would cost 24 bytes per internal node, so the
//! table is the smaller of the two whenever `rows·cols < 6·(leaves − 1)`.

use crate::error::ServeError;
use fsi_core::KdTree;
use fsi_geo::{CellRect, Grid, Partition, Point, Rect};
use fsi_pipeline::{ModelSnapshot, PipelineError};

/// Restriction of a partial index to a sub-block of the global grid.
///
/// A clipped index keeps the *global* [`Grid`], so fractional cell
/// coordinates — and therefore leaf assignment — stay bit-identical to
/// the unclipped index; only the acceptance test and the leaf-id
/// namespace shrink. Leaf storage is compacted to the leaves whose
/// region intersects the block, with `leaf_ids` mapping each local slot
/// back to its global id, so every [`Decision`] a partial index hands
/// out is indistinguishable from the single-box answer.
#[derive(Debug, Clone)]
struct Clip {
    /// Continuous extent of the block (what [`FrozenIndex::bounds`]
    /// reports for a clipped index).
    rect: Rect,
    /// Local leaf slot → global leaf id, ascending.
    leaf_ids: Vec<u32>,
}

/// The decision returned for one query point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Leaf (= region) id of the neighborhood containing the point.
    pub leaf_id: usize,
    /// Spatial fairness group the decision is calibrated against (equal
    /// to `leaf_id` under the identity group mapping).
    pub group: usize,
    /// The model's raw (uncalibrated) score for the neighborhood.
    pub raw_score: f64,
    /// The locally calibrated score: `raw + offset`, clamped to `[0, 1]`.
    pub calibrated_score: f64,
}

/// An immutable, compiled spatial decision index.
///
/// Build one with [`FrozenIndex::compile`] (from a KD-tree) or
/// [`FrozenIndex::from_partition`] (from any partition), then serve
/// [`FrozenIndex::lookup`] / [`FrozenIndex::lookup_batch`] /
/// [`FrozenIndex::range_query`] from as many threads as you like — every
/// method takes `&self` and the structure never mutates. Swapping in a
/// freshly built index without blocking readers is the job of
/// [`crate::IndexHandle`].
#[derive(Debug, Clone)]
pub struct FrozenIndex {
    /// Leaf slot of every cell of `block`, row-major.
    cells: Vec<u32>,
    /// The block of global grid cells this index serves: the whole grid
    /// for a full index, the clipped block for a partial one.
    block: CellRect,
    /// The grid geometry — the single authority on point → cell
    /// semantics (cold paths delegate to [`Grid::cell_of`]).
    grid: Grid,
    /// Cached `grid.cell_width()` / `grid.cell_height()`, so the hot
    /// path pays no divisions beyond the two in `slot`.
    cell_w: f64,
    cell_h: f64,
    /// Exact reciprocals of `cell_w` / `cell_h` when both are binary
    /// powers of two (the common normalized-bounds case): multiplying by
    /// an exact power-of-two reciprocal only shifts the exponent, so it
    /// is bit-identical to the division and roughly twice as fast on the
    /// lookup hot path. `None` whenever exactness cannot be proven.
    inv_wh: Option<(f64, f64)>,
    /// Per-leaf raw scores (from the snapshot).
    raw: Vec<f64>,
    /// Per-leaf calibration offsets (kept for introspection).
    offset: Vec<f64>,
    /// Per-leaf calibrated scores, precomputed at compile time.
    calibrated: Vec<f64>,
    /// Per-leaf fairness-group ids.
    group: Vec<u32>,
    /// `Some` when this is a partial index restricted to a sub-block of
    /// the grid (see [`FrozenIndex::compile_clipped`]).
    clip: Option<Clip>,
}

impl FrozenIndex {
    /// Compiles a KD-tree, its grid geometry and a model snapshot into a
    /// frozen index. The table is built from [`KdTree::partition`], so
    /// every leaf id equals [`KdTree::locate`] of the point's cell.
    pub fn compile(
        tree: &KdTree,
        grid: &Grid,
        snapshot: &ModelSnapshot,
    ) -> Result<Self, ServeError> {
        if tree.grid_shape() != (grid.rows(), grid.cols()) {
            return Err(ServeError::GridMismatch {
                expected: tree.grid_shape(),
                got: (grid.rows(), grid.cols()),
            });
        }
        let partition = tree.partition(grid).map_err(PipelineError::from)?;
        Self::from_partition(&partition, grid, snapshot)
    }

    /// Compiles an arbitrary partition (KD-leaf, Voronoi, uniform, …)
    /// into a frozen index.
    pub fn from_partition(
        partition: &Partition,
        grid: &Grid,
        snapshot: &ModelSnapshot,
    ) -> Result<Self, ServeError> {
        if partition.grid_shape() != (grid.rows(), grid.cols()) {
            return Err(ServeError::GridMismatch {
                expected: partition.grid_shape(),
                got: (grid.rows(), grid.cols()),
            });
        }
        let num_leaves = partition.num_regions();
        if snapshot.num_leaves() != num_leaves {
            return Err(ServeError::SnapshotMismatch {
                leaves: num_leaves,
                snapshot: snapshot.num_leaves(),
            });
        }
        let calibrated = (0..num_leaves).map(|l| snapshot.calibrated(l)).collect();
        let (cell_w, cell_h) = (grid.cell_width(), grid.cell_height());
        // A normal positive power of two has an all-zero mantissa; for
        // such values the reciprocal is also an exact power of two, and
        // multiplying by it is bit-identical to dividing.
        let exact_recip = |x: f64| {
            let normal_pow2 =
                |v: f64| v.is_normal() && v > 0.0 && v.to_bits() & ((1u64 << 52) - 1) == 0;
            let inv = 1.0 / x;
            (normal_pow2(x) && normal_pow2(inv)).then_some(inv)
        };
        let inv_wh = exact_recip(cell_w).zip(exact_recip(cell_h));
        Ok(Self {
            cells: partition.assignments().to_vec(),
            block: CellRect::new(0, grid.rows(), 0, grid.cols()),
            grid: grid.clone(),
            cell_w,
            cell_h,
            inv_wh,
            raw: snapshot.raw_scores().to_vec(),
            offset: snapshot.offsets().to_vec(),
            calibrated,
            group: snapshot.groups().to_vec(),
            clip: None,
        })
    }

    /// Compiles a **partial index** restricted to the grid cells a clip
    /// rectangle touches (closed-bounds, same cell semantics as
    /// [`FrozenIndex::range_query`]).
    ///
    /// The partial index keeps the global grid geometry, so every answer
    /// it gives — leaf ids, groups, scores — is bit-identical to the full
    /// index; points whose cell falls outside the block are simply
    /// rejected (`lookup` returns `None`, batches report
    /// [`ServeError::PointOutOfBounds`]). What shrinks is the working
    /// set: the table is cut to the block and leaf storage is compacted
    /// to the leaves intersecting it, so per-shard
    /// [`FrozenIndex::heap_bytes`] scales *down* with shard count instead
    /// of replicating.
    ///
    /// Clipping an already clipped index is rejected.
    pub fn compile_clipped(&self, rect: &Rect) -> Result<FrozenIndex, ServeError> {
        if self.clip.is_some() {
            return Err(ServeError::InvalidTopology(
                "cannot clip an already clipped index".into(),
            ));
        }
        let block = self.covered_cells(rect).ok_or_else(|| {
            ServeError::InvalidTopology(format!(
                "clip rectangle ({}, {})..({}, {}) misses the map",
                rect.min_x, rect.min_y, rect.max_x, rect.max_y
            ))
        })?;
        let cols = self.grid.cols();
        let global =
            |row: usize| &self.cells[row * cols + block.col_start..row * cols + block.col_end];
        // Which global leaves own at least one block cell? Local slots
        // follow ascending global id, so remapped query results sort
        // identically to the unclipped index.
        let mut present = vec![false; self.num_leaves()];
        for row in block.row_start..block.row_end {
            for &g in global(row) {
                present[g as usize] = true;
            }
        }
        let leaf_ids: Vec<u32> = (0..self.num_leaves() as u32)
            .filter(|&g| present[g as usize])
            .collect();
        let mut slot_of = vec![u32::MAX; self.num_leaves()];
        for (slot, &g) in leaf_ids.iter().enumerate() {
            slot_of[g as usize] = slot as u32;
        }
        let cells = (block.row_start..block.row_end)
            .flat_map(|row| global(row).iter().map(|&g| slot_of[g as usize]))
            .collect();
        let b = self.grid.bounds();
        let rect = Rect::new(
            b.min_x + block.col_start as f64 * self.cell_w,
            b.min_y + block.row_start as f64 * self.cell_h,
            (b.min_x + block.col_end as f64 * self.cell_w).min(b.max_x),
            (b.min_y + block.row_end as f64 * self.cell_h).min(b.max_y),
        )
        .map_err(|e| ServeError::InvalidTopology(format!("degenerate clip block: {e}")))?;
        let pick = |xs: &[f64]| leaf_ids.iter().map(|&g| xs[g as usize]).collect();
        Ok(FrozenIndex {
            cells,
            block,
            grid: self.grid.clone(),
            cell_w: self.cell_w,
            cell_h: self.cell_h,
            inv_wh: self.inv_wh,
            raw: pick(&self.raw),
            offset: pick(&self.offset),
            calibrated: pick(&self.calibrated),
            group: leaf_ids.iter().map(|&g| self.group[g as usize]).collect(),
            clip: Some(Clip { rect, leaf_ids }),
        })
    }

    /// Leaf slot of a point, or `None` when the point is non-finite,
    /// outside the closed map bounds, or in a cell outside this index's
    /// block.
    ///
    /// The fractional cell coordinates use the exact arithmetic of
    /// [`Grid::cell_of`] (the reciprocal-multiply branch fires only when
    /// proven exact; see `inv_wh`), followed by the same floor-and-clamp,
    /// so cell assignment is bit-identical. A partial index accepts
    /// exactly the cells of its block, so a point on an interior block
    /// edge is rejected here and served by the neighbor owning the next
    /// cell — the same closed-boundary semantics as `Grid::cell_of` on a
    /// single box.
    #[inline]
    fn slot(&self, p: &Point) -> Option<u32> {
        let b = self.grid.bounds();
        if !p.is_finite() || !b.contains(p) {
            return None;
        }
        let (dx, dy) = (p.x - b.min_x, p.y - b.min_y);
        let (fx, fy) = match self.inv_wh {
            Some((inv_w, inv_h)) => (dx * inv_w, dy * inv_h),
            None => (dx / self.cell_w, dy / self.cell_h),
        };
        let col = (fx as usize).min(self.grid.cols() - 1);
        let row = (fy as usize).min(self.grid.rows() - 1);
        // Unsigned wrap-around folds the lower block bound into the upper
        // one: a cell before the block's first row or column wraps to a
        // huge offset.
        let (r, c) = (
            row.wrapping_sub(self.block.row_start),
            col.wrapping_sub(self.block.col_start),
        );
        let width = self.block.num_cols();
        (r < self.block.num_rows() && c < width).then(|| self.cells[r * width + c])
    }

    #[inline]
    fn decision(&self, slot: u32) -> Decision {
        let l = slot as usize;
        Decision {
            leaf_id: match &self.clip {
                None => l,
                Some(c) => c.leaf_ids[l] as usize,
            },
            group: self.group[l] as usize,
            raw_score: self.raw[l],
            calibrated_score: self.calibrated[l],
        }
    }

    /// Maps a point to its fair-neighborhood decision. Returns `None`
    /// when the point is non-finite, outside the map bounds, or (for a
    /// partial index) outside the clipped block.
    #[inline]
    pub fn lookup(&self, p: &Point) -> Option<Decision> {
        self.slot(p).map(|slot| self.decision(slot))
    }

    /// Batch lookup: slice in, decisions out. Clears and refills `out`,
    /// so reusing the buffer across calls amortizes allocation over the
    /// whole request stream. Fails on the first out-of-bounds point,
    /// reporting its batch index; `out` is left empty on error so a
    /// failed batch can never leak partial decisions to the caller.
    pub fn lookup_batch(
        &self,
        points: &[Point],
        out: &mut Vec<Decision>,
    ) -> Result<(), ServeError> {
        out.clear();
        out.reserve(points.len());
        for (index, p) in points.iter().enumerate() {
            let Some(slot) = self.slot(p) else {
                out.clear();
                return Err(ServeError::PointOutOfBounds {
                    index,
                    point: (p.x, p.y),
                });
            };
            out.push(self.decision(slot));
        }
        Ok(())
    }

    /// Leaf ids of every neighborhood a point of the closed query
    /// rectangle could map to, ascending. Agrees with
    /// [`KdTree::range_query`] over the covered cell block; a query
    /// entirely outside the map returns an empty vector.
    pub fn range_query(&self, query: &Rect) -> Vec<usize> {
        let Some(cells) = self.covered_cells(query) else {
            return Vec::new();
        };
        // A partial index answers for the intersection of the query
        // block with its own block; the coordinator unions the per-shard
        // results back into the single-box answer.
        let b = &self.block;
        let rows = cells.row_start.max(b.row_start)..cells.row_end.min(b.row_end);
        let cols = cells.col_start.max(b.col_start)..cells.col_end.min(b.col_end);
        if rows.is_empty() || cols.is_empty() {
            return Vec::new();
        }
        let mut seen = vec![false; self.num_leaves()];
        let mut ids = Vec::new();
        for row in rows {
            let start = (row - b.row_start) * b.num_cols() + (cols.start - b.col_start);
            for &slot in &self.cells[start..start + cols.len()] {
                let slot = slot as usize;
                if !seen[slot] {
                    seen[slot] = true;
                    ids.push(slot);
                }
            }
        }
        // Local slots ascend with global leaf ids, so sorting the slots
        // sorts the remapped list too.
        ids.sort_unstable();
        if let Some(c) = &self.clip {
            for id in &mut ids {
                *id = c.leaf_ids[*id] as usize;
            }
        }
        ids
    }

    /// The block of cells the closed `query` rectangle touches under
    /// point-lookup semantics (a cell is included iff some point of the
    /// query maps to it), or `None` when the query misses the map.
    fn covered_cells(&self, query: &Rect) -> Option<CellRect> {
        // `Rect::new` validates finiteness, but the fields are public, so
        // reject NaN/infinite queries before min/max (which ignore NaN).
        let finite = [query.min_x, query.min_y, query.max_x, query.max_y]
            .iter()
            .all(|v| v.is_finite());
        if !finite {
            return None;
        }
        let b = self.grid.bounds();
        let lo_x = query.min_x.max(b.min_x);
        let hi_x = query.max_x.min(b.max_x);
        let lo_y = query.min_y.max(b.min_y);
        let hi_y = query.max_y.min(b.max_y);
        if lo_x > hi_x || lo_y > hi_y {
            return None;
        }
        // Cold path: delegate the corner → cell mapping to the single
        // authority on boundary semantics. Both corners are clamped into
        // the bounds above, so `cell_of` cannot miss.
        let (row_lo, col_lo) = self.grid.cell_of(&Point::new(lo_x, lo_y))?;
        let (row_hi, col_hi) = self.grid.cell_of(&Point::new(hi_x, hi_y))?;
        Some(CellRect::new(row_lo, row_hi + 1, col_lo, col_hi + 1))
    }

    /// Number of leaves (neighborhoods) served.
    #[inline]
    pub fn num_leaves(&self) -> usize {
        self.raw.len()
    }

    /// Grid shape `(rows, cols)` the index was compiled over.
    #[inline]
    pub fn grid_shape(&self) -> (usize, usize) {
        (self.grid.rows(), self.grid.cols())
    }

    /// The whole base grid the index was compiled over (a partial index
    /// keeps the global grid).
    #[inline]
    pub(crate) fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Map bounds accepted by lookups — the clipped block's extent for
    /// a partial index, the whole map otherwise.
    #[inline]
    pub fn bounds(&self) -> &Rect {
        match &self.clip {
            None => self.grid.bounds(),
            Some(c) => &c.rect,
        }
    }

    /// The sub-rectangle this index is clipped to, or `None` for a full
    /// index.
    #[inline]
    pub fn clip_rect(&self) -> Option<&Rect> {
        self.clip.as_ref().map(|c| &c.rect)
    }

    /// The compiled backend's wire name, reported in `Stats`: always
    /// `"cells"`, the per-cell leaf table.
    pub fn backend_name(&self) -> &'static str {
        "cells"
    }

    /// Per-leaf calibration offsets (introspection / diagnostics).
    #[inline]
    pub fn offsets(&self) -> &[f64] {
        &self.offset
    }

    /// Approximate heap footprint in bytes — the whole read working set.
    pub fn heap_bytes(&self) -> usize {
        (self.cells.len() + self.group.len()) * std::mem::size_of::<u32>()
            + (self.raw.len() + self.offset.len() + self.calibrated.len())
                * std::mem::size_of::<f64>()
            + self
                .clip
                .as_ref()
                .map_or(0, |c| c.leaf_ids.len() * std::mem::size_of::<u32>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_core::{build_kd_tree, BuildConfig, CellStats};

    fn grid8() -> Grid {
        Grid::unit(8).unwrap()
    }

    /// A height-3 median tree over uniform counts: 8 equal leaves.
    fn median_tree(grid: &Grid) -> KdTree {
        let counts = vec![1.0; grid.len()];
        let zeros = vec![0.0; grid.len()];
        let stats = CellStats::new(grid, &counts, &zeros, &zeros).unwrap();
        build_kd_tree(
            &stats,
            &fsi_core::MedianSplit,
            &BuildConfig {
                height: 3,
                ..BuildConfig::default()
            },
        )
        .unwrap()
    }

    /// A height-5 median tree over skewed counts on a 16×16 grid, so
    /// leaves differ in size and cuts fall off the halving lines.
    fn skewed_tree(grid: &Grid) -> KdTree {
        let counts: Vec<f64> = (0..grid.len())
            .map(|c| {
                let (row, col) = grid.row_col(c);
                1.0 + (row * col % 7) as f64 + if row < 4 { 9.0 } else { 0.0 }
            })
            .collect();
        let zeros = vec![0.0; grid.len()];
        let stats = CellStats::new(grid, &counts, &zeros, &zeros).unwrap();
        build_kd_tree(
            &stats,
            &fsi_core::MedianSplit,
            &BuildConfig {
                height: 5,
                ..BuildConfig::default()
            },
        )
        .unwrap()
    }

    /// A map rectangle strictly inside a cell block that reaches into
    /// every cell of it, so it covers exactly that block.
    fn block_rect(grid: &Grid, block: &CellRect) -> Rect {
        let b = grid.bounds();
        let (w, h) = (grid.cell_width(), grid.cell_height());
        Rect::new(
            b.min_x + (block.col_start as f64 + 0.25) * w,
            b.min_y + (block.row_start as f64 + 0.25) * h,
            b.min_x + (block.col_end as f64 - 0.25) * w,
            b.min_y + (block.row_end as f64 - 0.25) * h,
        )
        .unwrap()
    }

    #[test]
    fn tree_backend_matches_locate_on_every_cell_centroid() {
        for grid in [grid8(), Grid::unit(16).unwrap()] {
            let tree = if grid.rows() == 8 {
                median_tree(&grid)
            } else {
                skewed_tree(&grid)
            };
            let snapshot = ModelSnapshot::uniform(tree.num_leaves(), 0.5).unwrap();
            let idx = FrozenIndex::compile(&tree, &grid, &snapshot).unwrap();
            assert_eq!(idx.backend_name(), "cells");
            for cell in grid.cells() {
                let c = grid.centroid(cell).unwrap();
                let (row, col) = grid.cell_of(&c).unwrap();
                assert_eq!(
                    idx.lookup(&c).unwrap().leaf_id,
                    tree.locate(row, col).unwrap()
                );
            }
        }
    }

    #[test]
    fn cells_backend_matches_partition() {
        let grid = grid8();
        let partition = Partition::uniform(&grid, 2, 4).unwrap();
        let snapshot = ModelSnapshot::uniform(partition.num_regions(), 0.5).unwrap();
        let idx = FrozenIndex::from_partition(&partition, &grid, &snapshot).unwrap();
        assert_eq!(idx.backend_name(), "cells");
        for cell in grid.cells() {
            let c = grid.centroid(cell).unwrap();
            assert_eq!(idx.lookup(&c).unwrap().leaf_id, partition.region_of(cell));
        }
    }

    #[test]
    fn boundary_points_follow_grid_semantics() {
        let grid = grid8();
        let tree = median_tree(&grid);
        let snapshot = ModelSnapshot::uniform(tree.num_leaves(), 0.5).unwrap();
        let idx = FrozenIndex::compile(&tree, &grid, &snapshot).unwrap();
        // Corners, edge midpoints and interior cut lines.
        for p in [
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(0.5, 0.5),
            Point::new(0.5, 0.0),
            Point::new(1.0, 0.5),
            Point::new(0.25, 0.75),
        ] {
            let cell = grid.locate(&p).unwrap();
            let (row, col) = grid.row_col(cell);
            assert_eq!(
                idx.lookup(&p).unwrap().leaf_id,
                tree.locate(row, col).unwrap(),
                "at {p:?}"
            );
        }
        assert!(idx.lookup(&Point::new(1.0001, 0.5)).is_none());
        assert!(idx.lookup(&Point::new(f64::NAN, 0.5)).is_none());
    }

    #[test]
    fn decisions_surface_snapshot_scores() {
        let grid = grid8();
        let partition = Partition::uniform(&grid, 1, 2).unwrap();
        let snapshot = ModelSnapshot::new(vec![0.2, 0.9], vec![0.3, -0.1], vec![0, 1]).unwrap();
        let idx = FrozenIndex::from_partition(&partition, &grid, &snapshot).unwrap();
        let west = idx.lookup(&Point::new(0.1, 0.5)).unwrap();
        assert_eq!(west.leaf_id, 0);
        assert_eq!(west.group, 0);
        assert!((west.raw_score - 0.2).abs() < 1e-12);
        assert!((west.calibrated_score - 0.5).abs() < 1e-12);
        let east = idx.lookup(&Point::new(0.9, 0.5)).unwrap();
        assert_eq!(east.leaf_id, 1);
        assert!((east.calibrated_score - 0.8).abs() < 1e-12);
    }

    #[test]
    fn cell_keyed_lookup_agrees_with_point_lookup_everywhere() {
        let grid = grid8();
        let tree = median_tree(&grid);
        let snapshot = ModelSnapshot::uniform(tree.num_leaves(), 0.5).unwrap();
        let by_tree = FrozenIndex::compile(&tree, &grid, &snapshot).unwrap();
        let partition = Partition::uniform(&grid, 2, 4).unwrap();
        let by_cells = FrozenIndex::from_partition(
            &partition,
            &grid,
            &ModelSnapshot::uniform(partition.num_regions(), 0.5).unwrap(),
        )
        .unwrap();
        // The reference leaf of every cell, row-major.
        let by_locate: Vec<usize> = grid
            .cells()
            .map(|cell| {
                let (row, col) = grid.row_col(cell);
                tree.locate(row, col).unwrap()
            })
            .collect();
        let by_region: Vec<usize> = grid.cells().map(|c| partition.region_of(c)).collect();
        for (idx, reference) in [(&by_tree, &by_locate), (&by_cells, &by_region)] {
            // Every cell boundary crossing plus the map edges: the points
            // where a table keyed differently from `Grid::cell_of` would
            // hand out a neighbor's decision.
            for i in 0..=8 {
                for j in 0..=8 {
                    for (dx, dy) in [(0.0, 0.0), (1e-12, 0.0), (0.0, 1e-12), (-1e-12, -1e-12)] {
                        let p = Point::new(
                            (i as f64 / 8.0 + dx).clamp(0.0, 1.0),
                            (j as f64 / 8.0 + dy).clamp(0.0, 1.0),
                        );
                        let (row, col) = grid.cell_of(&p).unwrap();
                        assert_eq!(
                            idx.lookup(&p).unwrap().leaf_id,
                            reference[grid.cell_id(row, col)],
                            "cell ({row}, {col}) at {p:?}"
                        );
                    }
                }
            }
            assert!(idx.lookup(&Point::new(1.5, 0.5)).is_none());
            assert!(idx.lookup(&Point::new(f64::NAN, 0.5)).is_none());
        }
    }

    #[test]
    fn reciprocal_fast_path_is_bit_identical_to_grid_cell_of() {
        // Power-of-two cell sizes arm the reciprocal multiply; a dense
        // sweep of awkward fractions must agree with `Grid::cell_of`
        // bit for bit. One region per cell makes the leaf id the cell id.
        let grid = grid8();
        let partition = Partition::uniform(&grid, 8, 8).unwrap();
        let snapshot = ModelSnapshot::uniform(partition.num_regions(), 0.5).unwrap();
        let index = FrozenIndex::from_partition(&partition, &grid, &snapshot).unwrap();
        assert!(index.inv_wh.is_some(), "1/8 cells must arm the fast path");
        for i in 0..=997 {
            for j in [0, 1, 501, 996, 997] {
                let p = Point::new(i as f64 / 997.0, j as f64 / 997.0);
                let (row, col) = grid.cell_of(&p).unwrap();
                assert_eq!(
                    index.lookup(&p).map(|d| d.leaf_id),
                    Some(row * grid.cols() + col),
                    "at {p:?}"
                );
            }
        }
        // Non-power-of-two cell sizes must fall back to the division.
        let odd = Grid::new(Rect::unit(), 3, 5).unwrap();
        let partition = Partition::uniform(&odd, 3, 5).unwrap();
        let by_cells = FrozenIndex::from_partition(
            &partition,
            &odd,
            &ModelSnapshot::uniform(partition.num_regions(), 0.5).unwrap(),
        )
        .unwrap();
        assert!(
            by_cells.inv_wh.is_none(),
            "1/3 and 1/5 are not powers of two"
        );
        let p = Point::new(0.4, 0.7);
        let (row, col) = odd.cell_of(&p).unwrap();
        assert_eq!(
            by_cells.lookup(&p).map(|d| d.leaf_id),
            Some(row * odd.cols() + col)
        );
    }

    #[test]
    fn batch_matches_singles_and_reports_bad_index() {
        let grid = grid8();
        let tree = median_tree(&grid);
        let snapshot = ModelSnapshot::uniform(tree.num_leaves(), 0.5).unwrap();
        let idx = FrozenIndex::compile(&tree, &grid, &snapshot).unwrap();
        let points: Vec<Point> = (0..50)
            .map(|i| Point::new((i as f64 * 0.02) % 1.0, (i as f64 * 0.07) % 1.0))
            .collect();
        let mut out = Vec::new();
        idx.lookup_batch(&points, &mut out).unwrap();
        assert_eq!(out.len(), points.len());
        for (p, d) in points.iter().zip(&out) {
            assert_eq!(idx.lookup(p).unwrap(), *d);
        }
        let mut bad = points.clone();
        bad[17] = Point::new(5.0, 5.0);
        match idx.lookup_batch(&bad, &mut out) {
            Err(ServeError::PointOutOfBounds { index: 17, .. }) => {}
            other => panic!("expected PointOutOfBounds at 17, got {other:?}"),
        }
        // A failed batch never leaks partial decisions.
        assert!(out.is_empty());
    }

    #[test]
    fn range_query_agrees_with_kd_tree() {
        for grid in [grid8(), Grid::unit(16).unwrap()] {
            let tree = if grid.rows() == 8 {
                median_tree(&grid)
            } else {
                skewed_tree(&grid)
            };
            let snapshot = ModelSnapshot::uniform(tree.num_leaves(), 0.5).unwrap();
            let idx = FrozenIndex::compile(&tree, &grid, &snapshot).unwrap();
            // Whole map → every leaf.
            let all = idx.range_query(&Rect::unit());
            assert_eq!(all, (0..tree.num_leaves()).collect::<Vec<_>>());
            // Every block with corners on a stride-3 lattice, against the
            // tree's own range query over the same cells.
            let n = grid.rows();
            for r0 in (0..n).step_by(3) {
                for r1 in (r0 + 1..=n).step_by(3) {
                    for c0 in (0..n).step_by(3) {
                        for c1 in (c0 + 1..=n).step_by(3) {
                            let block = CellRect::new(r0, r1, c0, c1);
                            let mut want = tree.range_query(&block);
                            want.sort_unstable();
                            assert_eq!(
                                idx.range_query(&block_rect(&grid, &block)),
                                want,
                                "{block:?}"
                            );
                        }
                    }
                }
            }
            // Off-map queries return nothing.
            assert!(idx
                .range_query(&Rect::new(2.0, 2.0, 3.0, 3.0).unwrap())
                .is_empty());
        }
    }

    #[test]
    fn single_leaf_tree_serves_the_whole_map() {
        // A 1×1 grid admits no split, so even height 1 yields a lone
        // leaf: a one-entry table.
        let grid = Grid::unit(1).unwrap();
        let stats = CellStats::new(&grid, &[5.0], &[0.0], &[0.0]).unwrap();
        let tree = build_kd_tree(
            &stats,
            &fsi_core::MedianSplit,
            &BuildConfig {
                height: 1,
                ..BuildConfig::default()
            },
        )
        .unwrap();
        assert_eq!(tree.num_leaves(), 1);
        let snapshot = ModelSnapshot::uniform(1, 0.7).unwrap();
        let idx = FrozenIndex::compile(&tree, &grid, &snapshot).unwrap();
        assert_eq!(idx.lookup(&Point::new(0.3, 0.8)).unwrap().leaf_id, 0);
        assert_eq!(idx.range_query(&Rect::unit()), vec![0]);
    }

    #[test]
    fn compile_validates_inputs() {
        let grid = grid8();
        let tree = median_tree(&grid);
        let other_grid = Grid::unit(4).unwrap();
        let good = ModelSnapshot::uniform(tree.num_leaves(), 0.5).unwrap();
        assert!(matches!(
            FrozenIndex::compile(&tree, &other_grid, &good),
            Err(ServeError::GridMismatch { .. })
        ));
        let short = ModelSnapshot::uniform(tree.num_leaves() - 1, 0.5).unwrap();
        assert!(matches!(
            FrozenIndex::compile(&tree, &grid, &short),
            Err(ServeError::SnapshotMismatch { .. })
        ));
        let partition = Partition::uniform(&grid, 2, 2).unwrap();
        assert!(matches!(
            FrozenIndex::from_partition(&partition, &other_grid, &good),
            Err(ServeError::GridMismatch { .. })
        ));
    }

    #[test]
    fn clipped_index_agrees_with_global_inside_its_block() {
        let grid = grid8();
        let tree = median_tree(&grid);
        let by_tree = FrozenIndex::compile(
            &tree,
            &grid,
            &ModelSnapshot::uniform(tree.num_leaves(), 0.5).unwrap(),
        )
        .unwrap();
        let partition = Partition::uniform(&grid, 2, 4).unwrap();
        // Non-uniform scores so the slot → global remap is exercised.
        let snapshot = ModelSnapshot::new(
            (0..8).map(|i| i as f64 / 10.0).collect(),
            vec![0.01; 8],
            vec![0, 1, 2, 3, 4, 5, 6, 7],
        )
        .unwrap();
        let by_cells = FrozenIndex::from_partition(&partition, &grid, &snapshot).unwrap();
        let quads = [
            Rect::new(0.0, 0.0, 0.49, 0.49).unwrap(),
            Rect::new(0.5, 0.0, 1.0, 0.49).unwrap(),
            Rect::new(0.0, 0.5, 0.49, 1.0).unwrap(),
            Rect::new(0.5, 0.5, 1.0, 1.0).unwrap(),
        ];
        for full in [&by_tree, &by_cells] {
            for rect in &quads {
                let part = full.compile_clipped(rect).unwrap();
                assert!(part.heap_bytes() < full.heap_bytes());
                let block = part.block;
                let mut inside_pts = Vec::new();
                let mut outside_pts = Vec::new();
                for cell in grid.cells() {
                    let (row, col) = grid.row_col(cell);
                    let c = grid.centroid(cell).unwrap();
                    if block.contains(row, col) {
                        inside_pts.push(c);
                        assert_eq!(part.lookup(&c), full.lookup(&c), "cell {cell}");
                    } else {
                        outside_pts.push(c);
                        assert!(part.lookup(&c).is_none(), "cell {cell}");
                    }
                }
                let (mut got, mut want) = (Vec::new(), Vec::new());
                part.lookup_batch(&inside_pts, &mut got).unwrap();
                full.lookup_batch(&inside_pts, &mut want).unwrap();
                assert_eq!(got, want);
                // An out-of-block point fails a shard batch the same way
                // an out-of-map point fails a single-box batch.
                let mut bad = inside_pts.clone();
                bad.push(outside_pts[0]);
                assert!(matches!(
                    part.lookup_batch(&bad, &mut got),
                    Err(ServeError::PointOutOfBounds { .. })
                ));
                assert!(got.is_empty());
            }
        }
    }

    #[test]
    fn union_of_clipped_ranges_matches_single_box() {
        let grid = grid8();
        let tree = median_tree(&grid);
        let snapshot = ModelSnapshot::uniform(tree.num_leaves(), 0.5).unwrap();
        let full = FrozenIndex::compile(&tree, &grid, &snapshot).unwrap();
        let quads = [
            Rect::new(0.0, 0.0, 0.5, 0.5).unwrap(),
            Rect::new(0.5, 0.0, 1.0, 0.5).unwrap(),
            Rect::new(0.0, 0.5, 0.5, 1.0).unwrap(),
            Rect::new(0.5, 0.5, 1.0, 1.0).unwrap(),
        ];
        let parts: Vec<_> = quads
            .iter()
            .map(|r| full.compile_clipped(r).unwrap())
            .collect();
        for query in [
            Rect::unit(),
            Rect::new(0.2, 0.2, 0.8, 0.8).unwrap(),
            Rect::new(0.01, 0.01, 0.02, 0.02).unwrap(),
            Rect::new(0.45, 0.45, 0.55, 0.55).unwrap(),
        ] {
            let mut union: Vec<usize> = parts.iter().flat_map(|p| p.range_query(&query)).collect();
            union.sort_unstable();
            union.dedup();
            assert_eq!(union, full.range_query(&query), "query {query:?}");
        }
        assert!(parts[0]
            .range_query(&Rect::new(0.9, 0.9, 0.95, 0.95).unwrap())
            .is_empty());
    }

    #[test]
    fn clip_validates_inputs_and_reports_block_bounds() {
        let grid = grid8();
        let tree = median_tree(&grid);
        let snapshot = ModelSnapshot::uniform(tree.num_leaves(), 0.5).unwrap();
        let full = FrozenIndex::compile(&tree, &grid, &snapshot).unwrap();
        let rect = Rect::new(0.0, 0.0, 0.5, 0.5).unwrap();
        let part = full.compile_clipped(&rect).unwrap();
        // The 0.5 closed corner floors into cell (4, 4), so the block is
        // 5×5 cells and the reported bounds snap to cell edges.
        assert_eq!(part.bounds(), &Rect::new(0.0, 0.0, 0.625, 0.625).unwrap());
        assert!(part.clip_rect().is_some());
        assert!(full.clip_rect().is_none());
        assert!(matches!(
            part.compile_clipped(&rect),
            Err(ServeError::InvalidTopology(_))
        ));
        assert!(matches!(
            full.compile_clipped(&Rect::new(2.0, 2.0, 3.0, 3.0).unwrap()),
            Err(ServeError::InvalidTopology(_))
        ));
    }

    #[test]
    fn footprint_is_reported() {
        let grid = grid8();
        let tree = median_tree(&grid);
        let snapshot = ModelSnapshot::uniform(tree.num_leaves(), 0.5).unwrap();
        let idx = FrozenIndex::compile(&tree, &grid, &snapshot).unwrap();
        // 64 cells * 4B + 8 leaves * (3*8B + 4B) = 480.
        assert_eq!(idx.heap_bytes(), 64 * 4 + 8 * 28);
        // A partial index stores only its block: 5×5 cells, and the 4
        // leaves it touches plus their global ids.
        let part = idx
            .compile_clipped(&Rect::new(0.0, 0.0, 0.5, 0.5).unwrap())
            .unwrap();
        assert_eq!(part.heap_bytes(), 25 * 4 + part.num_leaves() * (28 + 4));
        assert_eq!(idx.grid_shape(), (8, 8));
        assert_eq!(idx.num_leaves(), 8);
        assert_eq!(idx.offsets(), &[0.0; 8]);
    }
}
