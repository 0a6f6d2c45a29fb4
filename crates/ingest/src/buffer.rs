//! The concurrent delta buffer behind `Request::Ingest`.
//!
//! Accepted points land in one of a fixed set of mutex-sharded bins
//! selected by grid cell (one lock per write, never all of them), while
//! each bin also maintains live per-cell count / label / group-count
//! deltas on top of the frozen snapshot's `CellStats`. Occupancy and
//! the rejected tally are plain atomics so the policy loop and the
//! telemetry scrape never take a lock.

use crate::record::IngestRecord;
use fsi_geo::{Grid, Point};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Shards in the buffer — a power of two so the cell-id mix is a mask.
const SHARD_COUNT: usize = 16;

/// Live per-cell aggregates stacked on top of the frozen statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellDelta {
    /// Points buffered in this cell.
    pub count: u64,
    /// Positive labels buffered in this cell.
    pub labels: u64,
    /// Buffered count per cohort tag, sorted by tag.
    pub groups: Vec<(u32, u64)>,
}

impl CellDelta {
    fn add(&mut self, group: u32, label: bool) {
        self.count += 1;
        self.labels += u64::from(label);
        match self.groups.binary_search_by_key(&group, |&(g, _)| g) {
            Ok(i) => self.groups[i].1 += 1,
            Err(i) => self.groups.insert(i, (group, 1)),
        }
    }
}

#[derive(Default)]
struct Shard {
    records: Vec<IngestRecord>,
    cells: HashMap<usize, CellDelta>,
}

/// A concurrent buffer of ingested points awaiting the next index
/// maintenance pass.
pub struct DeltaBuffer {
    grid: Grid,
    shards: Vec<Mutex<Shard>>,
    seq: AtomicU64,
    len: AtomicU64,
    accepted: AtomicU64,
    rejected: AtomicU64,
    epoch: Instant,
    /// Nanos-since-epoch **plus one** of the oldest undrained accept;
    /// zero means the buffer is empty. Best-effort across a drain that
    /// races new accepts — staleness may then be under-reported until
    /// the next accept restamps it.
    oldest: AtomicU64,
}

impl DeltaBuffer {
    /// An empty buffer over `grid` — the grid decides which points are
    /// in bounds and which cell a point's deltas land in.
    pub fn new(grid: Grid) -> Self {
        Self {
            grid,
            shards: (0..SHARD_COUNT).map(|_| Mutex::default()).collect(),
            seq: AtomicU64::new(0),
            len: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            epoch: Instant::now(),
            oldest: AtomicU64::new(0),
        }
    }

    /// The grid the buffer validates and bins points against.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Accepts one observed point, returning its global accept-order
    /// sequence number, or `None` (and a bumped rejected tally) when
    /// the point falls outside the grid.
    pub fn accept(&self, x: f64, y: f64, group: u32, label: bool) -> Option<u64> {
        let Ok(cell) = self.grid.locate(&Point { x, y }) else {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let record = IngestRecord {
            seq,
            x,
            y,
            group,
            label,
        };
        {
            let mut shard = self.shards[cell % SHARD_COUNT].lock().unwrap();
            shard.records.push(record);
            shard.cells.entry(cell).or_default().add(group, label);
        }
        self.len.fetch_add(1, Ordering::Release);
        self.accepted.fetch_add(1, Ordering::Relaxed);
        let stamp = self.epoch.elapsed().as_nanos().min(u64::MAX as u128 - 1) as u64 + 1;
        let _ = self
            .oldest
            .compare_exchange(0, stamp, Ordering::AcqRel, Ordering::Relaxed);
        Some(seq)
    }

    /// Points currently buffered.
    pub fn occupancy(&self) -> u64 {
        self.len.load(Ordering::Acquire)
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.occupancy() == 0
    }

    /// Points accepted since the buffer was created (drains don't
    /// lower this — it's the cumulative write counter).
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Points rejected for falling outside the grid.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Age of the oldest buffered point, `None` when empty.
    pub fn oldest_age(&self) -> Option<Duration> {
        let stamp = self.oldest.load(Ordering::Acquire);
        if stamp == 0 {
            return None;
        }
        Some(
            self.epoch
                .elapsed()
                .saturating_sub(Duration::from_nanos(stamp - 1)),
        )
    }

    /// Row-major per-cell `(count, label)` deltas over the buffer's
    /// grid — the drift detector's input, shaped for
    /// `CellStats::with_deltas`.
    pub fn cell_deltas(&self) -> (Vec<f64>, Vec<f64>) {
        let mut counts = vec![0.0; self.grid.len()];
        let mut labels = vec![0.0; self.grid.len()];
        for shard in &self.shards {
            let shard = shard.lock().unwrap();
            for (&cell, delta) in &shard.cells {
                counts[cell] += delta.count as f64;
                labels[cell] += delta.labels as f64;
            }
        }
        (counts, labels)
    }

    /// The live cohort-count deltas of one cell, sorted by tag; empty
    /// when the cell has no buffered points.
    pub fn group_deltas(&self, cell: usize) -> Vec<(u32, u64)> {
        let shard = self.shards[cell % SHARD_COUNT].lock().unwrap();
        shard
            .cells
            .get(&cell)
            .map(|d| d.groups.clone())
            .unwrap_or_default()
    }

    /// Buffered cohort counts summed across all cells, sorted by tag.
    pub fn group_totals(&self) -> Vec<(u32, u64)> {
        let mut totals: HashMap<u32, u64> = HashMap::new();
        for shard in &self.shards {
            let shard = shard.lock().unwrap();
            for delta in shard.cells.values() {
                for &(g, n) in &delta.groups {
                    *totals.entry(g).or_default() += n;
                }
            }
        }
        let mut out: Vec<(u32, u64)> = totals.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// Removes and returns every buffered record in global accept
    /// order, resetting the per-cell deltas. Accepts racing the drain
    /// simply land in the next epoch.
    pub fn drain(&self) -> Vec<IngestRecord> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap();
            out.append(&mut shard.records);
            shard.cells.clear();
        }
        out.sort_unstable_by_key(|r| r.seq);
        self.len.fetch_sub(out.len() as u64, Ordering::AcqRel);
        self.oldest.store(0, Ordering::Release);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buffer() -> DeltaBuffer {
        DeltaBuffer::new(Grid::unit(4).unwrap())
    }

    #[test]
    fn accepts_assign_global_sequence_numbers() {
        let b = buffer();
        assert_eq!(b.accept(0.1, 0.1, 0, true), Some(0));
        assert_eq!(b.accept(0.9, 0.9, 1, false), Some(1));
        assert_eq!(b.occupancy(), 2);
        assert_eq!(b.accepted(), 2);
        assert!(b.oldest_age().is_some());
    }

    #[test]
    fn out_of_bounds_points_are_rejected_not_buffered() {
        let b = buffer();
        assert_eq!(b.accept(1.5, 0.5, 0, true), None);
        assert_eq!(b.accept(-0.1, 0.5, 0, true), None);
        assert_eq!(b.rejected(), 2);
        assert_eq!(b.occupancy(), 0);
        assert_eq!(b.oldest_age(), None);
    }

    #[test]
    fn cell_deltas_track_counts_labels_and_groups() {
        let b = buffer();
        // Three points in the same cell (0.1, 0.1), two cohorts.
        b.accept(0.05, 0.05, 7, true).unwrap();
        b.accept(0.1, 0.1, 7, false).unwrap();
        b.accept(0.15, 0.2, 3, true).unwrap();
        let cell = b.grid().locate(&Point { x: 0.1, y: 0.1 }).unwrap();
        let (counts, labels) = b.cell_deltas();
        assert_eq!(counts[cell], 3.0);
        assert_eq!(labels[cell], 2.0);
        assert_eq!(counts.iter().sum::<f64>(), 3.0);
        assert_eq!(b.group_deltas(cell), vec![(3, 1), (7, 2)]);
        assert_eq!(b.group_totals(), vec![(3, 1), (7, 2)]);
    }

    #[test]
    fn drain_returns_accept_order_and_resets_deltas() {
        let b = buffer();
        for i in 0..20 {
            let t = i as f64 / 20.0;
            b.accept(t, 1.0 - t - 1e-9, i % 3, i % 2 == 0).unwrap();
        }
        let drained = b.drain();
        assert_eq!(drained.len(), 20);
        let seqs: Vec<u64> = drained.iter().map(|r| r.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(b.occupancy(), 0);
        assert_eq!(b.oldest_age(), None);
        let (counts, labels) = b.cell_deltas();
        assert!(counts.iter().all(|&c| c == 0.0));
        assert!(labels.iter().all(|&l| l == 0.0));
        // Sequence numbers keep climbing across drains.
        assert_eq!(b.accept(0.5, 0.5, 0, true), Some(20));
    }

    #[test]
    fn concurrent_accepts_never_lose_points() {
        let b = std::sync::Arc::new(buffer());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let b = std::sync::Arc::clone(&b);
                scope.spawn(move || {
                    for i in 0..250 {
                        let x = (t as f64 * 250.0 + i as f64) / 1000.0;
                        b.accept(x, 0.5, t, i % 2 == 0).unwrap();
                    }
                });
            }
        });
        assert_eq!(b.occupancy(), 1000);
        let drained = b.drain();
        assert_eq!(drained.len(), 1000);
        let mut seqs: Vec<u64> = drained.iter().map(|r| r.seq).collect();
        assert!(
            seqs.windows(2).all(|w| w[0] < w[1]),
            "drain must sort by seq"
        );
        seqs.dedup();
        assert_eq!(seqs.len(), 1000, "sequence numbers must be unique");
        let (counts, _) = b.cell_deltas();
        assert!(counts.iter().all(|&c| c == 0.0));
    }
}
