//! The coordinator's ingest state behind `Request::Ingest`.
//!
//! An ingested point reaches training only through its base-grid cell
//! and its label, so the state is two sets of row-major per-cell
//! `(count, positive)` sums under one mutex: those of every accepted
//! point, and those of the pending points, accepted since the last
//! merge. The merged sums, which the published generation was trained
//! on, are the difference. A maintenance pass snapshots both, trains
//! on the first and, after its commit, moves exactly its pending
//! snapshot into merged; points accepted during the pass stay pending.
//! Counts commute, so the state, and every index trained on it, is the
//! same whatever order the points arrived in.
//! Pending occupancy and the rejected tally are atomics, so an ingest
//! acknowledgement and the policy's occupancy check never take the
//! lock.

use fsi_geo::{Grid, Point};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

struct Counts {
    /// Points accepted since the buffer was created, merged or not.
    accepted: u64,
    /// Per-cell `(count, positive)` sums of every accepted point.
    all: (Vec<f64>, Vec<f64>),
    /// Per-cell `(count, positive)` sums of the pending points.
    pending: (Vec<f64>, Vec<f64>),
}

/// Per-cell counts of the ingested points, merged and pending.
pub struct DeltaBuffer {
    grid: Grid,
    counts: Mutex<Counts>,
    /// Pending points; written only under the counts lock.
    pending: AtomicU64,
    rejected: AtomicU64,
    epoch: Instant,
    /// Nanos-since-epoch **plus one** of the oldest pending accept;
    /// zero means nothing is pending. Points still pending after a
    /// merge are restamped then, so their age may be under-reported by
    /// up to one maintenance pass.
    oldest: AtomicU64,
}

impl DeltaBuffer {
    /// An empty buffer over `grid` — the grid decides which points are
    /// in bounds and which cell a point's counts land in.
    pub fn new(grid: Grid) -> Self {
        let zeros = || (vec![0.0; grid.len()], vec![0.0; grid.len()]);
        Self {
            counts: Mutex::new(Counts {
                accepted: 0,
                all: zeros(),
                pending: zeros(),
            }),
            grid,
            pending: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            epoch: Instant::now(),
            oldest: AtomicU64::new(0),
        }
    }

    /// The grid the buffer validates and bins points against.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    fn lock(&self) -> MutexGuard<'_, Counts> {
        self.counts.lock().expect("ingest counts lock poisoned")
    }

    fn stamp(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u64::MAX as u128 - 1) as u64 + 1
    }

    /// Counts one observed point into its cell's sums as pending,
    /// returning its running accept index, or `None` (and a bumped
    /// rejected tally) when the point falls outside the grid. The
    /// cohort tag is not kept: neither the merge nor drift reads it.
    pub fn accept(&self, x: f64, y: f64, _group: u32, label: bool) -> Option<u64> {
        let Ok(cell) = self.grid.locate(&Point { x, y }) else {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let counts = &mut *self.lock();
        let index = counts.accepted;
        counts.accepted += 1;
        for sums in [&mut counts.all, &mut counts.pending] {
            sums.0[cell] += 1.0;
            sums.1[cell] += f64::from(u8::from(label));
        }
        if self.pending.fetch_add(1, Ordering::AcqRel) == 0 {
            self.oldest.store(self.stamp(), Ordering::Release);
        }
        Some(index)
    }

    /// Points accepted but not yet merged.
    pub fn occupancy(&self) -> u64 {
        self.pending.load(Ordering::Acquire)
    }

    /// `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.occupancy() == 0
    }

    /// Points accepted since the buffer was created, merged or not.
    pub fn accepted(&self) -> u64 {
        self.lock().accepted
    }

    /// Points rejected for falling outside the grid.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Age of the oldest pending point, `None` when nothing is pending.
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

    /// Row-major per-cell `(count, positive)` sums of the pending
    /// points — the drift detector's input, shaped for
    /// `CellStats::with_deltas`.
    pub fn cell_deltas(&self) -> (Vec<f64>, Vec<f64>) {
        self.lock().pending.clone()
    }

    /// What a maintenance pass trains on, taken under one lock: the
    /// per-cell sums of every accepted point, merged or pending, and the
    /// pending snapshot alone, to hand [`DeltaBuffer::mark_merged`] once
    /// a generation trained on them has published.
    pub fn pass_counts(&self) -> [(Vec<f64>, Vec<f64>); 2] {
        let counts = self.lock();
        [counts.all.clone(), counts.pending.clone()]
    }

    /// Moves `snapshot`, the pending part of [`DeltaBuffer::pass_counts`]
    /// since the last call, from pending to merged. Points accepted
    /// after the snapshot stay pending.
    pub fn mark_merged(&self, snapshot: &(Vec<f64>, Vec<f64>)) {
        let (n, p) = &mut self.lock().pending;
        let moves = n.iter_mut().zip(&snapshot.0);
        for (sum, moved) in moves.chain(p.iter_mut().zip(&snapshot.1)) {
            *sum -= moved;
        }
        let moved = snapshot.0.iter().sum::<f64>() as u64;
        let left = self.pending.load(Ordering::Acquire) - moved;
        self.pending.store(left, Ordering::Release);
        let oldest = if left == 0 { 0 } else { self.stamp() };
        self.oldest.store(oldest, Ordering::Release);
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
    fn cell_deltas_track_counts_and_labels() {
        let b = buffer();
        // Three points in the same cell (0.1, 0.1), two of them positive.
        b.accept(0.05, 0.05, 7, true).unwrap();
        b.accept(0.1, 0.1, 7, false).unwrap();
        b.accept(0.15, 0.2, 3, true).unwrap();
        let cell = b.grid().locate(&Point { x: 0.1, y: 0.1 }).unwrap();
        let (counts, labels) = b.cell_deltas();
        assert_eq!(counts[cell], 3.0);
        assert_eq!(labels[cell], 2.0);
        assert_eq!(counts.iter().sum::<f64>(), 3.0);
        assert_eq!(labels.iter().sum::<f64>(), 2.0);
    }

    #[test]
    fn marking_a_snapshot_merged_keeps_racing_accepts_pending() {
        let b = buffer();
        for i in 0..20 {
            let t = i as f64 / 20.0;
            b.accept(t, 1.0 - t - 1e-9, i % 3, i % 2 == 0).unwrap();
        }
        let [total, snapshot] = b.pass_counts();
        assert_eq!(total, snapshot, "nothing is merged yet");
        assert_eq!(snapshot.0.iter().sum::<f64>(), 20.0);
        assert_eq!(snapshot.1.iter().sum::<f64>(), 10.0);
        // Two accepts race the pass that trains on `total`.
        assert_eq!(b.accept(0.6, 0.6, 0, true), Some(20));
        assert_eq!(b.accept(0.7, 0.2, 1, false), Some(21));
        b.mark_merged(&snapshot);
        // The racing accepts stay pending, and count once.
        assert_eq!(b.occupancy(), 2);
        assert!(b.oldest_age().is_some());
        let (counts, labels) = b.cell_deltas();
        assert_eq!(counts.iter().sum::<f64>(), 2.0);
        assert_eq!(labels.iter().sum::<f64>(), 1.0);
        assert_eq!(b.accepted(), 22);
        // The next pass trains on every point and moves only the two.
        let [total, snapshot] = b.pass_counts();
        assert_eq!(total.0.iter().sum::<f64>(), 22.0);
        assert_eq!(total.1.iter().sum::<f64>(), 11.0);
        assert_eq!(snapshot, (counts, labels));
        b.mark_merged(&snapshot);
        assert_eq!(b.occupancy(), 0);
        assert_eq!(b.oldest_age(), None);
        assert!(b.cell_deltas().0.iter().all(|&c| c == 0.0));
        assert_eq!(b.pass_counts()[0], total);
        // Accept indices keep climbing across merges.
        assert_eq!(b.accept(0.5, 0.5, 0, true), Some(22));
    }

    #[test]
    fn concurrent_accepts_never_lose_points() {
        let b = buffer();
        let mut indices: Vec<u64> = std::thread::scope(|scope| {
            let writers: Vec<_> = (0..4)
                .map(|t| {
                    let b = &b;
                    scope.spawn(move || {
                        (0..250)
                            .map(|i| {
                                let x = (t as f64 * 250.0 + i as f64) / 1000.0;
                                b.accept(x, 0.5, t, i % 2 == 0).unwrap()
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            // Passes race the writers.
            for _ in 0..50 {
                let [_, snapshot] = b.pass_counts();
                b.mark_merged(&snapshot);
            }
            writers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        indices.sort_unstable();
        assert!(
            indices.iter().enumerate().all(|(i, &seq)| seq == i as u64),
            "accept indices must be unique and dense"
        );
        let [total, snapshot] = b.pass_counts();
        assert_eq!(total.0.iter().sum::<f64>(), 1000.0);
        assert_eq!(total.1.iter().sum::<f64>(), 500.0);
        assert_eq!(b.occupancy() as f64, snapshot.0.iter().sum::<f64>());
        b.mark_merged(&snapshot);
        assert_eq!(b.occupancy(), 0);
        assert!(b.cell_deltas().0.iter().all(|&c| c == 0.0));
        assert_eq!(b.pass_counts()[0], total);
    }
}
