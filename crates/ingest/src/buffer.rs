//! The coordinator's ingest log behind `Request::Ingest`.
//!
//! Accepted points are appended, under one mutex, to a single
//! accept-ordered log in which a record's position is its sequence
//! number. A merged mark splits the log into the prefix the published
//! generation was trained on and the records still pending past it.
//! Dense per-cell count and label sums of the pending records are
//! kept at accept time, so the drift detector's input is a plain copy.
//! Pending occupancy and the rejected tally are atomics, so an ingest
//! acknowledgement and the policy's occupancy check never take the
//! lock.

use crate::record::IngestRecord;
use fsi_geo::{Grid, Point};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

struct Log {
    /// Every accepted record, in accept order: `records[i].seq == i`.
    records: Vec<IngestRecord>,
    /// Records before this position are merged into the published
    /// generation; the rest are pending.
    merged: usize,
    /// Row-major per-cell count of the pending records.
    counts: Vec<f64>,
    /// Row-major per-cell positive-label count of the pending records.
    labels: Vec<f64>,
}

/// The accept-ordered log of ingested points, with a merged mark and
/// live per-cell deltas of the records past it.
pub struct DeltaBuffer {
    grid: Grid,
    log: Mutex<Log>,
    /// Records past the merged mark; written only under the log lock.
    pending: AtomicU64,
    rejected: AtomicU64,
    epoch: Instant,
    /// Nanos-since-epoch **plus one** of the oldest pending accept;
    /// zero means nothing is pending. Records still pending after a
    /// merge are restamped then, so their age may be under-reported by
    /// up to one maintenance pass.
    oldest: AtomicU64,
}

impl DeltaBuffer {
    /// An empty log over `grid` — the grid decides which points are in
    /// bounds and which cell a point's deltas land in.
    pub fn new(grid: Grid) -> Self {
        let cells = grid.len();
        Self {
            grid,
            log: Mutex::new(Log {
                records: Vec::new(),
                merged: 0,
                counts: vec![0.0; cells],
                labels: vec![0.0; cells],
            }),
            pending: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            epoch: Instant::now(),
            oldest: AtomicU64::new(0),
        }
    }

    /// The grid the log validates and bins points against.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    fn lock(&self) -> MutexGuard<'_, Log> {
        self.log.lock().expect("ingest log lock poisoned")
    }

    fn stamp(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u64::MAX as u128 - 1) as u64 + 1
    }

    /// Appends one observed point, returning its accept-order sequence
    /// number (its position in the log), or `None` (and a bumped
    /// rejected tally) when the point falls outside the grid.
    pub fn accept(&self, x: f64, y: f64, group: u32, label: bool) -> Option<u64> {
        let Ok(cell) = self.grid.locate(&Point { x, y }) else {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let mut log = self.lock();
        let seq = log.records.len() as u64;
        log.records.push(IngestRecord {
            seq,
            x,
            y,
            group,
            label,
        });
        log.counts[cell] += 1.0;
        log.labels[cell] += f64::from(u8::from(label));
        if self.pending.fetch_add(1, Ordering::AcqRel) == 0 {
            self.oldest.store(self.stamp(), Ordering::Release);
        }
        Some(seq)
    }

    /// Points accepted but not yet merged.
    pub fn occupancy(&self) -> u64 {
        self.pending.load(Ordering::Acquire)
    }

    /// `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.occupancy() == 0
    }

    /// Points accepted since the log was created, merged or not.
    pub fn accepted(&self) -> u64 {
        self.lock().records.len() as u64
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

    /// Row-major per-cell `(count, label)` deltas of the pending
    /// records — the drift detector's input, shaped for
    /// `CellStats::with_deltas`.
    pub fn cell_deltas(&self) -> (Vec<f64>, Vec<f64>) {
        let log = self.lock();
        (log.counts.clone(), log.labels.clone())
    }

    /// A copy of the whole log, merged and pending, in accept order.
    /// Its length is the prefix to hand [`DeltaBuffer::mark_merged`]
    /// once a generation trained on it has published.
    pub fn log(&self) -> Vec<IngestRecord> {
        self.lock().records.clone()
    }

    /// Marks the first `len` records merged and returns the per-cell
    /// `(count, label)` deltas of the ones that were pending until now —
    /// what the published baseline advances by. Records past `len` stay
    /// pending; a `len` at or before the mark changes nothing.
    pub fn mark_merged(&self, len: usize) -> (Vec<f64>, Vec<f64>) {
        let mut counts = vec![0.0; self.grid.len()];
        let mut labels = vec![0.0; self.grid.len()];
        let mut log = self.lock();
        let log = &mut *log;
        let end = len.min(log.records.len());
        let start = log.merged.min(end);
        for r in &log.records[start..end] {
            if let Ok(cell) = self.grid.locate(&Point { x: r.x, y: r.y }) {
                let label = f64::from(u8::from(r.label));
                counts[cell] += 1.0;
                labels[cell] += label;
                log.counts[cell] -= 1.0;
                log.labels[cell] -= label;
            }
        }
        log.merged = log.merged.max(end);
        let left = self.pending.load(Ordering::Acquire) - (end - start) as u64;
        self.pending.store(left, Ordering::Release);
        let oldest = if left == 0 { 0 } else { self.stamp() };
        self.oldest.store(oldest, Ordering::Release);
        (counts, labels)
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
    fn marking_a_prefix_merged_returns_its_deltas_and_keeps_the_rest() {
        let b = buffer();
        for i in 0..20 {
            let t = i as f64 / 20.0;
            b.accept(t, 1.0 - t - 1e-9, i % 3, i % 2 == 0).unwrap();
        }
        let log = b.log();
        assert_eq!(log.len(), 20);
        assert!(log.iter().enumerate().all(|(i, r)| r.seq == i as u64));
        // Two accepts race the pass that trains on `log`.
        assert_eq!(b.accept(0.6, 0.6, 0, true), Some(20));
        assert_eq!(b.accept(0.7, 0.2, 1, false), Some(21));
        let (counts, labels) = b.mark_merged(log.len());
        assert_eq!(counts.iter().sum::<f64>(), 20.0);
        assert_eq!(labels.iter().sum::<f64>(), 10.0);
        // The racing accepts stay pending, in place.
        assert_eq!(b.occupancy(), 2);
        assert!(b.oldest_age().is_some());
        let (counts, labels) = b.cell_deltas();
        assert_eq!(counts.iter().sum::<f64>(), 2.0);
        assert_eq!(labels.iter().sum::<f64>(), 1.0);
        assert_eq!(b.accepted(), 22);
        // Re-marking the same prefix changes nothing.
        assert!(b.mark_merged(20).0.iter().all(|&c| c == 0.0));
        assert_eq!(b.occupancy(), 2);
        b.mark_merged(22);
        assert_eq!(b.occupancy(), 0);
        assert_eq!(b.oldest_age(), None);
        assert!(b.cell_deltas().0.iter().all(|&c| c == 0.0));
        // Sequence numbers keep climbing across merges.
        assert_eq!(b.accept(0.5, 0.5, 0, true), Some(22));
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
        let log = b.log();
        assert_eq!(log.len(), 1000);
        assert!(
            log.iter().enumerate().all(|(i, r)| r.seq == i as u64),
            "positions must be unique and dense"
        );
        b.mark_merged(log.len());
        assert_eq!(b.occupancy(), 0);
        let (counts, _) = b.cell_deltas();
        assert!(counts.iter().all(|&c| c == 0.0));
    }
}
