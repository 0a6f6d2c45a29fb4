//! Background drift-triggered index maintenance.
//!
//! [`MaintenanceHandle`] owns a thread that periodically asks an
//! ingest-enabled [`QueryService`] to
//! [`maintain`](crate::QueryService::maintain) itself: measure drift of
//! the pending per-cell ingest counts, and when the [`MaintenanceSpec`]
//! policy trips, merge a snapshot of them into the training set,
//! retrain, and republish through the same two-phase rebuild barrier
//! manual rebuilds use. Readers keep answering from the previous
//! generation throughout.
//!
//! A failed pass is logged into the service's error telemetry by
//! `maintain` itself and retried on the next poll. It never touched the
//! counts: its points stay pending and count once.

use crate::error::ServeError;
use crate::service::QueryService;
use fsi_ingest::MaintenanceSpec;
use fsi_pipeline::PipelineSpec;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the maintenance thread sleeps between shutdown-flag checks
/// while waiting out a poll interval. Keeps `stop` latency bounded even
/// under multi-second poll intervals.
const SHUTDOWN_SLICE: Duration = Duration::from_millis(25);

/// A handle to a background maintenance thread.
///
/// Spawned over a clone of an ingest-enabled service (clones share the
/// ingest counts and the index handles with the original, so a
/// rebuild published here is visible to every other clone). Dropping the
/// handle stops the thread; [`stop`](MaintenanceHandle::stop) does the
/// same and reports how many rebuilds the thread published.
#[derive(Debug)]
pub struct MaintenanceHandle {
    stop: Arc<AtomicBool>,
    rebuilds: Arc<AtomicU64>,
    thread: Option<JoinHandle<()>>,
}

impl MaintenanceHandle {
    /// Spawns the maintenance loop over `service`.
    ///
    /// Validates `policy` and requires the service to have been built
    /// [`with_ingest`](crate::QueryService::with_ingest); each pass
    /// retrains with `spec` when the policy trips.
    ///
    /// # Errors
    ///
    /// [`ServeError::Ingest`] when the policy is invalid and
    /// [`ServeError::IngestUnavailable`] when the service has no
    /// streaming-ingestion state to maintain.
    pub fn spawn(
        mut service: QueryService,
        policy: MaintenanceSpec,
        spec: PipelineSpec,
    ) -> Result<Self, ServeError> {
        policy.validate()?;
        if !service.ingest_enabled() {
            return Err(ServeError::IngestUnavailable);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let rebuilds = Arc::new(AtomicU64::new(0));
        let stop_flag = Arc::clone(&stop);
        let rebuilt = Arc::clone(&rebuilds);
        let thread = std::thread::Builder::new()
            .name("fsi-maintenance".into())
            .spawn(move || {
                while !stop_flag.load(Ordering::Acquire) {
                    // A failed pass already landed in the service's
                    // error telemetry and left its points pending; the
                    // next poll retries it.
                    if let Ok(Some(_)) = service.maintain(&policy, &spec) {
                        rebuilt.fetch_add(1, Ordering::Relaxed);
                    }
                    let mut remaining = policy.poll_interval();
                    while !remaining.is_zero() && !stop_flag.load(Ordering::Acquire) {
                        let slice = remaining.min(SHUTDOWN_SLICE);
                        std::thread::sleep(slice);
                        remaining = remaining.saturating_sub(slice);
                    }
                }
            })
            .expect("spawning the maintenance thread failed");
        Ok(MaintenanceHandle {
            stop,
            rebuilds,
            thread: Some(thread),
        })
    }

    /// Number of maintenance rebuilds published so far.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds.load(Ordering::Relaxed)
    }

    /// Stops the thread and returns how many rebuilds it published.
    pub fn stop(mut self) -> u64 {
        self.join();
        self.rebuilds.load(Ordering::Relaxed)
    }

    fn join(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            // A panicked maintenance thread already printed its message;
            // there is nothing more to surface here.
            let _ = thread.join();
        }
    }
}

impl Drop for MaintenanceHandle {
    fn drop(&mut self) {
        self.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_data::synth::city::{CityConfig, CityGenerator};
    use fsi_pipeline::{Method, TaskSpec};
    use fsi_proto::{Request, Response};
    use std::sync::Arc;

    fn dataset() -> fsi_data::SpatialDataset {
        CityGenerator::new(CityConfig {
            n_individuals: 200,
            grid_side: 8,
            seed: 5,
            ..Default::default()
        })
        .unwrap()
        .generate()
        .unwrap()
    }

    fn spec() -> PipelineSpec {
        PipelineSpec::new(TaskSpec::act(), Method::FairKd, 3)
    }

    fn ingest_service() -> QueryService {
        let dataset = Arc::new(dataset());
        let (index, _run) = crate::build_index(&dataset, &spec()).unwrap();
        QueryService::new(crate::Topology::single(crate::IndexHandle::new(index)))
            .with_rebuild(Arc::clone(&dataset))
            .with_ingest(TaskSpec::act())
            .unwrap()
    }

    #[test]
    fn spawn_requires_ingest() {
        let dataset = dataset();
        let (index, _run) = crate::build_index(&dataset, &spec()).unwrap();
        let service = QueryService::new(crate::Topology::single(crate::IndexHandle::new(index)));
        let err = MaintenanceHandle::spawn(service, MaintenanceSpec::default(), spec());
        assert!(matches!(err, Err(ServeError::IngestUnavailable)));
    }

    #[test]
    fn spawn_validates_policy() {
        let policy = MaintenanceSpec {
            drift_threshold: -1.0,
            ..Default::default()
        };
        let err = MaintenanceHandle::spawn(ingest_service(), policy, spec());
        assert!(matches!(err, Err(ServeError::Ingest(_))));
    }

    #[test]
    fn background_thread_publishes_when_occupancy_trips() {
        let mut front = ingest_service();
        let policy = MaintenanceSpec {
            drift_threshold: 1e18,
            max_buffered: 4,
            max_staleness_ms: 0,
            poll_interval_ms: 5,
        };
        let before = match front.dispatch(&Request::Stats) {
            Response::Stats { stats } => stats.generations.iter().copied().max().unwrap_or(0),
            other => panic!("unexpected response: {other:?}"),
        };
        let handle = MaintenanceHandle::spawn(front.clone(), policy, spec()).unwrap();
        for i in 0..8u32 {
            let response = front.dispatch(&Request::Ingest {
                x: 0.1 + 0.09 * f64::from(i),
                y: 0.4,
                group: i % 2,
                label: i % 3 == 0,
            });
            assert!(matches!(response, Response::Ingested { .. }));
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while handle.rebuilds() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let published = handle.stop();
        assert!(published >= 1, "maintenance thread never published");
        let after = match front.dispatch(&Request::Stats) {
            Response::Stats { stats } => stats.generations.iter().copied().max().unwrap_or(0),
            other => panic!("unexpected response: {other:?}"),
        };
        assert!(after > before, "generation did not advance: {after}");
    }

    #[test]
    fn idle_thread_stops_promptly() {
        let policy = MaintenanceSpec {
            poll_interval_ms: 60_000,
            ..Default::default()
        };
        let handle = MaintenanceHandle::spawn(ingest_service(), policy, spec()).unwrap();
        let started = std::time::Instant::now();
        assert_eq!(handle.stop(), 0);
        assert!(started.elapsed() < Duration::from_secs(5));
    }
}
