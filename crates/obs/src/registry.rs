//! The per-worker shard registry behind every always-on recorder.
//!
//! Cloning a [`Recorder`] registers a fresh metrics shard built by the
//! registry's factory, each worker records into its own shard with
//! uncontended atomics, and a scrape folds every shard (including
//! those of workers that have since exited — counters are cumulative,
//! so retired shards must keep counting).

use std::sync::{Arc, Mutex};

/// A factory-backed collection of per-worker metrics shards.
pub struct Registry<T> {
    make: Box<dyn Fn() -> T + Send + Sync>,
    shards: Mutex<Vec<Arc<T>>>,
}

impl<T> std::fmt::Debug for Registry<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("shards", &self.shard_count())
            .finish_non_exhaustive()
    }
}

impl<T> Registry<T> {
    /// Number of shards registered so far (one per live-or-retired
    /// recorder clone).
    pub fn shard_count(&self) -> usize {
        self.shards.lock().expect("obs registry lock").len()
    }
}

impl<T: Send + Sync + 'static> Registry<T> {
    /// Creates a registry whose shards are built by `make`.
    pub fn new(make: impl Fn() -> T + Send + Sync + 'static) -> Arc<Self> {
        Arc::new(Self {
            make: Box::new(make),
            shards: Mutex::new(Vec::new()),
        })
    }

    /// Builds and registers a fresh shard, returning the recorder
    /// handle that writes to it.
    pub fn recorder(self: &Arc<Self>) -> Recorder<T> {
        let shard = Arc::new((self.make)());
        self.shards
            .lock()
            .expect("obs registry lock")
            .push(Arc::clone(&shard));
        Recorder {
            registry: Arc::clone(self),
            shard,
        }
    }

    /// Folds every shard into an accumulator — the scrape primitive.
    pub fn fold<A>(&self, init: A, mut f: impl FnMut(A, &T) -> A) -> A {
        let shards = self.shards.lock().expect("obs registry lock");
        shards.iter().fold(init, |acc, s| f(acc, s))
    }
}

/// A cheap always-on handle recording into its own registry shard.
///
/// `Deref`s to the shard, so `recorder.requests.inc()` reads like a
/// direct metrics call. `Clone` registers a *new* shard — hand one
/// recorder to each worker clone.
pub struct Recorder<T> {
    registry: Arc<Registry<T>>,
    shard: Arc<T>,
}

impl<T> std::fmt::Debug for Recorder<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("registry", &self.registry.shard_count())
            .finish_non_exhaustive()
    }
}

impl<T: Send + Sync + 'static> Recorder<T> {
    /// The shared registry this recorder's shard lives in — scrape
    /// through [`Registry::fold`].
    pub fn registry(&self) -> &Arc<Registry<T>> {
        &self.registry
    }
}

impl<T> std::ops::Deref for Recorder<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.shard
    }
}

impl<T: Send + Sync + 'static> Clone for Recorder<T> {
    /// Registers a fresh shard for the clone (per-worker placement).
    fn clone(&self) -> Self {
        self.registry.recorder()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Counter;

    #[test]
    fn clones_get_their_own_shards_and_scrapes_fold_all_of_them() {
        let registry = Registry::new(Counter::new);
        let a = registry.recorder();
        let b = a.clone();
        assert_eq!(registry.shard_count(), 2);
        a.inc();
        b.add(2);
        let total = registry.fold(0, |acc, c| acc + c.get());
        assert_eq!(total, 3);
    }

    #[test]
    fn dropped_recorders_keep_their_counts() {
        let registry = Registry::new(Counter::new);
        {
            let r = registry.recorder();
            r.add(7);
        }
        let total = registry.fold(0, |acc, c| acc + c.get());
        assert_eq!(total, 7, "retired worker shards still scrape");
    }

    #[test]
    fn factory_runs_per_shard() {
        let registry = Registry::new(Counter::new);
        let _a = registry.recorder();
        let _b = registry.recorder();
        let _c = _b.clone();
        assert_eq!(registry.shard_count(), 3);
    }
}
