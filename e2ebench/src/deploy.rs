//! The deployment under test: the paper's setting behind the `fsi` HTTP
//! transport, built through the public API exactly as an application
//! would build it.

use crate::Res;
use fsi::{
    BackendSpec, FrozenIndex, HttpServer, MaintenanceHandle, MaintenanceSpec, Method, ModelKind,
    Pipeline, PipelineSpec, ResiliencePolicy, SpatialDataset, TaskSpec, Topology, TopologySpec,
};
use std::sync::Arc;
use std::time::Instant;

/// Fair KD-tree height: up to 2^10 neighborhoods.
const HEIGHT: usize = 10;
/// HTTP worker threads, which is also the number of keep-alive
/// connections served at once.
const WORKERS: usize = 2;

/// Which serving plane a workload deploys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    /// Read-only 2×2 topology whose every slot is
    /// `{"replicas":["local","local"]}` under the default policy.
    Replicated,
    /// Plain 2×2 local topology with streaming ingestion and a
    /// background maintenance thread.
    Ingesting,
}

/// The maintenance policy of the ingesting plane: drift only, tripped by
/// one 64-point burst, polled every 5 ms.
pub fn maintenance_policy() -> MaintenanceSpec {
    MaintenanceSpec {
        drift_threshold: 0.1,
        max_buffered: 0,
        max_staleness_ms: 0,
        poll_interval_ms: 5,
    }
}

/// The replicated plane's topology.
pub fn replicated_topology() -> TopologySpec {
    TopologySpec {
        rows: 2,
        cols: 2,
        shards: vec![BackendSpec::Replicas(vec![BackendSpec::Local, BackendSpec::Local]); 4],
    }
}

/// The paper's pipeline over `dataset`: ACT task, Fair KD-tree at height
/// 10, logistic regression, seed 7.
pub fn pipeline(dataset: &SpatialDataset) -> Pipeline<'_> {
    Pipeline::on(dataset)
        .task(TaskSpec::act())
        .method(Method::FairKd)
        .height(HEIGHT)
        .model(ModelKind::Logistic)
        .seed(7)
}

/// A listening deployment plus what the oracle needs to check it.
pub struct Deployment {
    pub server: HttpServer,
    maintenance: Option<MaintenanceHandle>,
    /// The served topology, for reading shard generations in process.
    pub topology: Arc<Topology>,
    /// The unsharded reference index (`Run::freeze`) of the seed run.
    pub reference: FrozenIndex,
    /// Held-out ENCE of the seed run.
    pub ence: f64,
    /// The seed dataset.
    pub dataset: SpatialDataset,
    /// The spec the server trained and retrains with.
    pub spec: PipelineSpec,
}

impl Deployment {
    /// Builds one deployment, returning it with its set-up time in
    /// seconds: dataset generation through a listening server.
    pub fn build(plane: Plane) -> Res<(Self, f64)> {
        let started = Instant::now();
        let dataset = fsi_data::synth::edgap::generate_los_angeles()?;
        let run = pipeline(&dataset).run()?;
        let (server, maintenance, topology, spec) = {
            let serving = match plane {
                Plane::Replicated => run.serve()?,
                Plane::Ingesting => run.serve_with_ingest(maintenance_policy())?,
            };
            let service = match plane {
                Plane::Replicated => serving
                    .service_over_with(&replicated_topology(), ResiliencePolicy::default())?,
                Plane::Ingesting => serving.service_over(&TopologySpec::local(2, 2))?,
            };
            let maintenance = match plane {
                Plane::Replicated => None,
                Plane::Ingesting => Some(serving.spawn_maintenance(&service)?),
            };
            let topology = Arc::clone(service.topology());
            let server = HttpServer::bind_with(service, "127.0.0.1:0", WORKERS)?;
            (server, maintenance, topology, serving.spec().clone())
        };
        let setup_s = started.elapsed().as_secs_f64();
        let reference = run.freeze()?;
        let ence = run.eval().test.ence;
        drop(run);
        let deployment = Self {
            server,
            maintenance,
            topology,
            reference,
            ence,
            dataset,
            spec,
        };
        Ok((deployment, setup_s))
    }

    /// The set-up time of one more deployment, which is then shut down.
    pub fn time_setup(plane: Plane) -> Res<f64> {
        let (deployment, secs) = Self::build(plane)?;
        deployment.shutdown();
        Ok(secs)
    }

    /// Stops background maintenance, then the server, joining every
    /// thread either started.
    pub fn shutdown(self) {
        if let Some(maintenance) = self.maintenance {
            maintenance.stop();
        }
        self.server.shutdown();
    }
}
