//! # fsi — the fair spatial indexing facade
//!
//! One fluent, validated API for the whole lifecycle the paper describes
//! — dataset → fair index → calibrated decisions → served index:
//!
//! ```text
//! Pipeline::on(&dataset)        // fsi-data
//!     .task(TaskSpec::act())    // what to predict
//!     .method(Method::FairKd)   // how to partition (Algorithm 1)
//!     .height(10)               // region budget 2^h
//!     .model(ModelKind::Logistic)
//!     .seed(7)
//!     .run()?                   // validate, build, train, evaluate
//!     .serve()?                 // freeze + hot-swappable handle
//! ```
//!
//! [`Pipeline::run`] yields a [`Run`]: its [`Run::eval`] carries the
//! fairness metrics (ENCE et al.), [`Run::partition`] the generated
//! neighborhoods, [`Run::freeze`] compiles the immutable serving index,
//! [`Run::serve`] wires it into a lock-free [`IndexHandle`] that
//! [`Serving::rebuild`] republishes into, and [`Run::save_report`]
//! persists the whole cell as one JSON value. [`MultiPipeline`] is the multi-objective counterpart
//! (one districting, several tasks). Everything returns the single
//! [`FsiError`] type.
//!
//! Online queries speak the **typed protocol** (`fsi-proto`): every
//! transport decodes to a [`Request`], dispatches through a
//! [`QueryService`], and encodes the [`Response`]. A service fronts a
//! [`Topology`] of shard backends — in-process partial indexes or
//! remote `http://host:port` shard servers, described by a validated
//! [`TopologySpec`] and built with [`Serving::service_over`].
//! [`Serving::listen`] attaches the built-in HTTP/1.1 JSON transport
//! ([`http`]); [`repl`] is the line-oriented text transport behind
//! `redistricting_cli serve`. All transports are differentially tested
//! to answer bit-identically.
//!
//! Under the hood each stage lives in a focused crate (`fsi-geo`,
//! `fsi-core`, `fsi-ml`, `fsi-data`, `fsi-fairness`, `fsi-pipeline`,
//! `fsi-serve`); this crate re-exports the types an application needs so
//! most callers depend on `fsi` alone. A builder chain is just sugar
//! over a serde-round-trippable [`PipelineSpec`], so a whole experiment
//! cell can be stored, diffed and replayed as one JSON object
//! ([`Pipeline::from_spec`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod http;
pub mod multi;
pub mod pipeline;
pub mod repl;

pub use error::FsiError;
pub use http::{scrape_metrics, HttpClient, HttpServer, RemoteShard, ResilientConnector};
pub use multi::{MultiPipeline, MultiRun};
pub use pipeline::{Pipeline, Run, RunReport, Serving};

// The vocabulary types of the builder surface, re-exported so callers
// need only this crate.
pub use fsi_core::TieBreak;
pub use fsi_data::{LocationEncoding, SpatialDataset};
pub use fsi_geo::{Partition, Point, Rect};
pub use fsi_pipeline::{
    snapshot_for_partition, EvalReport, Method, MethodRun, ModelKind, ModelSnapshot,
    MultiObjectiveRun, MultiObjectiveSpec, PartitionModel, PipelineSpec, RunConfig, TaskSpec,
};
pub use fsi_proto::{
    decode_request, decode_response, encode_request, encode_response, CacheStatsBody, DecisionBody,
    ErrorBody, ErrorCode, HealthBody, HttpObsBody, IngestBody, IngestObsBody, MetricsBody,
    ModelBody, PreparedBody, ProtoError, RebuildObsBody, ReplicaHealthBody, Request,
    RequestKindMetrics, Response, ShardHealthBody, ShardObsBody, ShardStatsBody, StatsBody,
    WirePoint, WireRect, PROTO_VERSION,
};
pub use fsi_resil::{
    ChaosShard, ChaosSwitch, CircuitBreaker, ReplicaSet, ResilError, ResiliencePolicy,
};
pub use fsi_serve::{
    prometheus_text, BackendSpec, Decision, FrozenIndex, IndexHandle, IndexReader, IngestError,
    LocalShard, MaintenanceHandle, MaintenanceSpec, MaintenanceTrigger, QueryService,
    RebuildReport, ShardBackend, ShardDescriptor, SlotConnector, SlowQueryRecord, SlowQuerySink,
    Topology, TopologySpec, TransportStats,
};
