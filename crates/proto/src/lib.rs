//! # fsi-proto — the typed query protocol of the serving layer
//!
//! Every serving transport — the in-process [`QueryService`], the text
//! REPL, the HTTP listener, and whatever comes next (gRPC, multi-machine
//! shard fan-out) — speaks the one request/response vocabulary defined
//! here, instead of each transport parsing and formatting its own
//! stringly-typed queries.
//!
//! * [`Request`] — what a client can ask: point lookups
//!   ([`Request::Lookup`]), batched lookups ([`Request::LookupBatch`]),
//!   map-space range queries ([`Request::RangeQuery`]), service
//!   statistics ([`Request::Stats`]) and spec-driven index rebuilds
//!   ([`Request::Rebuild`]).
//! * [`Response`] — what the service answers, including the structured
//!   [`ErrorBody`] every failure is reported through.
//! * [`RequestEnvelope`] / [`ResponseEnvelope`] — the versioned wire
//!   frames. [`decode_request`] validates the version *and* the payload
//!   (finite coordinates, ordered rectangles, well-formed specs) before
//!   a request ever reaches a service, so transports never dispatch
//!   garbage.
//!
//! The wire format is externally-tagged JSON (serde's default), e.g.:
//!
//! ```text
//! {"v":1,"body":{"Lookup":{"x":0.31,"y":0.72}}}
//! {"v":1,"body":{"Decision":{"decision":{"leaf_id":14,"group":14,
//!   "raw_score":0.6180339887498949,"calibrated_score":0.6456389}}}}
//! ```
//!
//! Floating-point fields use shortest-round-trip formatting, so a
//! decision that crosses the wire compares **bit-identical** to one
//! produced in-process — the differential transport tests depend on it.
//!
//! [`QueryService`]: https://docs.rs/fsi-serve

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod message;
pub mod wire;

pub use error::ProtoError;
pub use message::{
    decode_request, decode_response, encode_request, encode_response, Request, RequestEnvelope,
    Response, ResponseEnvelope, PROTO_VERSION,
};
pub use wire::{
    CacheStatsBody, DecisionBody, ErrorBody, ErrorCode, ErrorCountBody, HealthBody, HttpObsBody,
    IngestBody, IngestObsBody, MetricsBody, ModelBody, PreparedBody, RebuildObsBody, RebuildReport,
    ReplicaHealthBody, RequestKindMetrics, ShardHealthBody, ShardObsBody, ShardStatsBody,
    StatsBody, WirePoint, WireRect,
};
