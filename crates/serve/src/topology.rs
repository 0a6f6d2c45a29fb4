//! The shard topology: a `rows × cols` spatial partition of the served
//! map where each shard is *any* [`ShardBackend`] — an in-process
//! [`LocalShard`] over an [`IndexHandle`], or a remote process speaking
//! the `fsi-proto` protocol over a transport-owned client.
//!
//! This is the seam that takes serving from "one box of replicas" to a
//! scatter-gather coordinator over partial indexes:
//!
//! * [`Topology`] owns the routing geometry (the same closed-bounds
//!   floor-and-clamp semantics as `Grid::cell_of`) plus one boxed
//!   backend per shard.
//! * [`TopologySpec`] is the validated, serde-round-trippable
//!   description — `rows × cols` and one [`BackendSpec`] per shard
//!   (`"local"` or `"http://host:port"`) — that configuration files and
//!   CLIs build topologies from.
//! * [`Topology::partitioned`] compiles a **partial index** per local
//!   shard ([`crate::FrozenIndex::compile_clipped`]), so per-shard heap
//!   scales *down* with shard count instead of replicating.
//!
//! Remote backends cannot be constructed here (HTTP lives above this
//! crate in the dependency graph); [`Topology::from_spec`] takes a
//! connector closure, and the `fsi` facade supplies one that dials its
//! keep-alive HTTP client.

use crate::error::ServeError;
use crate::frozen::FrozenIndex;
use crate::handle::{IndexHandle, IndexReader};
use fsi_geo::{Point, Rect};
use fsi_proto::{
    ErrorCode, HealthBody, MetricsBody, PreparedBody, Request, Response, ShardHealthBody,
    StatsBody, WirePoint, WireRect,
};
use serde::{Deserialize, Serialize};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Transport-level counters a remote backend accumulates below the
/// protocol — the raw feed the metrics scrape folds into
/// [`fsi_proto::ShardObsBody`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Re-dial attempts since the backend was constructed.
    pub reconnects: u64,
    /// Requests that hit a transport-level failure (including ones a
    /// reconnect then recovered).
    pub failures: u64,
}

/// What one shard slot is backed by, for stats and diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardDescriptor {
    /// Backend kind: `"local"` or `"http"`.
    pub kind: &'static str,
    /// Remote address (`host:port`) when the shard lives behind a
    /// socket; `None` for in-process shards.
    pub addr: Option<String>,
}

/// One shard of a serving topology, local or remote.
///
/// The contract mirrors [`crate::QueryService::dispatch`]: `dispatch`
/// never fails at the Rust level — transport and serving failures come
/// back as [`Response::Error`] — so a coordinator can treat every shard
/// uniformly.
pub trait ShardBackend: Send + Sync {
    /// Answers one protocol request against this shard.
    fn dispatch(&self, request: &Request) -> Response;

    /// Kind and address, for per-shard stats reporting.
    fn descriptor(&self) -> ShardDescriptor;

    /// The generation of the index this shard currently serves. Remote
    /// implementations may need a round-trip; `0` means unreachable.
    fn generation(&self) -> u64;

    /// Phase one of the two-phase rebuild barrier: make `index` (the
    /// coordinator's freshly trained global index) the staged, not yet
    /// served, state of this slot. The default forwards `request` (the
    /// coordinator's [`Request::RebuildStage`], carrying the model
    /// `index` was compiled from) so a remote shard compiles and stages
    /// the same index without training; in-process backends stage
    /// `index` directly instead. A success answers
    /// [`Response::Prepared`]; the commit and abort that follow are plain
    /// [`ShardBackend::dispatch`] calls.
    fn prepare(&self, index: &FrozenIndex, request: &Request) -> Response {
        let _ = index;
        self.dispatch(request)
    }

    /// Downcast hook for coordinators: a [`LocalShard`] exposes itself
    /// so a coordinator can read its handle directly. Only `LocalShard`
    /// answers `Some`; wrappers never forward it, because a read that
    /// went past a wrapper would skip whatever the wrapper adds.
    fn as_local(&self) -> Option<&LocalShard> {
        None
    }

    /// The live generation when it can be read in-process, without a
    /// round-trip: a local shard's handle (the default, through
    /// [`ShardBackend::as_local`]), or the newest in-process member of a
    /// replica set. `None` for backends only reachable remotely.
    fn in_process_generation(&self) -> Option<u64> {
        self.as_local().map(|local| local.handle().generation())
    }

    /// Transport-level telemetry for the metrics scrape; `None` for
    /// backends with no transport underneath (in-process shards).
    fn transport_stats(&self) -> Option<TransportStats> {
        None
    }

    /// Health of this slot for the coordinator's [`HealthBody`]: breaker
    /// states and per-replica counters. `None` means the backend has no
    /// resilience layer — the coordinator reports it as plainly `"up"`.
    /// The `shard` field is filled in by the coordinator (a backend does
    /// not know its slot index).
    fn health(&self) -> Option<ShardHealthBody> {
        None
    }
}

/// An in-process shard: an [`IndexHandle`] (optionally restricted to a
/// clip rectangle) plus the staging slot of the two-phase rebuild
/// protocol.
///
/// The staging slot lives here — inside the shared topology — rather
/// than in any service clone, because a coordinator's *prepare* and
/// *commit* may arrive on different transport workers: whichever clone
/// receives the commit must find the index its sibling staged.
pub struct LocalShard {
    handle: IndexHandle,
    /// When set, published indexes are clipped to this sub-rectangle
    /// ([`FrozenIndex::compile_clipped`]), keeping the shard partial.
    clip: Option<Rect>,
    /// Phase-one output of a two-phase rebuild, awaiting the commit.
    staged: Mutex<Option<FrozenIndex>>,
}

impl LocalShard {
    /// A full (unclipped) shard over `handle`, sharing hot-swaps with
    /// every other user of the handle.
    pub fn new(handle: IndexHandle) -> Self {
        Self {
            handle,
            clip: None,
            staged: Mutex::new(None),
        }
    }

    /// A partial shard: compiles the clip of `index` to `rect` and
    /// serves it; staged rebuilds are re-clipped to the same rectangle.
    pub fn clipped(index: &FrozenIndex, rect: Rect) -> Result<Self, ServeError> {
        let partial = index.compile_clipped(&rect)?;
        Ok(Self {
            handle: IndexHandle::new(partial),
            clip: Some(rect),
            staged: Mutex::new(None),
        })
    }

    /// The handle this shard serves from.
    pub fn handle(&self) -> &IndexHandle {
        &self.handle
    }

    /// A reader for this shard's live index.
    pub fn reader(&self) -> IndexReader {
        self.handle.reader()
    }

    /// Phase one of a two-phase rebuild: clip (when partial) and stage
    /// the freshly built global `index` without serving it. Returns the
    /// staged index's `(num_leaves, heap_bytes)`.
    fn stage(&self, index: &FrozenIndex) -> Result<(usize, usize), ServeError> {
        let staged = match &self.clip {
            Some(rect) => index.compile_clipped(rect)?,
            None => index.clone(),
        };
        let report = (staged.num_leaves(), staged.heap_bytes());
        *self.staged.lock().expect("staging lock poisoned") = Some(staged);
        Ok(report)
    }

    /// Phase two: publish the staged index (a pointer swap) and return
    /// the new generation. Fails with [`ServeError::NotStaged`] when no
    /// prepare preceded the commit.
    fn commit(&self) -> Result<u64, ServeError> {
        let staged = self
            .staged
            .lock()
            .expect("staging lock poisoned")
            .take()
            .ok_or(ServeError::NotStaged)?;
        let (generation, _old) = self.handle.publish(staged);
        Ok(generation)
    }

    /// Drops any staged index (a failed prepare fan-out aborts here so
    /// a later unrelated commit cannot publish it).
    fn abort(&self) {
        *self.staged.lock().expect("staging lock poisoned") = None;
    }

    /// A read-serving twin: shares the published-index handle (so
    /// hot-swaps stay visible and answers are bit-identical) but owns
    /// an empty staging slot of its own. The resilience layer keeps a
    /// twin per local replica to dispatch pure reads statically; the
    /// two-phase rebuild barrier must keep going to the original shard,
    /// whose staging slot is the real one.
    pub fn read_twin(&self) -> Self {
        Self {
            handle: self.handle.clone(),
            clip: self.clip,
            staged: Mutex::new(None),
        }
    }

    /// Answers `request` from `index`, serving at `generation`: the one
    /// place an in-process read is answered, error text included.
    /// [`ShardBackend::dispatch`] calls it with a snapshot and generation
    /// read under one lock, and a [`crate::QueryService`]'s local slots
    /// call it with their reader's snapshot, so every serving shape
    /// answers bit for bit alike. Writes and rebuilds are refused; the
    /// coordinator's commit and abort reach the staging slot through
    /// `dispatch`.
    pub(crate) fn read(index: &FrozenIndex, generation: u64, request: &Request) -> Response {
        match request {
            Request::Lookup { x, y } => match index.lookup(&Point::new(*x, *y)) {
                Some(d) => Response::Decision { decision: d.into() },
                None => Self::out_of_bounds(*x, *y),
            },
            Request::LookupBatch { points } => {
                let mut decisions = Vec::with_capacity(points.len());
                for (i, wp) in points.iter().enumerate() {
                    match index.lookup(&Point::new(wp.x, wp.y)) {
                        Some(d) => decisions.push(d.into()),
                        None => return Self::batch_out_of_bounds(i, wp),
                    }
                }
                Response::Decisions { decisions }
            }
            Request::RangeQuery { rect } => match Self::query_rect(rect) {
                Ok(query) => Response::Regions {
                    ids: index.range_query(&query),
                },
                Err(error) => error,
            },
            Request::Stats => Response::Stats {
                stats: Box::new(StatsBody {
                    shards: 1,
                    generations: vec![generation],
                    num_leaves: index.num_leaves(),
                    heap_bytes: index.heap_bytes(),
                    backend: index.backend_name().to_string(),
                    cache: None,
                    per_shard: None,
                    metrics: None,
                    health: None,
                }),
            },
            // A bare local shard has no resilience layer; it is up by
            // construction (the process answering is the shard).
            Request::Health => Response::Health {
                health: Box::new(HealthBody {
                    shards: vec![ShardHealthBody {
                        shard: 0,
                        kind: "local".into(),
                        addr: None,
                        state: "up".into(),
                        replicas: Vec::new(),
                    }],
                }),
            },
            // A bare local shard has no recorder of its own — its
            // telemetry is what the coordinating service records about
            // it — so the scrape answer is the all-zero snapshot.
            Request::Metrics => Response::Metrics {
                metrics: Box::new(MetricsBody::empty()),
            },
            Request::Rebuild { .. }
            | Request::RebuildPrepare { .. }
            | Request::RebuildStage { .. }
            | Request::RebuildCommit
            | Request::RebuildAbort
            | Request::Ingest { .. }
            | Request::IngestBatch { .. } => Response::error(
                ErrorCode::RebuildUnavailable,
                "local shard backends are written and rebuilt by their coordinator",
            ),
        }
    }

    /// The error a point lookup at `(x, y)` outside the served bounds
    /// answers.
    #[cold]
    pub(crate) fn out_of_bounds(x: f64, y: f64) -> Response {
        Response::error(
            ErrorCode::OutOfBounds,
            format!("point ({x}, {y}) is outside the served map bounds"),
        )
    }

    /// The error a batch answers for its out-of-bounds point `wp`, named
    /// by its position `index` within the batch.
    #[cold]
    pub(crate) fn batch_out_of_bounds(index: usize, wp: &WirePoint) -> Response {
        let error = ServeError::PointOutOfBounds {
            index,
            point: (wp.x, wp.y),
        };
        Response::error(ErrorCode::OutOfBounds, error.to_string())
    }

    /// The map rectangle a range query asks for, or the
    /// `malformed_request` error a degenerate one answers.
    pub(crate) fn query_rect(rect: &WireRect) -> Result<Rect, Response> {
        Rect::new(rect.min_x, rect.min_y, rect.max_x, rect.max_y)
            .map_err(|e| Response::error(ErrorCode::MalformedRequest, e.to_string()))
    }
}

impl ShardBackend for LocalShard {
    /// Commit and abort reach the staging slot; every other request is
    /// `LocalShard::read` over the live snapshot and its generation.
    #[inline]
    fn dispatch(&self, request: &Request) -> Response {
        match request {
            Request::RebuildCommit => match self.commit() {
                Ok(generation) => Response::Committed { generation },
                Err(e) => Response::error(ErrorCode::NotPrepared, e.to_string()),
            },
            Request::RebuildAbort => {
                self.abort();
                Response::Aborted
            }
            _ => {
                let (index, generation) = self.handle.load_with_generation();
                Self::read(&index, generation, request)
            }
        }
    }

    /// Stages `index` (re-clipped when partial). The staged footprint
    /// is reported; the training fields are the trainer's to fill in.
    fn prepare(&self, index: &FrozenIndex, _request: &Request) -> Response {
        match self.stage(index) {
            Ok((num_leaves, heap_bytes)) => Response::Prepared {
                prepared: Box::new(PreparedBody {
                    num_leaves,
                    heap_bytes,
                    ence: 0.0,
                    build_time: Duration::ZERO,
                }),
            },
            Err(e) => Response::error(ErrorCode::Internal, format!("staging failed: {e}")),
        }
    }

    fn descriptor(&self) -> ShardDescriptor {
        ShardDescriptor {
            kind: "local",
            addr: None,
        }
    }

    fn generation(&self) -> u64 {
        self.handle.generation()
    }

    fn as_local(&self) -> Option<&LocalShard> {
        Some(self)
    }
}

/// How one shard slot of a [`TopologySpec`] is backed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendSpec {
    /// Served in-process from a partial index.
    Local,
    /// Served by a remote shard process at `host:port`, speaking the
    /// `fsi-proto` protocol over HTTP.
    Http(String),
    /// Served by a failover replica set: every member serves the same
    /// clip rectangle and a resilience-aware connector (see
    /// [`SlotConnector::replica_set`]) arbitrates between them.
    Replicas(Vec<BackendSpec>),
}

impl BackendSpec {
    /// The spec's wire form: `"local"`, `"http://host:port"` or
    /// `{"replicas": [...]}`.
    pub fn as_wire(&self) -> String {
        match self {
            BackendSpec::Local => "local".to_string(),
            BackendSpec::Http(addr) => format!("http://{addr}"),
            BackendSpec::Replicas(members) => format!(
                "replicas[{}]",
                members
                    .iter()
                    .map(BackendSpec::as_wire)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        }
    }
}

impl Serialize for BackendSpec {
    fn serialize(&self, ser: &mut serde::Serializer) {
        match self {
            BackendSpec::Replicas(members) => {
                ser.begin_object();
                ser.field("replicas", members);
                ser.end_object();
            }
            other => ser.str(&other.as_wire()),
        }
    }
}

impl Deserialize for BackendSpec {
    fn deserialize(de: &mut serde::Deserializer<'_>) -> Result<Self, serde::Error> {
        let one_key = "backend spec object must have exactly one key, \"replicas\"";
        if de.peek() == Some(b'{') {
            if de.begin_object()?.as_deref() != Some("replicas") {
                return Err(de.error(one_key));
            }
            if de.peek() != Some(b'[') {
                return Err(de.error("\"replicas\" must be an array"));
            }
            let members = Vec::<BackendSpec>::deserialize(de)?;
            if de.next_key()?.is_some() {
                return Err(de.error(one_key));
            }
            return Ok(BackendSpec::Replicas(members));
        }
        if de.peek() != Some(b'"') {
            return Err(de.error("backend spec must be a string or object"));
        }
        let s = de.str()?;
        if s == "local" {
            return Ok(BackendSpec::Local);
        }
        if let Some(addr) = s.strip_prefix("http://") {
            if addr.is_empty() {
                return Err(de.error("http backend spec has an empty address"));
            }
            return Ok(BackendSpec::Http(addr.to_string()));
        }
        Err(de.error(format!(
            "backend spec must be \"local\", \"http://host:port\" or {{\"replicas\": [...]}}, got {s:?}"
        )))
    }
}

/// Builds the backend for each slot of a [`TopologySpec`] —
/// [`Topology::from_spec`]'s construction seam.
///
/// Plain connectors are closures (`Fn(&str) -> Result<Box<dyn
/// ShardBackend>, ServeError>` gets a blanket impl); a resilience-aware
/// connector additionally overrides [`SlotConnector::replica_set`] to
/// wrap a slot's members in a failover arbiter (the `fsi-resil`
/// `ReplicaSet`, which lives above this crate in the dependency graph).
pub trait SlotConnector {
    /// Dials one remote shard at `addr` (`host:port`).
    fn connect(&self, addr: &str) -> Result<Box<dyn ShardBackend>, ServeError>;

    /// Wraps a replica slot's constructed members in one arbitrating
    /// backend. The default rejects replica slots, so topologies built
    /// through a plain connector fail loudly instead of silently
    /// serving from one member.
    fn replica_set(
        &self,
        members: Vec<Box<dyn ShardBackend>>,
    ) -> Result<Box<dyn ShardBackend>, ServeError> {
        let _ = members;
        Err(ServeError::InvalidTopology(
            "this connector cannot build replica slots; use a resilience-aware connector".into(),
        ))
    }
}

impl<F> SlotConnector for F
where
    F: Fn(&str) -> Result<Box<dyn ShardBackend>, ServeError>,
{
    fn connect(&self, addr: &str) -> Result<Box<dyn ShardBackend>, ServeError> {
        self(addr)
    }
}

/// A validated, serializable description of a serving topology:
/// `rows × cols` shards in row-major order, each backed per
/// [`BackendSpec`]. The canonical way to configure sharded serving.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TopologySpec {
    /// Shard grid rows.
    pub rows: usize,
    /// Shard grid columns.
    pub cols: usize,
    /// One backend per shard, row-major. Empty means all-local.
    pub shards: Vec<BackendSpec>,
}

impl TopologySpec {
    /// An all-local `rows × cols` topology of partial indexes.
    pub fn local(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            shards: Vec::new(),
        }
    }

    /// The single-shard topology.
    pub fn single() -> Self {
        Self::local(1, 1)
    }

    /// Checks shape and backend coherence; every constructor that
    /// consumes a spec runs this first.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.rows == 0 || self.cols == 0 {
            return Err(ServeError::InvalidShards {
                rows: self.rows,
                cols: self.cols,
            });
        }
        if !self.shards.is_empty() && self.shards.len() != self.rows * self.cols {
            return Err(ServeError::InvalidTopology(format!(
                "{}x{} topology needs {} shard backends (or none for all-local), got {}",
                self.rows,
                self.cols,
                self.rows * self.cols,
                self.shards.len()
            )));
        }
        for (i, shard) in self.shards.iter().enumerate() {
            Self::validate_backend(i, shard, false)?;
        }
        Ok(())
    }

    fn validate_backend(i: usize, spec: &BackendSpec, in_replicas: bool) -> Result<(), ServeError> {
        match spec {
            BackendSpec::Local => Ok(()),
            BackendSpec::Http(addr) => {
                if addr.is_empty() || !addr.contains(':') {
                    return Err(ServeError::InvalidTopology(format!(
                        "shard {i}: http backend address must be host:port, got {addr:?}"
                    )));
                }
                Ok(())
            }
            BackendSpec::Replicas(members) => {
                if in_replicas {
                    return Err(ServeError::InvalidTopology(format!(
                        "shard {i}: replica sets cannot nest"
                    )));
                }
                if members.is_empty() {
                    return Err(ServeError::InvalidTopology(format!(
                        "shard {i}: a replica set needs at least one member"
                    )));
                }
                for member in members {
                    Self::validate_backend(i, member, true)?;
                }
                Ok(())
            }
        }
    }

    /// The backend of shard `i`, with the all-local default applied.
    pub fn backend(&self, i: usize) -> BackendSpec {
        self.shards.get(i).cloned().unwrap_or(BackendSpec::Local)
    }
}

/// A `rows × cols` spatial partition of the served bounding rectangle
/// over a set of [`ShardBackend`]s.
///
/// Immutable after construction (the backends hot-swap internally), so
/// services keep it behind an `Arc` and route from as many threads as
/// they like. Point lookups route to exactly one shard; range queries
/// fan out to every shard whose sub-rectangle intersects the query.
pub struct Topology {
    bounds: Rect,
    rows: usize,
    cols: usize,
    /// Cached `cols / width` and `rows / height`, so the routing hot
    /// path multiplies instead of dividing.
    inv_w: f64,
    inv_h: f64,
    backends: Vec<Box<dyn ShardBackend>>,
    /// Serializes republishes: held by a coordinator from training to
    /// commit, and by each shard-role barrier message, so two rebuilds
    /// can never interleave on the backends' staging slots.
    barrier: Mutex<()>,
}

impl Topology {
    /// A 1×1 topology over an existing handle — the common single-shard
    /// deployment, sharing hot-swaps with every other user of `handle`.
    pub fn single(handle: IndexHandle) -> Self {
        let bounds = *handle.load().bounds();
        Self::over(bounds, 1, 1, vec![Box::new(LocalShard::new(handle))])
    }

    /// A `rows × cols` topology of **partial indexes**: each shard
    /// serves [`FrozenIndex::compile_clipped`] restricted to its
    /// sub-rectangle (padded by one grid cell so router/index boundary
    /// arithmetic can never disagree), so per-shard heap scales down
    /// with shard count.
    pub fn partitioned(index: FrozenIndex, rows: usize, cols: usize) -> Result<Self, ServeError> {
        if rows == 0 || cols == 0 {
            return Err(ServeError::InvalidShards { rows, cols });
        }
        let bounds = *index.bounds();
        if rows * cols == 1 {
            return Ok(Self::single(IndexHandle::new(index)));
        }
        let mut backends: Vec<Box<dyn ShardBackend>> = Vec::with_capacity(rows * cols);
        for shard in 0..rows * cols {
            let rect = Self::shard_rect(&index, &bounds, rows, cols, shard);
            backends.push(Box::new(LocalShard::clipped(&index, rect)?));
        }
        Ok(Self::over(bounds, rows, cols, backends))
    }

    /// Builds a topology from a validated [`TopologySpec`]. Local slots
    /// get partial indexes clipped from `index`; remote slots are dialed
    /// through `connect` (the `fsi` facade passes its keep-alive HTTP
    /// client constructor — this crate sits below the transports and
    /// cannot dial sockets itself).
    pub fn from_spec(
        spec: &TopologySpec,
        index: FrozenIndex,
        connect: impl SlotConnector,
    ) -> Result<Self, ServeError> {
        spec.validate()?;
        let (rows, cols) = (spec.rows, spec.cols);
        if rows * cols == 1 && spec.backend(0) == BackendSpec::Local {
            return Ok(Self::single(IndexHandle::new(index)));
        }
        let bounds = *index.bounds();
        let build_member =
            |member: &BackendSpec, shard: usize| -> Result<Box<dyn ShardBackend>, ServeError> {
                match member {
                    BackendSpec::Local => {
                        let rect = Self::shard_rect(&index, &bounds, rows, cols, shard);
                        Ok(Box::new(LocalShard::clipped(&index, rect)?))
                    }
                    BackendSpec::Http(addr) => connect.connect(addr),
                    BackendSpec::Replicas(_) => Err(ServeError::InvalidTopology(
                        "replica sets cannot nest".into(),
                    )),
                }
            };
        let mut backends: Vec<Box<dyn ShardBackend>> = Vec::with_capacity(rows * cols);
        for shard in 0..rows * cols {
            backends.push(match spec.backend(shard) {
                // Every replica member serves the *same* clip rectangle
                // (the slot's), so any member answers bit-identically.
                BackendSpec::Replicas(members) => {
                    let members = members
                        .iter()
                        .map(|m| build_member(m, shard))
                        .collect::<Result<Vec<_>, _>>()?;
                    connect.replica_set(members)?
                }
                single => build_member(&single, shard)?,
            });
        }
        Ok(Self::over(bounds, rows, cols, backends))
    }

    /// The partial index a **shard server** for slot `shard` of a
    /// `rows × cols` topology should serve: a 1×1 topology over the
    /// clipped index, rejecting points outside its block just as the
    /// coordinator would never route them here.
    pub fn partial(
        index: &FrozenIndex,
        rows: usize,
        cols: usize,
        shard: usize,
    ) -> Result<Self, ServeError> {
        if rows == 0 || cols == 0 {
            return Err(ServeError::InvalidShards { rows, cols });
        }
        if shard >= rows * cols {
            return Err(ServeError::InvalidTopology(format!(
                "shard index {shard} out of range for a {rows}x{cols} topology"
            )));
        }
        let bounds = *index.bounds();
        let rect = Self::shard_rect(index, &bounds, rows, cols, shard);
        let local = LocalShard::clipped(index, rect)?;
        Ok(Self::over(bounds, 1, 1, vec![Box::new(local)]))
    }

    /// The clip rectangle of shard `shard`, padded by one grid cell on
    /// each interior side. The pad is a guard band: shard routing uses a
    /// reciprocal multiply while cell assignment divides, and the two
    /// can disagree by one ULP on block edges — a one-cell overlap means
    /// any point the router sends here is inside the clip, while the
    /// *answer* (computed from global coordinates) stays bit-identical
    /// regardless of which shard serves an edge point.
    fn shard_rect(
        index: &FrozenIndex,
        bounds: &Rect,
        rows: usize,
        cols: usize,
        shard: usize,
    ) -> Rect {
        let (grid_rows, grid_cols) = index.grid_shape();
        let (pad_w, pad_h) = (
            bounds.width() / grid_cols as f64,
            bounds.height() / grid_rows as f64,
        );
        let (sw, sh) = (bounds.width() / cols as f64, bounds.height() / rows as f64);
        let (row, col) = (shard / cols, shard % cols);
        Rect::new(
            (bounds.min_x + col as f64 * sw - pad_w).max(bounds.min_x),
            (bounds.min_y + row as f64 * sh - pad_h).max(bounds.min_y),
            (bounds.min_x + (col + 1) as f64 * sw + pad_w).min(bounds.max_x),
            (bounds.min_y + (row + 1) as f64 * sh + pad_h).min(bounds.max_y),
        )
        .expect("shard rectangles of a non-degenerate grid are non-degenerate")
    }

    fn over(bounds: Rect, rows: usize, cols: usize, backends: Vec<Box<dyn ShardBackend>>) -> Self {
        Self {
            bounds,
            rows,
            cols,
            inv_w: cols as f64 / bounds.width(),
            inv_h: rows as f64 / bounds.height(),
            backends,
            barrier: Mutex::new(()),
        }
    }

    /// Takes the republish barrier lock. Poisoning is shrugged off: the
    /// lock guards no data, only the order of barrier passes.
    pub(crate) fn lock_barrier(&self) -> MutexGuard<'_, ()> {
        self.barrier.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of shards (`rows × cols`).
    pub fn shards(&self) -> usize {
        self.backends.len()
    }

    /// Shard grid shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The bounding rectangle the shards partition.
    pub fn bounds(&self) -> &Rect {
        &self.bounds
    }

    /// The shard backends, row-major.
    pub fn backends(&self) -> &[Box<dyn ShardBackend>] {
        &self.backends
    }

    /// The shard owning `p`, or `None` when the point is non-finite or
    /// outside the bounds. Same closed-bounds floor-and-clamp semantics
    /// as `Grid::cell_of`, so every in-bounds point routes to exactly
    /// one shard.
    pub fn shard_of(&self, p: &Point) -> Option<usize> {
        if !p.is_finite() || !self.bounds.contains(p) {
            return None;
        }
        let fx = (p.x - self.bounds.min_x) * self.inv_w;
        let fy = (p.y - self.bounds.min_y) * self.inv_h;
        let col = (fx as usize).min(self.cols - 1);
        let row = (fy as usize).min(self.rows - 1);
        Some(row * self.cols + col)
    }

    /// Every shard whose sub-rectangle intersects the closed `query`,
    /// ascending; empty when the query is non-finite or misses the
    /// bounds entirely.
    pub fn covering(&self, query: &Rect) -> Vec<usize> {
        let finite = [query.min_x, query.min_y, query.max_x, query.max_y]
            .iter()
            .all(|v| v.is_finite());
        if !finite {
            return Vec::new();
        }
        let b = &self.bounds;
        let lo = Point::new(query.min_x.max(b.min_x), query.min_y.max(b.min_y));
        let hi = Point::new(query.max_x.min(b.max_x), query.max_y.min(b.max_y));
        if lo.x > hi.x || lo.y > hi.y {
            return Vec::new();
        }
        let (lo, hi) = match (self.shard_of(&lo), self.shard_of(&hi)) {
            (Some(lo), Some(hi)) => (lo, hi),
            _ => return Vec::new(),
        };
        let (row_lo, col_lo) = (lo / self.cols, lo % self.cols);
        let (row_hi, col_hi) = (hi / self.cols, hi % self.cols);
        let mut out = Vec::with_capacity((row_hi - row_lo + 1) * (col_hi - col_lo + 1));
        for row in row_lo..=row_hi {
            for col in col_lo..=col_hi {
                out.push(row * self.cols + col);
            }
        }
        out
    }

    /// Per-shard generations, in shard order (remote shards may need a
    /// round-trip; `0` means unreachable).
    pub fn generations(&self) -> Vec<u64> {
        self.backends.iter().map(|b| b.generation()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_geo::{Grid, Partition};
    use fsi_pipeline::{Method, ModelSnapshot, PipelineSpec, TaskSpec};

    fn index() -> FrozenIndex {
        let grid = Grid::unit(8).unwrap();
        let partition = Partition::uniform(&grid, 2, 2).unwrap();
        let snapshot =
            ModelSnapshot::new(vec![0.2, 0.4, 0.6, 0.8], vec![0.0; 4], vec![0, 1, 2, 3]).unwrap();
        FrozenIndex::from_partition(&partition, &grid, &snapshot).unwrap()
    }

    #[test]
    fn backend_specs_round_trip_and_reject_garbage() {
        for spec in [
            BackendSpec::Local,
            BackendSpec::Http("127.0.0.1:7878".into()),
        ] {
            let wire = serde_json::to_string(&spec).unwrap();
            assert_eq!(serde_json::from_str::<BackendSpec>(&wire).unwrap(), spec);
        }
        assert_eq!(
            serde_json::to_string(&BackendSpec::Http("10.0.0.7:80".into())).unwrap(),
            "\"http://10.0.0.7:80\""
        );
        for bad in ["\"ftp://x\"", "\"http://\"", "\"remote\"", "7"] {
            assert!(serde_json::from_str::<BackendSpec>(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn topology_specs_round_trip_and_validate() {
        let spec = TopologySpec {
            rows: 2,
            cols: 2,
            shards: vec![
                BackendSpec::Local,
                BackendSpec::Http("127.0.0.1:7001".into()),
                BackendSpec::Http("127.0.0.1:7002".into()),
                BackendSpec::Local,
            ],
        };
        spec.validate().unwrap();
        let wire = serde_json::to_string(&spec).unwrap();
        assert_eq!(serde_json::from_str::<TopologySpec>(&wire).unwrap(), spec);

        assert!(matches!(
            TopologySpec::local(0, 2).validate(),
            Err(ServeError::InvalidShards { .. })
        ));
        let short = TopologySpec {
            rows: 2,
            cols: 2,
            shards: vec![BackendSpec::Local],
        };
        assert!(matches!(
            short.validate(),
            Err(ServeError::InvalidTopology(_))
        ));
        let portless = TopologySpec {
            rows: 1,
            cols: 1,
            shards: vec![BackendSpec::Http("justahost".into())],
        };
        assert!(matches!(
            portless.validate(),
            Err(ServeError::InvalidTopology(_))
        ));
        // The all-local shorthand: empty shard list, any slot is Local.
        let local = TopologySpec::local(2, 3);
        local.validate().unwrap();
        assert_eq!(local.backend(5), BackendSpec::Local);
    }

    #[test]
    fn partitioned_topology_routes_like_a_router_and_shrinks_heap() {
        let full = index();
        let full_heap = full.heap_bytes();
        let topo = Topology::partitioned(full.clone(), 2, 2).unwrap();
        assert_eq!(topo.shards(), 4);
        assert_eq!(topo.shape(), (2, 2));
        // Row-major routing over the closed bounds.
        assert_eq!(topo.shard_of(&Point::new(0.25, 0.25)), Some(0));
        assert_eq!(topo.shard_of(&Point::new(0.5, 0.5)), Some(3));
        assert_eq!(topo.shard_of(&Point::new(1.5, 0.5)), None);
        assert_eq!(topo.covering(&Rect::unit()), vec![0, 1, 2, 3]);
        // Every backend is a clipped local shard whose answers match the
        // single box on the points routed to it.
        for shard in topo.backends() {
            let local = shard.as_local().unwrap();
            assert!(local.handle().load().clip_rect().is_some());
            assert!(local.handle().load().heap_bytes() < full_heap);
        }
        for p in [(0.1, 0.1), (0.9, 0.1), (0.5, 0.5), (1.0, 1.0), (0.0, 0.9)] {
            let p = Point::new(p.0, p.1);
            let shard = topo.shard_of(&p).unwrap();
            let got = topo.backends()[shard]
                .as_local()
                .unwrap()
                .handle()
                .load()
                .lookup(&p)
                .expect("guard band covers every routed point");
            assert_eq!(got, full.lookup(&p).unwrap());
        }
    }

    #[test]
    fn local_dispatch_speaks_the_protocol() {
        let shard = LocalShard::new(IndexHandle::new(index()));
        match shard.dispatch(&Request::Lookup { x: 0.1, y: 0.1 }) {
            Response::Decision { decision } => assert_eq!(decision.leaf_id, 0),
            other => panic!("expected decision, got {other:?}"),
        }
        match shard.dispatch(&Request::Lookup { x: 5.0, y: 0.1 }) {
            Response::Error { error } => assert_eq!(error.code, ErrorCode::OutOfBounds),
            other => panic!("expected error, got {other:?}"),
        }
        match shard.dispatch(&Request::Stats) {
            Response::Stats { stats } => {
                assert_eq!(stats.shards, 1);
                assert_eq!(stats.generations, vec![1]);
            }
            other => panic!("expected stats, got {other:?}"),
        }
        assert_eq!(
            shard.descriptor(),
            ShardDescriptor {
                kind: "local",
                addr: None
            }
        );
        // Commit without a prepare is a structured protocol error.
        match shard.dispatch(&Request::RebuildCommit) {
            Response::Error { error } => assert_eq!(error.code, ErrorCode::NotPrepared),
            other => panic!("expected error, got {other:?}"),
        }
    }

    /// A `Stats` answer pairs its generation with that generation's own
    /// index, even while a publisher swaps indexes of different sizes.
    #[test]
    fn stats_never_pair_a_generation_with_another_index() {
        let grid = Grid::unit(8).unwrap();
        let partition = Partition::uniform(&grid, 2, 4).unwrap();
        let snapshot = ModelSnapshot::uniform(8, 0.5).unwrap();
        let large = FrozenIndex::from_partition(&partition, &grid, &snapshot).unwrap();
        let small = index();
        let (small_leaves, large_leaves) = (small.num_leaves(), large.num_leaves());
        assert_ne!(small_leaves, large_leaves);
        // Odd generations serve `small`, even ones `large`.
        let shard = LocalShard::new(IndexHandle::new(small.clone()));
        let handle = shard.handle().clone();
        let done = std::sync::atomic::AtomicBool::new(false);
        let torn = std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut next = [&large, &small].into_iter().cycle();
                while !done.load(std::sync::atomic::Ordering::Relaxed) {
                    handle.publish(next.next().unwrap().clone());
                }
            });
            let mut torn = 0;
            for _ in 0..200_000 {
                let Response::Stats { stats } = shard.dispatch(&Request::Stats) else {
                    panic!("expected stats");
                };
                let want = if stats.generations[0] % 2 == 1 {
                    small_leaves
                } else {
                    large_leaves
                };
                torn += usize::from(stats.num_leaves != want);
            }
            done.store(true, std::sync::atomic::Ordering::Relaxed);
            torn
        });
        assert_eq!(
            torn, 0,
            "answers that paired a generation with another index"
        );
    }

    #[test]
    fn stage_then_commit_swaps_atomically_per_shard() {
        let shard = LocalShard::new(IndexHandle::new(index()));
        let grid = Grid::unit(8).unwrap();
        let partition = Partition::uniform(&grid, 2, 2).unwrap();
        let snapshot = ModelSnapshot::uniform(4, 0.9).unwrap();
        let next = FrozenIndex::from_partition(&partition, &grid, &snapshot).unwrap();
        shard.stage(&next).unwrap();
        // Staged but not committed: still serving generation 1.
        assert_eq!(shard.generation(), 1);
        let p = Point::new(0.1, 0.1);
        assert!((shard.handle().load().lookup(&p).unwrap().raw_score - 0.2).abs() < 1e-12);
        assert_eq!(shard.commit().unwrap(), 2);
        assert!((shard.handle().load().lookup(&p).unwrap().raw_score - 0.9).abs() < 1e-12);
        assert!(matches!(shard.commit(), Err(ServeError::NotStaged)));
        // Abort drops the staged index.
        shard.stage(&next).unwrap();
        shard.abort();
        assert!(matches!(shard.commit(), Err(ServeError::NotStaged)));
    }

    #[test]
    fn publish_reclips_partial_shards() {
        let topo = Topology::partitioned(index(), 2, 2).unwrap();
        let grid = Grid::unit(8).unwrap();
        let partition = Partition::uniform(&grid, 2, 2).unwrap();
        let snapshot = ModelSnapshot::uniform(4, 0.9).unwrap();
        let next = FrozenIndex::from_partition(&partition, &grid, &snapshot).unwrap();
        let full_heap = next.heap_bytes();
        // The barrier's per-slot calls: stage through `prepare` (a local
        // shard stages the given index and never reads the request),
        // then commit through `dispatch`.
        let request = Request::RebuildPrepare {
            spec: PipelineSpec::new(TaskSpec::act(), Method::MedianKd, 1),
            delta: None,
        };
        for b in topo.backends() {
            assert!(matches!(
                b.prepare(&next, &request),
                Response::Prepared { .. }
            ));
        }
        for b in topo.backends() {
            assert_eq!(
                b.dispatch(&Request::RebuildCommit),
                Response::Committed { generation: 2 }
            );
        }
        assert_eq!(topo.generations(), vec![2, 2, 2, 2]);
        for b in topo.backends() {
            let served = b.as_local().unwrap().handle().load();
            assert!(
                served.clip_rect().is_some(),
                "publish must keep shards partial"
            );
            assert!(served.heap_bytes() < full_heap);
        }
    }

    #[test]
    fn partial_builds_a_single_shard_server_topology() {
        let full = index();
        let topo = Topology::partial(&full, 2, 2, 3).unwrap();
        assert_eq!(topo.shards(), 1);
        let local = topo.backends()[0].as_local().unwrap();
        // Serves its own quadrant, rejects the opposite corner.
        assert!(local
            .handle()
            .load()
            .lookup(&Point::new(0.9, 0.9))
            .is_some());
        assert!(local
            .handle()
            .load()
            .lookup(&Point::new(0.1, 0.1))
            .is_none());
        assert!(matches!(
            Topology::partial(&full, 2, 2, 4),
            Err(ServeError::InvalidTopology(_))
        ));
    }

    #[test]
    fn from_spec_dials_remote_slots_through_the_connector() {
        let spec = TopologySpec {
            rows: 1,
            cols: 2,
            shards: vec![
                BackendSpec::Local,
                BackendSpec::Http("10.0.0.7:7878".into()),
            ],
        };
        // A stand-in connector: remote slots become unclipped locals so
        // the wiring is observable without a socket.
        let stub = index();
        let topo = Topology::from_spec(&spec, index(), |addr: &str| {
            assert_eq!(addr, "10.0.0.7:7878");
            Ok(Box::new(LocalShard::new(IndexHandle::new(stub.clone()))) as Box<dyn ShardBackend>)
        })
        .unwrap();
        assert_eq!(topo.shards(), 2);
        assert!(topo.backends()[0]
            .as_local()
            .unwrap()
            .handle()
            .load()
            .clip_rect()
            .is_some());
        assert!(topo.backends()[1]
            .as_local()
            .unwrap()
            .handle()
            .load()
            .clip_rect()
            .is_none());
        // Connector failures surface as construction errors.
        let err = Topology::from_spec(&spec, index(), |_: &str| {
            Err(ServeError::Remote {
                addr: "10.0.0.7:7878".into(),
                detail: "connection refused".into(),
            })
        });
        assert!(matches!(err, Err(ServeError::Remote { .. })));
    }
}
