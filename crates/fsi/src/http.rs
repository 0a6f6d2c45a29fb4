//! A dependency-free HTTP/1.1 JSON transport over the typed query
//! protocol.
//!
//! [`HttpServer`] binds a `std::net::TcpListener`, accepts connections
//! on a small worker thread pool, and answers `POST /query` (or `/`)
//! requests whose body is one [`fsi_proto::RequestEnvelope`] with the
//! matching [`fsi_proto::ResponseEnvelope`] — content-length framing,
//! keep-alive by default, no external crates (consistent with the
//! workspace's vendored-stubs constraint). Every worker owns a
//! [`QueryService`] clone, so dispatch runs lock-free against the shared
//! hot-swappable indexes.
//!
//! ```text
//! POST /query HTTP/1.1
//! Content-Length: 46
//!
//! {"v":1,"body":{"Lookup":{"x":0.31,"y":0.72}}}
//! ```
//!
//! Status mapping: a request that *decodes* — even one answered with a
//! structured [`fsi_proto::ErrorBody`], like an out-of-bounds point —
//! is a successful protocol exchange and returns `200`. Only transport
//! failures map to HTTP errors: undecodable envelopes are `400`,
//! non-`POST` methods `405`, unknown paths `404`, missing
//! `Content-Length` `411`, oversized bodies `413`.
//!
//! [`HttpClient`] is the matching blocking keep-alive client, used by
//! the differential transport tests, the benchmark suite and the CI
//! smoke step.
//!
//! ## Framing
//!
//! Both ends read HTTP/1.1 through one framing reader: one head parser
//! for the request head and the response head (start line, headers,
//! `Content-Length`, `Connection`) and one body reader. The parser caps
//! each head line at 8 KiB *while* receiving it and a head at 100
//! headers; over either cap the server closes the connection without an
//! answer and the client fails the call with `InvalidData`. A missing or
//! unparsable `Content-Length` is no length: the server answers `411`,
//! the client refuses the response. The client also refuses a response
//! body over 32 MiB before allocating it.
//!
//! Server sockets carry a 50 ms read timeout. One polling reader retries
//! it, and interrupted reads, until data arrives; once the server is
//! stopping, it reads as end of stream. That reader is the one place a
//! worker waits on its peer. The client reads its plain blocking socket.
//!
//! Every server reply is written by one tail under one rule: a rejected
//! request's body is drained so keep-alive stays framed, but a declared
//! length over 16 MiB is never drained — that reply closes the
//! connection instead.
//!
//! ## Observability
//!
//! `GET /metrics` answers the Prometheus text exposition of the served
//! [`QueryService`]'s telemetry (scatter-gathered across shards),
//! extended with transport-level families: connection totals, requests
//! handled, and read/handle/write phase histograms. The same transport
//! block rides along as [`fsi_proto::HttpObsBody`] inside every
//! `Response::Metrics` answered over this server. Phase timings start
//! once a request head has arrived, so idle keep-alive wait is never
//! recorded as read time.

use crate::error::FsiError;
use fsi_obs::{Counter, Histogram, HistogramSnapshot, Recorder, Registry};
use fsi_proto::{
    decode_request, decode_response, encode_response, ErrorBody, ErrorCode, HttpObsBody,
    ProtoError, Request, Response,
};
use fsi_resil::{ReplicaSet, ResiliencePolicy};
use fsi_serve::{
    prometheus_text, QueryService, ServeError, ShardBackend, ShardDescriptor, SlotConnector,
    TransportStats,
};
use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Largest accepted request body. Far above any sane batch (a 100k-point
/// `LookupBatch` is ~4 MB) while bounding a malicious content-length.
const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// Largest accepted head line, request or response. Head parsing
/// enforces this *while* receiving, so an endless unterminated line
/// cannot grow a worker's memory.
const MAX_HEAD_LINE_BYTES: usize = 8 * 1024;

/// Largest response body [`HttpClient`] accepts: room for the answer
/// to a maximum-size request (a `Decisions` body is about 1.75× its
/// `LookupBatch`), while a hostile or broken peer's `Content-Length`
/// can no longer size the client's allocation.
const MAX_RESPONSE_BODY_BYTES: usize = 2 * MAX_BODY_BYTES;

/// Most headers accepted in one message head.
const MAX_HEADERS: usize = 100;

/// How often blocked I/O wakes up to check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Content type of the Prometheus text exposition.
const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Per-worker HTTP transport telemetry, merged on scrape through the
/// server's [`Registry`]. Active connections are derived as
/// `opened - closed` (both cumulative, so the difference is exact even
/// across worker shards).
struct HttpMetrics {
    opened: Counter,
    closed: Counter,
    requests: Counter,
    read: Histogram,
    handle: Histogram,
    write: Histogram,
}

impl HttpMetrics {
    fn new() -> Self {
        Self {
            opened: Counter::new(),
            closed: Counter::new(),
            requests: Counter::new(),
            read: Histogram::new(),
            handle: Histogram::new(),
            write: Histogram::new(),
        }
    }
}

/// Nanoseconds in `d`, saturating instead of wrapping on absurd spans.
fn elapsed_nanos(started: Instant) -> u64 {
    started.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Folds every worker shard into one wire-ready transport block.
/// Histograms are read before counters so a concurrent scrape can only
/// under-report phases relative to `requests`, never the reverse.
fn http_obs_body(registry: &Registry<HttpMetrics>) -> HttpObsBody {
    let (read, handle, write) = registry.fold(
        (
            HistogramSnapshot::empty(),
            HistogramSnapshot::empty(),
            HistogramSnapshot::empty(),
        ),
        |(mut r, mut h, mut w), shard| {
            r.merge(&shard.read.snapshot());
            h.merge(&shard.handle.snapshot());
            w.merge(&shard.write.snapshot());
            (r, h, w)
        },
    );
    let (opened, closed, requests) = registry.fold((0u64, 0u64, 0u64), |(o, c, q), shard| {
        (
            o + shard.opened.get(),
            c + shard.closed.get(),
            q + shard.requests.get(),
        )
    });
    HttpObsBody {
        connections: opened,
        active: opened.saturating_sub(closed),
        requests,
        read,
        handle,
        write,
    }
}

/// A running HTTP serving endpoint. Dropping it (or calling
/// [`HttpServer::shutdown`]) stops the accept loop, drains the workers
/// and joins every thread.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and serves
    /// `service` with 4 worker threads.
    pub fn bind(service: QueryService, addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::bind_with(service, addr, 4)
    }

    /// Binds with an explicit worker count. Each worker owns one
    /// `service` clone and one connection at a time, so `workers` is
    /// also the maximum number of concurrently served keep-alive
    /// connections; further connections queue until a worker frees up.
    pub fn bind_with(
        service: QueryService,
        addr: impl ToSocketAddrs,
        workers: usize,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx): (Sender<TcpStream>, Receiver<TcpStream>) = channel();
        let rx = Arc::new(Mutex::new(rx));
        let obs = Registry::new(HttpMetrics::new).recorder();

        let workers = (0..workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let stop = Arc::clone(&stop);
                let mut service = service.clone();
                // Each worker records into its own registry shard.
                let obs = obs.clone();
                std::thread::spawn(move || loop {
                    // Holding the lock only while receiving: the queue is
                    // the only shared state between workers.
                    let conn = rx.lock().unwrap_or_else(|e| e.into_inner()).recv();
                    match conn {
                        Ok(stream) => {
                            obs.opened.inc();
                            // Connection errors are that connection's
                            // problem; the worker moves on to the next.
                            let _ = serve_connection(stream, &mut service, &stop, &obs);
                            obs.closed.inc();
                        }
                        // Sender dropped: the server is shutting down.
                        Err(_) => return,
                    }
                })
            })
            .collect();

        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::Acquire) {
                        return; // drops the listener and the sender
                    }
                    if let Ok(stream) = stream {
                        if tx.send(stream).is_err() {
                            return;
                        }
                    }
                }
            })
        };

        Ok(Self {
            addr,
            stop,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains the workers and joins every thread.
    /// In-flight requests finish; idle keep-alive connections close
    /// within one poll interval.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// The read side of a server connection, whose socket carries a
/// [`POLL_INTERVAL`] read timeout: timed-out and interrupted reads are
/// retried until data arrives, and once `stop` is raised they read as
/// end of stream instead.
struct Polling<'a> {
    stream: &'a TcpStream,
    stop: &'a AtomicBool,
}

impl Read for Polling<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) =>
                {
                    if self.stop.load(Ordering::Acquire) {
                        return Ok(0);
                    }
                }
                result => return result,
            }
        }
    }
}

/// One message head, request or response.
struct Head {
    /// The start line's first two fields: method and target of a
    /// request, version and status of a response.
    fields: [String; 2],
    /// Whether the start line's third field, a request's version, is
    /// `HTTP/1.0`.
    http_1_0: bool,
    /// `None` when the header is missing or unparsable.
    content_length: Option<usize>,
    /// `Some(keep_alive)` when a `Connection` header asked for one.
    connection: Option<bool>,
}

/// Reads one message head. `None` means the stream ended before a
/// start line began: the peer hung up between messages, or the server
/// is stopping.
fn parse_head(reader: &mut impl BufRead) -> io::Result<Option<Head>> {
    let Some(line) = read_head_line(reader)? else {
        return Ok(None);
    };
    let mut parts = line.split_whitespace();
    let mut next = || parts.next().unwrap_or_default().to_string();
    let fields = [next(), next()];
    let mut head = Head {
        fields,
        http_1_0: parts.next() == Some("HTTP/1.0"),
        content_length: None,
        connection: None,
    };
    for headers_seen in 0.. {
        if headers_seen > MAX_HEADERS {
            return Err(invalid_data(format!(
                "message head exceeds {MAX_HEADERS} headers"
            )));
        }
        let Some(header) = read_head_line(reader)? else {
            return Err(io::Error::new(
                ErrorKind::UnexpectedEof,
                "connection closed inside a message head",
            ));
        };
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            head.content_length = value.parse().ok();
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                head.connection = Some(false);
            } else if value.eq_ignore_ascii_case("keep-alive") {
                head.connection = Some(true);
            }
        }
    }
    Ok(Some(head))
}

/// Reads one head line, refusing one longer than [`MAX_HEAD_LINE_BYTES`]
/// before buffering more of it. `None` at end of stream.
///
/// Every line gets fresh buffers on purpose. One line buffer reused
/// across a head allocates less, but on e2ebench `batch_scan` it doubled
/// the server workers' page faults and cost about a quarter of read p95:
/// glibc then placed the large per-request buffers in a heap it trims
/// after each request.
fn read_head_line(reader: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut raw = Vec::new();
    let n = reader
        .by_ref()
        .take(MAX_HEAD_LINE_BYTES as u64 + 1)
        .read_until(b'\n', &mut raw)?;
    if n > MAX_HEAD_LINE_BYTES {
        return Err(invalid_data(format!(
            "head line exceeds {MAX_HEAD_LINE_BYTES} bytes"
        )));
    }
    Ok((n > 0).then(|| String::from_utf8_lossy(&raw).into_owned()))
}

/// Reads a body of exactly `len` bytes; callers cap `len` first.
fn read_body(reader: &mut impl Read, len: usize) -> io::Result<Vec<u8>> {
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    Ok(body)
}

/// Reads and discards `len` body bytes. `false` when the stream ended
/// first.
fn drain_body(reader: &mut impl Read, len: usize) -> io::Result<bool> {
    Ok(io::copy(&mut reader.take(len as u64), &mut io::sink())? == len as u64)
}

/// An `InvalidData` error: the peer sent what this end refuses to frame.
fn invalid_data(message: impl Into<String>) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, message.into())
}

/// One response, built by a branch of [`serve_connection`] and written
/// by its tail.
struct Reply {
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    body: String,
    /// Request-body bytes to discard after the reply, so the next
    /// request starts at its head; `None` when the request is unframed.
    drain: Option<usize>,
}

impl Reply {
    /// A transport-level error with a structured error envelope.
    fn error(
        status: u16,
        reason: &'static str,
        message: impl Into<String>,
        drain: Option<usize>,
    ) -> Self {
        Self {
            status,
            reason,
            content_type: "application/json",
            body: error_wire(ErrorBody::new(ErrorCode::MalformedRequest, message)),
            drain,
        }
    }
}

/// Serves one connection until the peer closes, requests `Connection:
/// close`, or the server shuts down.
fn serve_connection(
    stream: TcpStream,
    service: &mut QueryService,
    stop: &AtomicBool,
    obs: &Recorder<HttpMetrics>,
) -> io::Result<()> {
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(Polling {
        stream: &stream,
        stop,
    });

    // EOF or shutdown between requests ends the connection.
    while let Some(head) = parse_head(&mut reader)? {
        // Counted before any phase is recorded, so a concurrent scrape
        // can never see more phase samples than requests.
        obs.requests.inc();
        let [method, path] = &head.fields;
        // HTTP/1.1 defaults to keep-alive; HTTP/1.0 to close.
        let keep_alive = head.connection.unwrap_or(!head.http_1_0);
        // A rejected request's body must still be consumed, or the next
        // request on this keep-alive connection would be parsed from
        // the middle of the leftover body.
        let declared = Some(head.content_length.unwrap_or(0));
        let reply = if method == "GET" && path == "/metrics" {
            // The Prometheus scrape surface sits outside the JSON
            // envelope path: the service's own metrics (scatter-gathered
            // across shards) plus this transport's block.
            let handle_started = Instant::now();
            let text = match service.dispatch(&Request::Metrics) {
                Response::Metrics { mut metrics } => {
                    metrics.http = Some(http_obs_body(obs.registry()));
                    prometheus_text(&metrics)
                }
                // Unreachable by construction — Metrics always answers
                // Metrics — but a transport must not panic on protocol
                // drift.
                other => format!("# metrics unavailable: unexpected {other:?}\n"),
            };
            obs.handle.record(elapsed_nanos(handle_started));
            Reply {
                status: 200,
                reason: "OK",
                content_type: METRICS_CONTENT_TYPE,
                body: text,
                drain: declared,
            }
        } else if method != "POST" {
            let message = format!("method {method} not supported; POST a request envelope");
            Reply::error(405, "Method Not Allowed", message, declared)
        } else if path != "/" && path != "/query" {
            let message = format!("unknown path {path}; POST to /query");
            Reply::error(404, "Not Found", message, declared)
        } else if let Some(length) = head.content_length.filter(|&n| n <= MAX_BODY_BYTES) {
            let read_started = Instant::now();
            let body = read_body(&mut reader, length)?;
            obs.read.record(elapsed_nanos(read_started));

            let handle_started = Instant::now();
            let (status, reason, wire) = match std::str::from_utf8(&body)
                .map_err(|e| ProtoError::Json(format!("body is not UTF-8: {e}")))
                .and_then(decode_request)
            {
                Ok(request) => {
                    let mut response = service.dispatch(&request);
                    // Metrics answered over this transport carry its
                    // block, so wire scrapers see the same picture as
                    // /metrics.
                    if let Response::Metrics { metrics } = &mut response {
                        metrics.http = Some(http_obs_body(obs.registry()));
                    }
                    (200, "OK", encode_response(&response))
                }
                Err(e) => (400, "Bad Request", error_wire(ErrorBody::from(&e))),
            };
            obs.handle.record(elapsed_nanos(handle_started));
            Reply {
                status,
                reason,
                content_type: "application/json",
                body: wire,
                drain: Some(0),
            }
        } else if let Some(length) = head.content_length {
            let message =
                format!("request body of {length} bytes exceeds the {MAX_BODY_BYTES} limit");
            Reply::error(413, "Content Too Large", message, declared)
        } else {
            let message = "a Content-Length header is required";
            Reply::error(411, "Length Required", message, None)
        };

        // The one framing rule: an unframed request, or a declared body
        // too large to be worth draining, closes the connection.
        let drain = reply
            .drain
            .filter(|&len| keep_alive && len <= MAX_BODY_BYTES);
        let write_started = Instant::now();
        write_http(&stream, &reply, drain.is_some())?;
        obs.write.record(elapsed_nanos(write_started));
        match drain {
            Some(len) if drain_body(&mut reader, len)? => {}
            _ => return Ok(()),
        }
    }
    Ok(())
}

/// The wire form of a transport-level error response.
fn error_wire(error: ErrorBody) -> String {
    encode_response(&Response::Error { error })
}

/// Writes one framed HTTP response.
fn write_http(mut writer: &TcpStream, reply: &Reply, keep_alive: bool) -> io::Result<()> {
    let Reply {
        status,
        reason,
        content_type,
        body,
        ..
    } = reply;
    let connection = if keep_alive { "keep-alive" } else { "close" };
    write!(
        writer,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
        body.len()
    )?;
    writer.flush()
}

/// A blocking keep-alive client for the HTTP transport: one TCP
/// connection, one in-flight request at a time.
pub struct HttpClient {
    /// Responses are read through the buffer; requests are written to
    /// the socket underneath it.
    conn: BufReader<TcpStream>,
}

impl HttpClient {
    /// Connects to a running [`HttpServer`].
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            conn: BufReader::new(stream),
        })
    }

    /// Sends one typed request and decodes the typed response.
    ///
    /// A non-2xx status (the server could not decode the request at
    /// all) surfaces as [`FsiError::Http`]; a decoded
    /// [`Response::Error`] is returned as a normal response for the
    /// caller to match on.
    pub fn call(&mut self, request: &Request) -> Result<Response, FsiError> {
        self.call_encoded(&fsi_proto::encode_request(request))
    }

    /// [`HttpClient::call`] with the request already encoded.
    fn call_encoded(&mut self, request: &str) -> Result<Response, FsiError> {
        let (status, body) = self.post(request)?;
        if !(200..300).contains(&status) {
            return Err(FsiError::Http { status, body });
        }
        Ok(decode_response(&body)?)
    }

    /// Sends a raw body and returns `(status, response body)` without
    /// decoding — the escape hatch for protocol tests.
    ///
    /// A body over the server's 16 MiB limit is refused before a byte
    /// is written: the server would answer 413 and close without
    /// reading it, so the caller would only see the connection reset
    /// under its unfinished write.
    pub fn post(&mut self, body: &str) -> Result<(u16, String), FsiError> {
        refuse_oversized(body)?;
        let mut writer = self.conn.get_ref();
        write!(
            writer,
            "POST /query HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )?;
        writer.flush()?;
        self.read_response()
    }

    /// Sends a bodyless `GET` and returns `(status, response body)` —
    /// how `/metrics` is scraped over a keep-alive connection.
    pub fn get(&mut self, path: &str) -> Result<(u16, String), FsiError> {
        let mut writer = self.conn.get_ref();
        write!(writer, "GET {path} HTTP/1.1\r\n\r\n")?;
        writer.flush()?;
        self.read_response()
    }

    /// Reads one framed response off the connection. The peer is not
    /// trusted: its head is capped like a request's, and its body must
    /// declare a `Content-Length` within [`MAX_RESPONSE_BODY_BYTES`], so
    /// a broken shard cannot make the client allocate what it declares.
    fn read_response(&mut self) -> Result<(u16, String), FsiError> {
        let head = parse_head(&mut self.conn)?.ok_or_else(|| {
            io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            )
        })?;
        let status = head.fields[1]
            .parse()
            .map_err(|_| invalid_data(format!("malformed status {:?}", head.fields[1])))?;
        let length = match head.content_length {
            Some(length) if length <= MAX_RESPONSE_BODY_BYTES => length,
            Some(length) => {
                return Err(invalid_data(format!(
                    "response body of {length} bytes exceeds the \
                     {MAX_RESPONSE_BODY_BYTES} limit"
                ))
                .into())
            }
            None => return Err(invalid_data("response without a valid Content-Length").into()),
        };
        let body = String::from_utf8(read_body(&mut self.conn, length)?)
            .map_err(|e| invalid_data(e.to_string()))?;
        Ok((status, body))
    }
}

/// One-shot convenience: connect, send one request, disconnect.
pub fn query_once(addr: impl ToSocketAddrs, request: &Request) -> Result<Response, FsiError> {
    HttpClient::connect(addr)?.call(request)
}

/// One-shot Prometheus scrape: `GET /metrics`, answering the text
/// exposition. A non-2xx status surfaces as [`FsiError::Http`].
pub fn scrape_metrics(addr: impl ToSocketAddrs) -> Result<String, FsiError> {
    let (status, body) = HttpClient::connect(addr)?.get("/metrics")?;
    if !(200..300).contains(&status) {
        return Err(FsiError::Http { status, body });
    }
    Ok(body)
}

/// Refuses a request body over the server's 16 MiB limit: the server
/// would answer 413 and close without reading it.
fn refuse_oversized(body: &str) -> Result<(), FsiError> {
    if body.len() <= MAX_BODY_BYTES {
        return Ok(());
    }
    Err(FsiError::Io(io::Error::new(
        ErrorKind::InvalidInput,
        format!(
            "request body of {} bytes exceeds the server's {MAX_BODY_BYTES}-byte limit",
            body.len()
        ),
    )))
}

/// A [`ShardBackend`] over a remote shard server: one keep-alive
/// [`HttpClient`] speaking the typed protocol, shared by every
/// coordinator worker behind a mutex (one in-flight request per remote
/// shard — requests to *different* shards still run in parallel, which
/// is what the two-phase rebuild fan-out needs).
///
/// A transport failure drops the dead connection and redials (once by
/// default, [`RemoteShard::with_reconnect_attempts`] to raise it)
/// before answering a structured [`ErrorCode::Internal`] error, so a
/// shard-server restart costs one failed round-trip, not a coordinator
/// restart.
pub struct RemoteShard {
    addr: String,
    client: Mutex<Option<HttpClient>>,
    reconnect_attempts: u32,
    reconnects: Counter,
    failures: Counter,
}

impl RemoteShard {
    /// Dials `addr` (`host:port`) eagerly, so topology construction
    /// surfaces an unreachable shard immediately instead of at first
    /// query.
    pub fn connect(addr: &str) -> Result<Self, ServeError> {
        let client = HttpClient::connect(addr).map_err(|e| ServeError::Remote {
            addr: addr.to_string(),
            detail: e.to_string(),
        })?;
        Ok(Self {
            addr: addr.to_string(),
            client: Mutex::new(Some(client)),
            reconnect_attempts: 1,
            reconnects: Counter::new(),
            failures: Counter::new(),
        })
    }

    /// How many fresh connections one failed round-trip may dial before
    /// giving up (default 1; clamped to at least 1). Raising it rides
    /// out servers that reap idle keep-alive connections *and* are slow
    /// to accept the replacement dial.
    pub fn with_reconnect_attempts(mut self, attempts: u32) -> Self {
        self.reconnect_attempts = attempts.max(1);
        self
    }

    /// The connector `fsi_serve::Topology::from_spec` expects: dials
    /// every `http://host:port` slot of a topology spec through
    /// [`RemoteShard::connect`].
    pub fn connector() -> impl Fn(&str) -> Result<Box<dyn ShardBackend>, ServeError> {
        |addr| Ok(Box::new(RemoteShard::connect(addr)?) as Box<dyn ShardBackend>)
    }

    /// One round-trip, redialing up to `reconnect_attempts` times on a
    /// transport failure. A request too large to send is refused before
    /// the connection is touched, so it neither drops nor redials it.
    fn call(&self, request: &Request) -> Result<Response, FsiError> {
        let request = fsi_proto::encode_request(request);
        refuse_oversized(&request)?;
        let mut slot = self.client.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(mut client) = slot.take() {
            // A failed call means the connection is dead (server
            // restarted, idle keep-alive reaped, …): drop it and
            // redial below.
            if let Ok(response) = client.call_encoded(&request) {
                *slot = Some(client);
                return Ok(response);
            }
        }
        let mut last: Option<FsiError> = None;
        for _ in 0..self.reconnect_attempts.max(1) {
            match self.redial() {
                Ok(mut client) => match client.call_encoded(&request) {
                    Ok(response) => {
                        *slot = Some(client);
                        return Ok(response);
                    }
                    Err(e) => last = Some(e),
                },
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("at least one redial attempt ran"))
    }

    /// Dials a replacement connection, counting the reconnect whether
    /// or not the dial succeeds — a flapping shard shows up either way.
    fn redial(&self) -> Result<HttpClient, FsiError> {
        self.reconnects.inc();
        Ok(HttpClient::connect(self.addr.as_str())?)
    }
}

impl ShardBackend for RemoteShard {
    fn dispatch(&self, request: &Request) -> Response {
        match self.call(request) {
            Ok(response) => response,
            Err(e) => {
                self.failures.inc();
                Response::error(
                    ErrorCode::Internal,
                    format!("remote shard {}: {e}", self.addr),
                )
            }
        }
    }

    fn descriptor(&self) -> ShardDescriptor {
        ShardDescriptor {
            kind: "http",
            addr: Some(self.addr.clone()),
        }
    }

    fn generation(&self) -> u64 {
        match self.dispatch(&Request::Stats) {
            Response::Stats { stats } => stats.generations.first().copied().unwrap_or(0),
            _ => 0,
        }
    }

    fn transport_stats(&self) -> Option<TransportStats> {
        Some(TransportStats {
            reconnects: self.reconnects.get(),
            failures: self.failures.get(),
        })
    }
}

/// The resilience-aware [`SlotConnector`]: HTTP slots dial through
/// [`RemoteShard`] exactly like [`RemoteShard::connector`], and
/// `{"replicas": [...]}` slots additionally wrap their members in an
/// [`fsi_resil::ReplicaSet`] dispatching under `policy` — failover,
/// retries with backoff, per-replica circuit breakers. Hand it to
/// [`fsi_serve::Topology::from_spec`] (or use
/// [`crate::Serving::service_over_with`]) to build a replicated
/// topology.
pub struct ResilientConnector {
    policy: ResiliencePolicy,
    reconnect_attempts: u32,
}

impl ResilientConnector {
    /// A connector building replica sets under `policy`. The policy is
    /// validated when the first replica slot is built (construction
    /// cannot fail, so an invalid policy surfaces as an
    /// `InvalidTopology` error from `Topology::from_spec`).
    pub fn new(policy: ResiliencePolicy) -> Self {
        Self {
            policy,
            reconnect_attempts: 1,
        }
    }

    /// Sets [`RemoteShard::with_reconnect_attempts`] on every HTTP
    /// member this connector dials.
    pub fn with_reconnect_attempts(mut self, attempts: u32) -> Self {
        self.reconnect_attempts = attempts.max(1);
        self
    }
}

impl SlotConnector for ResilientConnector {
    fn connect(&self, addr: &str) -> Result<Box<dyn ShardBackend>, ServeError> {
        Ok(Box::new(
            RemoteShard::connect(addr)?.with_reconnect_attempts(self.reconnect_attempts),
        ))
    }

    fn replica_set(
        &self,
        members: Vec<Box<dyn ShardBackend>>,
    ) -> Result<Box<dyn ShardBackend>, ServeError> {
        ReplicaSet::new(members, self.policy.clone())
            .map(|set| Box::new(set) as Box<dyn ShardBackend>)
            .map_err(|e| ServeError::InvalidTopology(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_geo::{Grid, Partition};
    use fsi_pipeline::ModelSnapshot;
    use fsi_proto::{ErrorCode, WirePoint};
    use fsi_serve::{FrozenIndex, QueryService};

    fn service() -> QueryService {
        let grid = Grid::unit(8).unwrap();
        let partition = Partition::uniform(&grid, 2, 2).unwrap();
        let snapshot = ModelSnapshot::uniform(4, 0.25).unwrap();
        QueryService::from(FrozenIndex::from_partition(&partition, &grid, &snapshot).unwrap())
    }

    #[test]
    fn round_trips_every_request_kind_over_keep_alive() {
        let server = HttpServer::bind(service(), "127.0.0.1:0").unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        match client.call(&Request::Lookup { x: 0.1, y: 0.1 }).unwrap() {
            Response::Decision { decision } => assert_eq!(decision.leaf_id, 0),
            other => panic!("expected decision, got {other:?}"),
        }
        match client
            .call(&Request::LookupBatch {
                points: vec![WirePoint::new(0.1, 0.1), WirePoint::new(0.9, 0.9)],
            })
            .unwrap()
        {
            Response::Decisions { decisions } => assert_eq!(decisions.len(), 2),
            other => panic!("expected decisions, got {other:?}"),
        }
        match client
            .call(&Request::RangeQuery {
                rect: fsi_proto::WireRect::new(0.0, 0.0, 1.0, 1.0),
            })
            .unwrap()
        {
            Response::Regions { ids } => assert_eq!(ids, vec![0, 1, 2, 3]),
            other => panic!("expected regions, got {other:?}"),
        }
        match client.call(&Request::Stats).unwrap() {
            Response::Stats { stats } => assert_eq!(stats.shards, 1),
            other => panic!("expected stats, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn post_refuses_an_oversized_body_before_writing_a_byte() {
        // A bare listener that records every byte it receives: the
        // refusal has to come from the client, not from a reset under
        // an unfinished write.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = HttpClient::connect(listener.local_addr().unwrap()).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        let received = std::thread::spawn(move || {
            let mut bytes = Vec::new();
            peer.read_to_end(&mut bytes).map(|_| bytes.len())
        });
        // No answer ever comes, so a client that did send would time
        // out here instead of hanging the test.
        client
            .conn
            .get_ref()
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let too_big = MAX_BODY_BYTES + 1;
        let err = client.post(&" ".repeat(too_big)).unwrap_err().to_string();
        assert!(
            err.contains(&format!("{too_big} bytes")) && err.contains(&MAX_BODY_BYTES.to_string()),
            "{err}"
        );
        drop(client);
        assert_eq!(
            received.join().unwrap().unwrap(),
            0,
            "bytes reached the peer"
        );
    }

    #[test]
    fn application_errors_are_200_with_structured_bodies() {
        let server = HttpServer::bind(service(), "127.0.0.1:0").unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        match client.call(&Request::Lookup { x: 9.0, y: 9.0 }).unwrap() {
            Response::Error { error } => assert_eq!(error.code, ErrorCode::OutOfBounds),
            other => panic!("expected error, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn transport_failures_map_to_http_statuses() {
        let server = HttpServer::bind(service(), "127.0.0.1:0").unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        // Undecodable body → 400 with an error envelope.
        let (status, body) = client.post("this is not json").unwrap();
        assert_eq!(status, 400);
        match decode_response(&body).unwrap() {
            Response::Error { error } => assert_eq!(error.code, ErrorCode::MalformedRequest),
            other => panic!("expected error body, got {other:?}"),
        }
        // Wrong protocol version → 400 UnsupportedVersion.
        let wire = fsi_proto::encode_request(&Request::Stats).replace("\"v\":1", "\"v\":42");
        let (status, body) = client.post(&wire).unwrap();
        assert_eq!(status, 400);
        match decode_response(&body).unwrap() {
            Response::Error { error } => {
                assert_eq!(error.code, ErrorCode::UnsupportedVersion)
            }
            other => panic!("expected error body, got {other:?}"),
        }
        // The connection survived both failures.
        assert!(client.call(&Request::Stats).is_ok());
        server.shutdown();
    }

    #[test]
    fn wrong_method_and_path_answer_http_errors() {
        let server = HttpServer::bind(service(), "127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        write!(writer, "GET /query HTTP/1.1\r\nContent-Length: 0\r\n\r\n").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("405"), "{line}");
        server.shutdown();
    }

    /// Reads one framed response (status, body) from a raw connection.
    fn read_raw_response(reader: &mut BufReader<TcpStream>) -> (u16, String) {
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            reader.read_line(&mut header).unwrap();
            if header.trim().is_empty() {
                break;
            }
            if let Some((name, value)) = header.trim().split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().unwrap();
                }
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).unwrap();
        (status, String::from_utf8(body).unwrap())
    }

    #[test]
    fn rejected_requests_with_bodies_do_not_desync_keep_alive() {
        let server = HttpServer::bind(service(), "127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let body = fsi_proto::encode_request(&Request::Stats);
        // Both rejected requests carry bodies the server must consume,
        // or the valid request behind them would be parsed mid-body.
        write!(
            writer,
            "POST /nope HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        write!(
            writer,
            "PUT /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        write!(
            writer,
            "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        writer.flush().unwrap();

        let (status, _) = read_raw_response(&mut reader);
        assert_eq!(status, 404);
        let (status, _) = read_raw_response(&mut reader);
        assert_eq!(status, 405);
        let (status, wire) = read_raw_response(&mut reader);
        assert_eq!(status, 200, "keep-alive connection desynced: {wire}");
        assert!(matches!(
            decode_response(&wire).unwrap(),
            Response::Stats { .. }
        ));
        server.shutdown();
    }

    #[test]
    fn oversized_head_lines_close_the_connection_instead_of_growing() {
        let server = HttpServer::bind(service(), "127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        // One endless header line, far past the cap: the server must
        // hang up rather than buffer it.
        let chunk = [b'a'; 4096];
        let mut reader = BufReader::new(stream);
        writer
            .write_all(b"POST /query HTTP/1.1\r\nX-Flood: ")
            .unwrap();
        let mut closed = false;
        for _ in 0..32 {
            if writer
                .write_all(&chunk)
                .and_then(|()| writer.flush())
                .is_err()
            {
                closed = true; // server reset the connection mid-flood
                break;
            }
        }
        if !closed {
            // The server closes without answering; EOF (or a reset) is
            // the expected outcome, never a response.
            let mut line = String::new();
            closed = match reader.read_line(&mut line) {
                Ok(0) | Err(_) => true,
                Ok(_) => false,
            };
        }
        assert!(closed, "server kept buffering an unbounded head line");
        server.shutdown();
    }

    #[test]
    fn remote_shard_backend_forwards_and_degrades_gracefully() {
        let server = HttpServer::bind(service(), "127.0.0.1:0").unwrap();
        let addr = server.addr().to_string();
        let shard = RemoteShard::connect(&addr).unwrap();
        assert_eq!(
            shard.descriptor(),
            ShardDescriptor {
                kind: "http",
                addr: Some(addr.clone()),
            }
        );
        assert_eq!(shard.generation(), 1);
        match shard.dispatch(&Request::Lookup { x: 0.1, y: 0.1 }) {
            Response::Decision { decision } => assert_eq!(decision.leaf_id, 0),
            other => panic!("expected decision, got {other:?}"),
        }
        // Once the shard server is gone, dispatch answers a structured
        // Internal error (after one reconnect attempt) and the
        // generation reads as unreachable — the coordinator keeps
        // serving its other shards.
        server.shutdown();
        match shard.dispatch(&Request::Stats) {
            Response::Error { error } => {
                assert_eq!(error.code, ErrorCode::Internal);
                assert!(error.message.contains(&addr), "{}", error.message);
            }
            other => panic!("expected error, got {other:?}"),
        }
        assert_eq!(shard.generation(), 0);
        // Dialing a dead address fails eagerly at construction.
        assert!(matches!(
            RemoteShard::connect(&addr),
            Err(ServeError::Remote { .. })
        ));
    }

    #[test]
    fn query_once_works_without_a_persistent_client() {
        let server = HttpServer::bind(service(), "127.0.0.1:0").unwrap();
        let response = query_once(server.addr(), &Request::Stats).unwrap();
        assert!(matches!(response, Response::Stats { .. }));
        server.shutdown();
    }

    #[test]
    fn get_metrics_answers_the_text_exposition_outside_the_envelope() {
        let server = HttpServer::bind(service().with_lookup_sampling(1), "127.0.0.1:0").unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        for _ in 0..3 {
            client.call(&Request::Lookup { x: 0.1, y: 0.1 }).unwrap();
        }
        let text = scrape_metrics(server.addr()).unwrap();
        assert!(
            text.contains("fsi_requests_total{kind=\"lookup\"} 3"),
            "{text}"
        );
        assert!(text.contains("# TYPE fsi_request_latency_seconds summary"));
        assert!(text.contains("fsi_generation 1"));
        assert!(text.contains("fsi_http_connections_total"));
        assert!(text.contains("fsi_http_requests_total"));
        // The same keep-alive connection can scrape between envelope
        // requests without desyncing either framing.
        let (status, text) = client.get("/metrics").unwrap();
        assert_eq!(status, 200);
        assert!(text.contains("fsi_requests_total{kind=\"lookup\"} 3"));
        assert!(matches!(
            client.call(&Request::Stats).unwrap(),
            Response::Stats { .. }
        ));
        server.shutdown();
    }

    #[test]
    fn wire_metrics_responses_carry_the_http_transport_block() {
        let server = HttpServer::bind(service(), "127.0.0.1:0").unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        client.call(&Request::Lookup { x: 0.1, y: 0.1 }).unwrap();
        let Response::Metrics { metrics } = client.call(&Request::Metrics).unwrap() else {
            panic!("expected metrics");
        };
        let http = metrics.http.expect("transport block attached");
        assert!(http.connections >= 1, "{http:?}");
        assert!(http.active >= 1, "{http:?}");
        assert!(http.requests >= 2, "{http:?}");
        server.shutdown();
    }

    #[test]
    fn remote_shard_reports_transport_stats() {
        let server = HttpServer::bind(service(), "127.0.0.1:0").unwrap();
        let shard = RemoteShard::connect(&server.addr().to_string()).unwrap();
        shard.dispatch(&Request::Stats);
        assert_eq!(
            shard.transport_stats(),
            Some(TransportStats {
                reconnects: 0,
                failures: 0,
            })
        );
        server.shutdown();
        shard.dispatch(&Request::Stats);
        let stats = shard.transport_stats().unwrap();
        assert_eq!(stats.failures, 1, "{stats:?}");
        assert!(stats.reconnects >= 1, "{stats:?}");
    }

    #[test]
    fn remote_shard_keeps_its_connection_when_refusing_an_oversized_request() {
        let server = HttpServer::bind(service(), "127.0.0.1:0").unwrap();
        let shard = RemoteShard::connect(&server.addr().to_string()).unwrap();
        let points = vec![WirePoint::new(0.1, 0.1); MAX_BODY_BYTES / 16];
        match shard.dispatch(&Request::LookupBatch { points }) {
            Response::Error { error } => {
                assert!(error.message.contains("exceeds"), "{}", error.message)
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
        assert_eq!(shard.transport_stats().unwrap().reconnects, 0);
        // The next request rides the same keep-alive connection.
        assert!(matches!(
            shard.dispatch(&Request::Stats),
            Response::Stats { .. }
        ));
        let Response::Metrics { metrics } = shard.dispatch(&Request::Metrics) else {
            panic!("expected metrics");
        };
        assert_eq!(metrics.http.expect("transport block").connections, 1);
        assert_eq!(shard.transport_stats().unwrap().reconnects, 0);
        server.shutdown();
    }

    /// A one-connection peer that reads the client's request, answers
    /// with `respond`, then holds the socket until the client hangs up
    /// (so the client never reads a reset in place of the answer).
    fn hostile_peer(
        respond: impl FnOnce(&mut TcpStream) + Send + 'static,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut request = [0u8; 4096];
            let _ = stream.read(&mut request);
            respond(&mut stream);
            let _ = std::io::copy(&mut stream, &mut std::io::sink());
        });
        (addr, peer)
    }

    fn assert_invalid_data(result: Result<(u16, String), FsiError>) {
        match result {
            Err(FsiError::Io(e)) => assert_eq!(e.kind(), ErrorKind::InvalidData, "{e}"),
            other => panic!("expected an InvalidData error, got {other:?}"),
        }
    }

    #[test]
    fn client_refuses_a_content_length_it_cannot_hold() {
        let (addr, peer) = hostile_peer(|stream| {
            stream
                .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\n")
                .unwrap();
        });
        let mut client = HttpClient::connect(addr).unwrap();
        assert_invalid_data(client.post("{}"));
        drop(client);
        peer.join().unwrap();
    }

    #[test]
    fn client_refuses_an_endless_response_head_line() {
        let (addr, peer) = hostile_peer(|stream| {
            let _ = stream.write_all(b"HTTP/1.1 200 OK\r\nX-Flood: ");
            // Flood until the client hangs up.
            while stream.write_all(&[b'a'; 4096]).is_ok() {}
        });
        let mut client = HttpClient::connect(addr).unwrap();
        assert_invalid_data(client.post("{}"));
        drop(client);
        peer.join().unwrap();
    }

    #[test]
    fn client_reads_a_response_sent_one_byte_at_a_time() {
        let (addr, peer) = hostile_peer(|stream| {
            stream.set_nodelay(true).unwrap();
            let response = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                             Content-Length: 2\r\nConnection: keep-alive\r\n\r\n{}";
            for byte in response {
                stream.write_all(&[*byte]).unwrap();
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        let mut client = HttpClient::connect(addr).unwrap();
        assert_eq!(client.post("{}").unwrap(), (200, "{}".to_string()));
        drop(client);
        peer.join().unwrap();
    }

    #[test]
    fn client_refuses_a_response_without_a_content_length() {
        let (addr, peer) = hostile_peer(|stream| {
            stream
                .write_all(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n{}")
                .unwrap();
        });
        let mut client = HttpClient::connect(addr).unwrap();
        assert_invalid_data(client.post("{}"));
        drop(client);
        peer.join().unwrap();
    }

    /// Writes `request` on a fresh raw connection and reads until the
    /// server closes it, failing if the close takes over a second.
    fn exchange_until_close(server: &HttpServer, request: &[u8]) -> String {
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(1)))
            .unwrap();
        (&stream).write_all(request).unwrap();
        let mut text = String::new();
        if let Err(e) = (&stream).read_to_string(&mut text) {
            panic!("no EOF within 1 s ({e}) after {text:?}");
        }
        text
    }

    #[test]
    fn get_metrics_with_an_undrainable_length_answers_close_and_hangs_up() {
        let server = HttpServer::bind(service(), "127.0.0.1:0").unwrap();
        let text = exchange_until_close(
            &server,
            b"GET /metrics HTTP/1.1\r\nContent-Length: 1099511627776\r\n\r\n",
        );
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("\r\nConnection: close\r\n"), "{text}");
        server.shutdown();
    }

    #[test]
    fn http_1_0_and_connection_close_get_a_closing_answer() {
        let server = HttpServer::bind(service(), "127.0.0.1:0").unwrap();
        let body = fsi_proto::encode_request(&Request::Stats);
        for head in [
            "POST /query HTTP/1.0\r\n",
            "POST /query HTTP/1.1\r\nConnection: close\r\n",
        ] {
            let request = format!("{head}Content-Length: {}\r\n\r\n{body}", body.len());
            let text = exchange_until_close(&server, request.as_bytes());
            assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
            assert!(text.contains("\r\nConnection: close\r\n"), "{text}");
        }
        server.shutdown();
    }

    #[test]
    fn an_unparsable_content_length_gets_411_and_a_close() {
        let server = HttpServer::bind(service(), "127.0.0.1:0").unwrap();
        let text = exchange_until_close(
            &server,
            b"POST /query HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
        );
        assert!(
            text.starts_with("HTTP/1.1 411 Length Required\r\n"),
            "{text}"
        );
        assert!(text.contains("\r\nConnection: close\r\n"), "{text}");
        server.shutdown();
    }

    #[test]
    fn a_request_sent_in_slow_pieces_gets_the_same_answer_and_keeps_serving() {
        let server = HttpServer::bind(service(), "127.0.0.1:0").unwrap();
        let body = fsi_proto::encode_request(&Request::Lookup { x: 0.1, y: 0.1 });
        let expected = HttpClient::connect(server.addr())
            .unwrap()
            .post(&body)
            .unwrap();
        let request = format!(
            "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        // Pieces split the request line, the headers and the body, and
        // every pause outlasts a server read timeout.
        for piece in request.as_bytes().chunks(request.len() / 4 + 1) {
            (&stream).write_all(piece).unwrap();
            std::thread::sleep(POLL_INTERVAL + Duration::from_millis(30));
        }
        assert_eq!(read_raw_response(&mut reader), expected);
        (&stream).write_all(request.as_bytes()).unwrap();
        assert_eq!(read_raw_response(&mut reader), expected);
        server.shutdown();
    }

    #[test]
    fn more_than_max_headers_close_the_connection_without_an_answer() {
        let server = HttpServer::bind(service(), "127.0.0.1:0").unwrap();
        let body = fsi_proto::encode_request(&Request::Stats);
        // The status of the answer to a request with `headers` headers,
        // or `None` when the server hangs up instead.
        let status_with = |headers: usize| {
            let mut request = String::from("POST /query HTTP/1.1\r\n");
            for i in 1..headers {
                request.push_str(&format!("X-Filler-{i}: y\r\n"));
            }
            request.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
            let stream = TcpStream::connect(server.addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            (&stream).write_all(request.as_bytes()).unwrap();
            let mut line = String::new();
            match BufReader::new(&stream).read_line(&mut line) {
                Ok(0) | Err(_) => None,
                Ok(_) => Some(line.split_whitespace().nth(1).unwrap().to_string()),
            }
        };
        assert_eq!(status_with(MAX_HEADERS).as_deref(), Some("200"));
        assert_eq!(status_with(MAX_HEADERS + 1), None);
        server.shutdown();
    }

    #[test]
    fn shutdown_returns_promptly_with_clients_parked_mid_head_and_mid_body() {
        let server = HttpServer::bind(service(), "127.0.0.1:0").unwrap();
        let body = fsi_proto::encode_request(&Request::Stats);
        let request = format!(
            "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let parked: Vec<TcpStream> = [
            "POST /query HTTP/1.1\r\nContent-Le".to_string(),
            format!(
                "POST /query HTTP/1.1\r\nContent-Length: 100\r\n\r\n{}",
                &body[..5]
            ),
        ]
        .into_iter()
        .map(|partial| {
            let stream = TcpStream::connect(server.addr()).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            // One full exchange first, so a worker is serving this
            // connection before it stalls.
            (&stream).write_all(request.as_bytes()).unwrap();
            assert_eq!(read_raw_response(&mut reader).0, 200);
            (&stream).write_all(partial.as_bytes()).unwrap();
            stream
        })
        .collect();
        // Gives both workers time to take the partial bytes and block on
        // the rest; shutdown must return whichever read they are in.
        std::thread::sleep(POLL_INTERVAL * 2);
        let started = Instant::now();
        server.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "shutdown took {:?}",
            started.elapsed()
        );
        drop(parked);
    }
}
