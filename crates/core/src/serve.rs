//! `cluseq serve`: clustering as a service.
//!
//! The daemon loads a frozen model set (a `CSEQ` snapshot from
//! [`crate::persist`] or a `CCKP` checkpoint from [`crate::checkpoint`]),
//! binds one TCP port, and answers ASSIGN / SCORE / ANOMALY / INFO / SWAP
//! queries over a length-prefixed binary protocol
//! ([`protocol`]), with a minimal HTTP/1.1 JSON facade on the same port
//! for curl-ability ([the first byte of a connection decides: frame magic
//! → binary, anything else → HTTP](Server)).
//!
//! Three properties carry the subsystem, each with its own adversarial
//! test suite:
//!
//! - **Concurrent determinism** ([`engine`]): each connection handler
//!   scores its own requests against the model generation it pinned, and
//!   scoring is a pure function of (generation, query), so responses are
//!   bit-identical to offline scoring at any number of concurrent clients
//!   (`tests/serve_concurrent.rs`).
//! - **Epoch-pinned hot swap** ([`engine::ServeEngine::swap`] /
//!   SIGHUP): a generation switch is an `Arc` pointer swap; in-flight
//!   requests finish on the generation they pinned, every response carries
//!   its generation id, and zero requests drop (`tests/serve_swap.rs`).
//! - **A total protocol** ([`protocol`]): hostile bytes — truncation,
//!   oversized length prefixes, garbage magic, slow-loris stalls — get a
//!   well-formed error frame or a clean close, never a panic or a hang
//!   (`tests/serve_protocol.rs`).
//!
//! A fourth, optional, rides along: **request observability** ([`obs`]).
//! With a [`ServeObs`] bundle attached, every accepted request gets an id
//! and a five-stage timeline (accept → decode → scan → encode →
//! write-back) recorded into the sharded registry, outliers land in a
//! crash-safe slow-request log, and the HTTP facade grows `/healthz`,
//! `/readyz`, and the full `/metrics` series the `cluseq top` dashboard
//! reads. Without the bundle the daemon pays for none of it — not even
//! the clock reads.

pub mod client;
pub mod engine;
mod http;
pub mod model;
pub mod obs;
pub mod protocol;
pub mod signal;

use std::cell::RefCell;
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cluseq_seq::SequenceStore;

use crate::config::ScanKernel;
use crate::trace::stamp::Stamp;
use engine::{ServeEngine, Work};
use model::ServeModel;
use obs::{ObsLocal, RequestRecord, ServeObs, ServeOp, StageNanos};
use protocol::{errcode, parse_header, ProtoError, Request, Response, FRAME_MAGIC};

/// How often blocked reads wake to check the stop flag.
const POLL: Duration = Duration::from_millis(100);

/// How the daemon binds and times out.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Which scan kernel answers queries.
    pub kernel: ScanKernel,
    /// Once a frame (or HTTP request) has *started* arriving, how long the
    /// rest may take — the slow-loris cutoff. Idle connections are not
    /// subject to it.
    pub frame_timeout: Duration,
    /// Spawn the signal watcher: SIGHUP reloads the model from its source
    /// path, SIGTERM initiates a graceful drain (unix only; ignored
    /// elsewhere).
    pub watch_sighup: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            kernel: ScanKernel::default(),
            frame_timeout: Duration::from_secs(5),
            watch_sighup: false,
        }
    }
}

/// The serve daemon's TCP front door.
///
/// [`Server::start`] binds the port, builds the [`ServeEngine`], and
/// spawns the accept loop, which gives every connection a handler thread
/// that answers its requests; the returned [`ServerHandle`] owns every
/// thread and tears them down in drain order.
pub struct Server;

impl Server {
    /// Starts serving `model` under `config`. `db` is kept for hot-swaps
    /// to CCKP checkpoints — any [`SequenceStore`] works, and a
    /// file-backed one keeps the daemon's resident footprint bounded by
    /// the model rather than the corpus; `obs` (when given) receives the
    /// full request observability stream: per-opcode counters, stage
    /// timelines, the slow-request log, and the serve trace events.
    pub fn start(
        model: ServeModel,
        db: Option<Box<dyn SequenceStore + Send>>,
        config: &ServeConfig,
        obs: Option<Arc<ServeObs>>,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        if let Some(o) = &obs {
            // Calibrate the stamp clock up front so the first traced
            // request doesn't eat the ~2ms spin.
            crate::trace::stamp::calibrate();
            o.event_serve_start(
                &addr.to_string(),
                &config.kernel.to_string(),
                model.generation,
                model.saved.cluster_count() as u32,
            );
        }
        let engine = Arc::new(ServeEngine::new(model, db, obs.clone()));
        let stop = Arc::new(AtomicBool::new(false));

        let accept = {
            let stop = Arc::clone(&stop);
            let engine = Arc::clone(&engine);
            let obs = obs.clone();
            let frame_timeout = config.frame_timeout;
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(listener, stop, engine, obs, frame_timeout, addr))?
        };

        let hup = if config.watch_sighup && signal::install() {
            let term_installed = signal::install_term();
            let stop = Arc::clone(&stop);
            let engine = Arc::clone(&engine);
            Some(
                std::thread::Builder::new()
                    .name("serve-signal".into())
                    .spawn(move || {
                        while !stop.load(Ordering::SeqCst) {
                            if signal::take() {
                                match engine.reload() {
                                    Ok((generation, clusters)) => eprintln!(
                                        "serve: SIGHUP reload -> generation {generation} \
                                         ({clusters} clusters)"
                                    ),
                                    Err(e) => eprintln!(
                                        "serve: SIGHUP reload failed ({e}); previous \
                                         generation keeps serving"
                                    ),
                                }
                            }
                            if term_installed && signal::take_term() {
                                eprintln!("serve: SIGTERM -> graceful drain");
                                stop.store(true, Ordering::SeqCst);
                                wake(addr);
                            }
                            std::thread::sleep(POLL);
                        }
                    })?,
            )
        } else {
            None
        };

        Ok(ServerHandle {
            addr,
            stop,
            accept: Some(accept),
            hup,
            engine,
            obs,
        })
    }
}

/// A running daemon; owns the accept loop, connection handlers (via the
/// accept loop), and the optional signal watcher.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    hup: Option<JoinHandle<()>>,
    engine: Arc<ServeEngine>,
    obs: Option<Arc<ServeObs>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The address actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The serving core (generation queries, in-process swaps).
    pub fn engine(&self) -> &Arc<ServeEngine> {
        &self.engine
    }

    /// Live model generation.
    pub fn generation(&self) -> u64 {
        self.engine.generation()
    }

    /// Blocks until the daemon stops — via a client SHUTDOWN frame, a
    /// SIGTERM, or [`ServerHandle::shutdown`] from another thread — then
    /// completes the drain. The CLI parks on this.
    pub fn wait(mut self) {
        self.finish();
    }

    /// Initiates a graceful stop and drains: no new connections, existing
    /// handlers and connections still in the accept backlog get one grace
    /// poll to pick up already-sent frames, and every request a handler
    /// has read is scored and answered before its handler exits.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        wake(self.addr);
        self.finish();
    }

    fn finish(&mut self) {
        // The accept thread joins every connection handler before it
        // exits, so once it is joined no request is left unanswered.
        let Some(accept) = self.accept.take() else {
            return;
        };
        let _ = accept.join();
        self.stop.store(true, Ordering::SeqCst);
        if let Some(hup) = self.hup.take() {
            let _ = hup.join();
        }
        // The drain is complete: snapshot the registry into the serve
        // trace (`serve_end`) and make both JSONL streams durable.
        if let Some(o) = &self.obs {
            o.event_serve_end();
            o.sync();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        wake(self.addr);
        self.finish();
    }
}

/// Wakes a blocking `accept` with a throwaway connection (the exporter's
/// pattern), mapping unspecified bind IPs to loopback.
fn wake(mut addr: SocketAddr) {
    match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => addr.set_ip(IpAddr::V4(Ipv4Addr::LOCALHOST)),
        IpAddr::V6(ip) if ip.is_unspecified() => addr.set_ip(IpAddr::V6(Ipv6Addr::LOCALHOST)),
        _ => {}
    }
    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
}

fn accept_loop(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    engine: Arc<ServeEngine>,
    obs: Option<Arc<ServeObs>>,
    frame_timeout: Duration,
    addr: SocketAddr,
) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    let mut serve = |stream: TcpStream| {
        handlers.retain(|h| !h.is_finished());
        let shard = obs.as_ref().map_or(0, |o| o.conn_shard());
        let conn = Connection {
            engine: Arc::clone(&engine),
            obs: obs.clone(),
            shard,
            local: RefCell::new(ObsLocal::new()),
            stop: Arc::clone(&stop),
            frame_timeout,
            server_addr: addr,
        };
        // A spawn failure drops the connection.
        if let Ok(handle) = std::thread::Builder::new()
            .name("serve-conn".into())
            .spawn(move || conn.run(stream))
        {
            handlers.push(handle);
        }
    };
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                // The stream that wakes us after a stop may be a real
                // client, so it is served like any other.
                let stopping = stop.load(Ordering::SeqCst);
                serve(stream);
                if stopping {
                    break;
                }
            }
            Err(_) if stop.load(Ordering::SeqCst) => break,
            Err(_) => {}
        }
    }
    // Clients still in the backlog may have sent their frames already;
    // dropping the listener would reset them. Accept until the backlog is
    // empty, and let each handler's grace poll answer what has arrived.
    if listener.set_nonblocking(true).is_ok() {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(false).is_ok() {
                        serve(stream);
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted
                    ) => {}
                // `WouldBlock`: the backlog is empty.
                Err(_) => break,
            }
        }
    }
    for handle in handlers {
        let _ = handle.join();
    }
}

/// Per-connection state: one handler thread per accepted stream.
struct Connection {
    engine: Arc<ServeEngine>,
    obs: Option<Arc<ServeObs>>,
    /// This connection's registry shard (see [`ServeObs::conn_shard`]).
    shard: usize,
    /// This connection's histogram buffer (see
    /// [`ServeObs::record_buffered`]); flushed when the handler exits.
    local: RefCell<ObsLocal>,
    stop: Arc<AtomicBool>,
    frame_timeout: Duration,
    server_addr: SocketAddr,
}

enum FirstByte {
    Byte(u8),
    Closed,
    Stopping,
}

enum Filled {
    Done,
    Closed,
    TimedOut,
}

/// A traced request's timeline as far as its handler has got: its id and
/// one stamp per stage boundary crossed. Absent when observability is
/// off — and with it every clock read on the request path.
#[derive(Clone, Copy)]
struct Timeline {
    request_id: u64,
    transport: &'static str,
    start: Stamp,
    decode_start: Stamp,
    scan_start: Stamp,
}

impl Timeline {
    /// Starts the timeline of a request whose first byte has arrived.
    fn begin(obs: Option<&Arc<ServeObs>>, transport: &'static str) -> Option<Self> {
        obs.map(|o| {
            let now = Stamp::now();
            Timeline {
                request_id: o.next_request_id(),
                transport,
                start: now,
                decode_start: now,
                scan_start: now,
            }
        })
    }

    /// The request is fully read: accept ends and decode begins.
    fn decoding(self) -> Self {
        Timeline {
            decode_start: Stamp::now(),
            ..self
        }
    }

    /// The request is decoded: decode ends and answering it begins.
    fn scanning(self) -> Self {
        Timeline {
            scan_start: Stamp::now(),
            ..self
        }
    }
}

/// What a request's record holds besides its id and stage timings.
struct Outcome {
    op: ServeOp,
    seq_len: usize,
    generation: Option<u64>,
    error: bool,
}

impl Outcome {
    /// The outcome of an opcode answered with `response`.
    fn of(op: ServeOp, seq_len: usize, response: &Response) -> Self {
        Outcome {
            op,
            seq_len,
            generation: response.generation(),
            error: matches!(response, Response::Error { .. }),
        }
    }

    /// An opcode that failed before any generation answered it.
    fn failed(op: ServeOp) -> Self {
        Outcome {
            op,
            seq_len: 0,
            generation: None,
            error: true,
        }
    }
}

impl Connection {
    fn run(&self, mut stream: TcpStream) {
        loop {
            let first = match self.idle_first_byte(&mut stream) {
                Ok(b) => b,
                Err(_) => return,
            };
            match first {
                FirstByte::Closed | FirstByte::Stopping => return,
                FirstByte::Byte(b) if b == FRAME_MAGIC[0] => {
                    if !self.serve_frame(&mut stream, b) {
                        return;
                    }
                }
                FirstByte::Byte(b) => {
                    // Not frame magic: one HTTP request, then close.
                    let deadline = Instant::now() + self.frame_timeout;
                    http::handle(self, &mut stream, b, deadline);
                    return;
                }
            }
        }
    }

    /// Waits for the first byte of the next request. Idle waiting is
    /// unbounded but polls the stop flag; after observing stop it grants
    /// one extra poll interval so a frame already in the socket buffer
    /// still gets served (the drain grace).
    fn idle_first_byte(&self, stream: &mut TcpStream) -> io::Result<FirstByte> {
        let mut grace_used = false;
        let mut buf = [0u8; 1];
        loop {
            stream.set_read_timeout(Some(POLL))?;
            match stream.read(&mut buf) {
                Ok(0) => return Ok(FirstByte::Closed),
                Ok(_) => return Ok(FirstByte::Byte(buf[0])),
                Err(e) if is_timeout(&e) => {
                    if self.stop.load(Ordering::SeqCst) {
                        if grace_used {
                            return Ok(FirstByte::Stopping);
                        }
                        grace_used = true;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Reads exactly `buf` from the stream before `deadline`.
    fn fill(&self, stream: &mut TcpStream, buf: &mut [u8], deadline: Instant) -> Filled {
        let mut got = 0;
        while got < buf.len() {
            let now = Instant::now();
            if now >= deadline {
                return Filled::TimedOut;
            }
            if stream
                .set_read_timeout(Some((deadline - now).min(POLL)))
                .is_err()
            {
                return Filled::Closed;
            }
            match stream.read(&mut buf[got..]) {
                Ok(0) => return Filled::Closed,
                Ok(n) => got += n,
                Err(e) if is_timeout(&e) || e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Filled::Closed,
            }
        }
        Filled::Done
    }

    /// Serves one binary frame whose first byte already arrived.
    /// Returns whether the connection should keep going.
    fn serve_frame(&self, stream: &mut TcpStream, first: u8) -> bool {
        let timeline = Timeline::begin(self.obs.as_ref(), "binary");
        let deadline = Instant::now() + self.frame_timeout;
        let mut header = [0u8; 8];
        header[0] = first;
        match self.fill(stream, &mut header[1..], deadline) {
            Filled::Done => {}
            Filled::Closed => return false,
            Filled::TimedOut => {
                self.send_error(stream, errcode::TIMEOUT, "frame header stalled");
                return false;
            }
        }
        let len = match parse_header(&header) {
            Ok(len) => len as usize,
            Err(ProtoError::Oversized(n)) => {
                // Rejected from the header alone — the payload was never
                // allocated or read.
                self.send_error(
                    stream,
                    errcode::OVERSIZED,
                    &format!("length prefix {n} exceeds cap"),
                );
                return false;
            }
            Err(_) => {
                self.send_error(stream, errcode::BAD_MAGIC, "bad frame magic");
                return false;
            }
        };
        let mut payload = vec![0u8; len];
        match self.fill(stream, &mut payload, deadline) {
            Filled::Done => {}
            Filled::Closed => return false,
            Filled::TimedOut => {
                self.send_error(stream, errcode::TIMEOUT, "frame payload stalled");
                return false;
            }
        }
        let timeline = timeline.map(Timeline::decoding);
        let request = match Request::decode_payload(&payload) {
            Ok(request) => request,
            Err(ProtoError::BadTag(op)) => {
                self.send_error(
                    stream,
                    errcode::BAD_OP,
                    &format!("unknown opcode {op:#04x}"),
                );
                return true; // framing is intact; the connection survives
            }
            Err(e) => {
                self.send_error(stream, errcode::MALFORMED, &e.to_string());
                return true;
            }
        };
        self.dispatch(stream, request, timeline)
    }

    /// Answers one decoded request on this thread. Returns whether to keep
    /// the connection open.
    fn dispatch(
        &self,
        stream: &mut TcpStream,
        request: Request,
        timeline: Option<Timeline>,
    ) -> bool {
        let timeline = timeline.map(Timeline::scanning);
        let engine = &self.engine;
        let (op, seq_len, response) = match request {
            Request::Assign { seq } => (
                ServeOp::Assign,
                seq.len(),
                engine.answer(&Work::Assign(seq)),
            ),
            Request::Score { seq } => (ServeOp::Score, seq.len(), engine.answer(&Work::Score(seq))),
            Request::Anomaly { seq, threshold } => (
                ServeOp::Anomaly,
                seq.len(),
                engine.answer(&Work::Anomaly(seq, threshold)),
            ),
            Request::Info => (ServeOp::Info, 0, engine.current().info()),
            Request::Swap { path } => (
                ServeOp::Swap,
                0,
                match engine.swap(Path::new(&path)) {
                    Ok((generation, clusters)) => Response::Swapped {
                        generation,
                        clusters,
                    },
                    Err(message) => Response::Error {
                        code: errcode::SWAP_FAILED,
                        message,
                    },
                },
            ),
            Request::Shutdown => (ServeOp::Shutdown, 0, Response::ShuttingDown),
        };
        let sent = self.reply(
            stream,
            Outcome::of(op, seq_len, &response),
            timeline,
            || response.encode_frame(),
        );
        if op == ServeOp::Shutdown {
            self.stop.store(true, Ordering::SeqCst);
            wake(self.server_addr);
            return false;
        }
        sent
    }

    /// Writes one answered request, `encode` producing its bytes. With
    /// observability on, counts the request before its bytes leave (a
    /// client that has read its answer must find it in `/metrics`), times
    /// the encode and write-back stages, and records the complete
    /// timeline after the write. Returns write success (keep the
    /// connection).
    fn reply(
        &self,
        stream: &mut TcpStream,
        outcome: Outcome,
        timeline: Option<Timeline>,
        encode: impl FnOnce() -> Vec<u8>,
    ) -> bool {
        let (Some(obs), Some(t)) = (&self.obs, timeline) else {
            return stream.write_all(&encode()).is_ok();
        };
        obs.count(self.shard, outcome.op, outcome.error);
        let encode_start = Stamp::now();
        let bytes = encode();
        let write_start = Stamp::now();
        let ok = stream.write_all(&bytes).is_ok();
        let stages = StageNanos {
            accept: t.decode_start.nanos_since(t.start),
            decode: t.scan_start.nanos_since(t.decode_start),
            scan: encode_start.nanos_since(t.scan_start),
            encode: write_start.nanos_since(encode_start),
            write_back: Stamp::now().nanos_since(write_start),
        };
        obs.record_buffered(
            self.shard,
            &mut self.local.borrow_mut(),
            &RequestRecord {
                request_id: t.request_id,
                op: outcome.op,
                transport: t.transport,
                generation: outcome.generation,
                seq_len: outcome.seq_len,
                error: outcome.error,
                stages,
            },
        );
        ok
    }

    /// A protocol-level failure (framing, timeout, bad opcode): the
    /// request never reached an opcode, so it counts against the
    /// aggregate error total only.
    fn send_error(&self, stream: &mut TcpStream, code: u16, message: &str) {
        if let Some(o) = &self.obs {
            o.record_meta(true);
        }
        let response = Response::Error {
            code,
            message: message.into(),
        };
        let _ = stream.write_all(&response.encode_frame());
    }
}

impl Drop for Connection {
    /// Drains any histogram observations still buffered when the handler
    /// exits, so registry totals are complete once every connection has
    /// closed (the shutdown snapshot joins the handlers first).
    fn drop(&mut self) {
        if let Some(obs) = &self.obs {
            obs.flush_local(self.shard, &mut self.local.borrow_mut());
        }
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}
