//! Request observability for the serve daemon: request ids, per-stage
//! timelines, per-opcode counters and latency histograms, the crash-safe
//! slow-request log, and the serve JSONL trace stream.
//!
//! One [`ServeObs`] bundle is shared by the accept loop and every
//! connection handler. All hot-path state lives in the sharded
//! [`TraceShared`] registry (relaxed atomics, no locks), so recording a
//! request never blocks another; the two JSONL sinks (slow log and serve
//! trace) are mutex-guarded but off the common path — the slow log is
//! only touched by outliers and the trace stream only by lifecycle
//! events (start, swap, end).
//!
//! # Request lifecycle
//!
//! Every accepted request is assigned a process-unique id and timed
//! through five stages, all on the connection handler thread that owns
//! it (binary framing or the HTTP facade):
//!
//! ```text
//! accept → decode → scan → encode → write_back
//! ```
//!
//! One stamp closes each stage and opens the next. `scan` is answering
//! the request: scoring for ASSIGN/SCORE/ANOMALY, the INFO snapshot, the
//! SWAP load, or nothing for SHUTDOWN.
//!
//! # Determinism
//!
//! Counter totals (per-opcode and aggregate) and histogram *observation
//! counts* are bit-identical however the same requests are spread over
//! concurrent connections — every completed request is recorded exactly
//! once, from the one handler that owns it. Bucket placement is
//! wall-clock and therefore not part of the contract; nor is
//! [`Counter::ServeSlow`], which depends on measured latency.
//! `tests/serve_obs.rs` enforces the deterministic half.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::trace::sink::{append_event, JsonlSink};
use crate::trace::{Counter, HistKind, TraceShared, HIST_BUCKETS, SHARDS};

/// The serve opcodes, as observability sees them (one label per opcode,
/// both transports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOp {
    /// ASSIGN / `POST /assign`.
    Assign,
    /// SCORE / `POST /score`.
    Score,
    /// ANOMALY / `POST /anomaly`.
    Anomaly,
    /// INFO / `GET /info`.
    Info,
    /// SWAP / `POST /swap`.
    Swap,
    /// SHUTDOWN.
    Shutdown,
}

impl ServeOp {
    /// Every opcode, in display order.
    pub const ALL: [ServeOp; 6] = [
        ServeOp::Assign,
        ServeOp::Score,
        ServeOp::Anomaly,
        ServeOp::Info,
        ServeOp::Swap,
        ServeOp::Shutdown,
    ];

    /// The opcode's stable snake_case label.
    pub fn as_str(self) -> &'static str {
        match self {
            ServeOp::Assign => "assign",
            ServeOp::Score => "score",
            ServeOp::Anomaly => "anomaly",
            ServeOp::Info => "info",
            ServeOp::Swap => "swap",
            ServeOp::Shutdown => "shutdown",
        }
    }

    /// The per-opcode completion counter.
    pub fn counter(self) -> Counter {
        match self {
            ServeOp::Assign => Counter::ServeAssign,
            ServeOp::Score => Counter::ServeScore,
            ServeOp::Anomaly => Counter::ServeAnomaly,
            ServeOp::Info => Counter::ServeInfo,
            ServeOp::Swap => Counter::ServeSwapRequests,
            ServeOp::Shutdown => Counter::ServeShutdown,
        }
    }

    /// The per-opcode end-to-end latency histogram (admin opcodes share
    /// one).
    pub fn hist(self) -> HistKind {
        match self {
            ServeOp::Assign => HistKind::ServeAssign,
            ServeOp::Score => HistKind::ServeScore,
            ServeOp::Anomaly => HistKind::ServeAnomaly,
            ServeOp::Info | ServeOp::Swap | ServeOp::Shutdown => HistKind::ServeAdmin,
        }
    }
}

/// One request's per-stage wall time, nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageNanos {
    /// Reading the rest of the request off the socket after its first
    /// byte.
    pub accept: u64,
    /// Decoding and validating the payload.
    pub decode: u64,
    /// Answering the request against the pinned model generation.
    pub scan: u64,
    /// Encoding the response.
    pub encode: u64,
    /// Writing the response back to the socket.
    pub write_back: u64,
}

impl StageNanos {
    /// The summed end-to-end latency.
    pub fn total(&self) -> u64 {
        self.accept
            .saturating_add(self.decode)
            .saturating_add(self.scan)
            .saturating_add(self.encode)
            .saturating_add(self.write_back)
    }

    /// `(name, nanos)` pairs in lifecycle order.
    pub fn named(&self) -> [(&'static str, u64); 5] {
        [
            ("accept", self.accept),
            ("decode", self.decode),
            ("scan", self.scan),
            ("encode", self.encode),
            ("write_back", self.write_back),
        ]
    }
}

/// Everything [`ServeObs::record`] needs about one completed request.
#[derive(Debug, Clone, Copy)]
pub struct RequestRecord {
    /// The id assigned when the request's first byte arrived.
    pub request_id: u64,
    /// Which opcode this was.
    pub op: ServeOp,
    /// `"binary"` or `"http"`.
    pub transport: &'static str,
    /// The generation that answered, when the response carries one.
    pub generation: Option<u64>,
    /// Query length in symbols (0 for admin opcodes).
    pub seq_len: usize,
    /// Whether the request ended in an error response.
    pub error: bool,
    /// The stage timeline.
    pub stages: StageNanos,
}

/// A connection-local buffer of pending histogram observations (see
/// [`ServeObs::record_buffered`]). Bucket counts and sums accumulate in
/// plain memory and merge into the sharded registry in batches, cutting
/// the hot path's atomic RMW count by roughly ten per request.
#[derive(Debug)]
pub struct ObsLocal {
    counts: [[u32; HIST_BUCKETS]; HistKind::ALL.len()],
    sums: [u64; HistKind::ALL.len()],
    /// Bit `h` set when histogram `h` holds unflushed observations (a
    /// zero-valued observation leaves the sum at zero, so the sums alone
    /// can't tell).
    dirty: u32,
    /// Records buffered since the last flush.
    pending: u32,
}

impl ObsLocal {
    /// Flush after this many buffered records: small enough that a
    /// scrape mid-burst lags each open connection by at most a few dozen
    /// observations, large enough to amortize the merge to noise.
    pub const FLUSH_EVERY: u32 = 32;

    /// An empty buffer.
    pub fn new() -> Self {
        Self {
            counts: [[0; HIST_BUCKETS]; HistKind::ALL.len()],
            sums: [0; HistKind::ALL.len()],
            dirty: 0,
            pending: 0,
        }
    }

    fn observe(&mut self, hist: HistKind, nanos: u64) {
        let h = hist.index();
        self.counts[h][crate::trace::bucket_index(nanos)] += 1;
        self.sums[h] = self.sums[h].wrapping_add(nanos);
        self.dirty |= 1 << h;
    }

    fn flush_into(&mut self, trace: &TraceShared, shard: usize) {
        let mut dirty = self.dirty;
        while dirty != 0 {
            let h = dirty.trailing_zeros() as usize;
            dirty &= dirty - 1;
            trace.hist_merge(HistKind::ALL[h], shard, &self.counts[h], self.sums[h]);
            self.counts[h] = [0; HIST_BUCKETS];
            self.sums[h] = 0;
        }
        self.dirty = 0;
        self.pending = 0;
    }
}

impl Default for ObsLocal {
    fn default() -> Self {
        Self::new()
    }
}

/// Configuration for [`ServeObs::new`]; all parts optional.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Append slow-request JSONL records here (torn-tail repaired on
    /// open, like every trace stream).
    pub slow_log: Option<PathBuf>,
    /// A request whose end-to-end latency reaches this duration is
    /// counted slow (and logged when `slow_log` is set).
    pub slow_threshold: Duration,
    /// Append serve lifecycle events (`serve_start`, `serve_swap`,
    /// `serve_end` with a full registry snapshot) here, for offline
    /// `trace-summary` inspection.
    pub trace_jsonl: Option<PathBuf>,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            slow_log: None,
            slow_threshold: Duration::from_millis(100),
            trace_jsonl: None,
        }
    }
}

/// The serve daemon's observability bundle: registry plus the optional
/// slow-request log and serve trace stream.
pub struct ServeObs {
    trace: Arc<TraceShared>,
    slow: Option<Mutex<JsonlSink>>,
    slow_threshold_nanos: u64,
    sink: Option<Mutex<JsonlSink>>,
    next_request_id: AtomicU64,
    next_conn_shard: AtomicU64,
}

impl std::fmt::Debug for ServeObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeObs")
            .field("slow_threshold_nanos", &self.slow_threshold_nanos)
            .finish_non_exhaustive()
    }
}

impl ServeObs {
    /// Builds the bundle around a shared registry, opening (or
    /// continuing, torn tail repaired) the configured JSONL files.
    pub fn new(trace: Arc<TraceShared>, config: &ObsConfig) -> io::Result<Self> {
        let slow = match &config.slow_log {
            Some(path) => Some(Mutex::new(JsonlSink::open_append(path)?)),
            None => None,
        };
        let sink = match &config.trace_jsonl {
            Some(path) => Some(Mutex::new(JsonlSink::open_append(path)?)),
            None => None,
        };
        Ok(Self {
            trace,
            slow,
            slow_threshold_nanos: crate::trace::saturating_nanos(config.slow_threshold),
            sink,
            next_request_id: AtomicU64::new(0),
            next_conn_shard: AtomicU64::new(0),
        })
    }

    /// A registry-only bundle (no files): what the overhead bench and
    /// most tests use.
    pub fn in_memory(trace: Arc<TraceShared>) -> Self {
        Self::new(trace, &ObsConfig::default()).expect("no I/O in a file-less ObsConfig")
    }

    /// The shared registry (what `/metrics` renders).
    pub fn registry(&self) -> &Arc<TraceShared> {
        &self.trace
    }

    /// The slow-request threshold, nanoseconds.
    pub fn slow_threshold_nanos(&self) -> u64 {
        self.slow_threshold_nanos
    }

    /// Assigns the next request id (process-unique, monotonically
    /// increasing from 0).
    pub fn next_request_id(&self) -> u64 {
        self.next_request_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Assigns a registry shard to a long-lived connection. Spreading by
    /// connection rather than by request keeps each handler's counter and
    /// histogram cache lines hot across its requests while still
    /// splitting concurrent handlers onto different shards.
    pub fn conn_shard(&self) -> usize {
        (self.next_conn_shard.fetch_add(1, Ordering::Relaxed) as usize) % SHARDS
    }

    /// Records one completed request in a single call: per-opcode and
    /// aggregate counters, the end-to-end and stage histograms, and the
    /// slow-request check — the unbuffered equivalent of the
    /// [`Self::count`] plus [`Self::record_buffered`] pair that connection
    /// handlers use.
    pub fn record(&self, record: &RequestRecord) {
        self.record_at((record.request_id as usize) % SHARDS, record);
    }

    /// [`Self::record`] onto an explicit registry shard. Shard choice
    /// never changes any total: the registry sums shards on read.
    pub fn record_at(&self, shard: usize, record: &RequestRecord) {
        self.count(shard, record.op, record.error);
        let t = &self.trace;
        self.record_with(shard, record, &mut |hist, nanos| {
            t.observe(hist, shard, nanos);
        });
    }

    /// Counts one request: its per-opcode counter and the aggregate
    /// request or error total. A handler calls this *before* the response
    /// bytes leave, so a client that has read its answer always finds the
    /// request counted in `/metrics`; the timeline follows through
    /// [`Self::record_buffered`] once the write-back is timed.
    pub fn count(&self, shard: usize, op: ServeOp, error: bool) {
        let t = &self.trace;
        t.add_at(shard, op.counter(), 1);
        t.add_at(
            shard,
            if error {
                Counter::ServeErrors
            } else {
                Counter::ServeRequests
            },
            1,
        );
    }

    /// The timeline half of [`Self::record_at`] for a request already
    /// [counted](Self::count), with the histogram observations buffered
    /// in `local` instead of hitting the registry — the per-request cost
    /// drops from ~10 atomic RMWs to plain stores. The slow-request check
    /// stays direct; histogram totals lag by at most
    /// [`ObsLocal::FLUSH_EVERY`] requests per open connection and catch
    /// up when the connection flushes (every `FLUSH_EVERY` records and on
    /// close).
    pub fn record_buffered(&self, shard: usize, local: &mut ObsLocal, record: &RequestRecord) {
        self.record_with(shard, record, &mut |hist, nanos| {
            local.observe(hist, nanos);
        });
        local.pending += 1;
        if local.pending >= ObsLocal::FLUSH_EVERY {
            self.flush_local(shard, local);
        }
    }

    /// Drains a connection's buffered histogram observations into the
    /// registry. Connection handlers call this when they close; totals
    /// are complete once every handler has exited.
    pub fn flush_local(&self, shard: usize, local: &mut ObsLocal) {
        local.flush_into(&self.trace, shard);
    }

    /// The one timeline body: the slow check goes straight to the
    /// registry; histogram observations go wherever `observe` points (the
    /// registry for [`Self::record_at`], a connection-local buffer for
    /// [`Self::record_buffered`]).
    fn record_with(
        &self,
        shard: usize,
        record: &RequestRecord,
        observe: &mut impl FnMut(HistKind, u64),
    ) {
        let t = &self.trace;
        let total = record.stages.total();
        observe(record.op.hist(), total);
        observe(HistKind::ServeAccept, record.stages.accept);
        observe(HistKind::ServeDecode, record.stages.decode);
        observe(HistKind::ServeScan, record.stages.scan);
        observe(HistKind::ServeEncode, record.stages.encode);
        observe(HistKind::ServeWriteBack, record.stages.write_back);
        if total >= self.slow_threshold_nanos {
            t.add_at(shard, Counter::ServeSlow, 1);
            self.log_slow(record, total);
        }
    }

    /// Records a request that never reached an opcode: facade meta
    /// endpoints (`/metrics`, `/healthz`, `/readyz`) and protocol-level
    /// error frames. Feeds only the aggregate counters.
    pub fn record_meta(&self, error: bool) {
        self.trace.add(
            if error {
                Counter::ServeErrors
            } else {
                Counter::ServeRequests
            },
            1,
        );
    }

    /// Appends one slow-request record and syncs it to disk immediately:
    /// outliers are rare, so per-record durability costs nothing
    /// measurable, and a crash right after a tail-latency spike — the
    /// moment an operator most wants the evidence — cannot lose it.
    fn log_slow(&self, record: &RequestRecord, total: u64) {
        append_event(self.slow.as_ref(), |w| {
            w.field_str("event", "slow_request");
            w.field_u64("request_id", record.request_id);
            w.field_str("op", record.op.as_str());
            w.field_str("transport", record.transport);
            match record.generation {
                Some(g) => w.field_u64("generation", g),
                None => w.field_null("generation"),
            }
            w.field_usize("seq_len", record.seq_len);
            w.field_bool("error", record.error);
            w.field_u64("total_nanos", total);
            w.field_u64("threshold_nanos", self.slow_threshold_nanos);
            w.key("stage_nanos");
            w.begin_obj();
            for (name, nanos) in record.stages.named() {
                w.field_u64(name, nanos);
            }
            w.end_obj();
        });
    }

    /// Emits the `serve_start` lifecycle event.
    pub fn event_serve_start(&self, addr: &str, kernel: &str, generation: u64, clusters: u32) {
        append_event(self.sink.as_ref(), |w| {
            w.field_str("event", "serve_start");
            w.field_str("addr", addr);
            w.field_str("kernel", kernel);
            w.field_u64("generation", generation);
            w.field_u64("clusters", u64::from(clusters));
        });
    }

    /// Emits the `serve_swap` lifecycle event (after a successful swap).
    pub fn event_serve_swap(&self, generation: u64, clusters: u32) {
        append_event(self.sink.as_ref(), |w| {
            w.field_str("event", "serve_swap");
            w.field_u64("generation", generation);
            w.field_u64("clusters", u64::from(clusters));
        });
    }

    /// The registry snapshot `serve_end` carries and `trace-summary`
    /// renders: every serve counter, and bucket counts plus sums for
    /// every serve histogram.
    const SNAPSHOT_COUNTERS: [Counter; 10] = [
        Counter::ServeRequests,
        Counter::ServeErrors,
        Counter::ServeSwaps,
        Counter::ServeAssign,
        Counter::ServeScore,
        Counter::ServeAnomaly,
        Counter::ServeInfo,
        Counter::ServeSwapRequests,
        Counter::ServeShutdown,
        Counter::ServeSlow,
    ];

    /// The histograms snapshotted into `serve_end`.
    const SNAPSHOT_HISTS: [HistKind; 9] = [
        HistKind::ServeAssign,
        HistKind::ServeScore,
        HistKind::ServeAnomaly,
        HistKind::ServeAdmin,
        HistKind::ServeAccept,
        HistKind::ServeDecode,
        HistKind::ServeScan,
        HistKind::ServeEncode,
        HistKind::ServeWriteBack,
    ];

    /// Emits the `serve_end` lifecycle event: a full snapshot of the
    /// serve counters and histograms, so a trace file is a complete
    /// offline record of the daemon's run.
    pub fn event_serve_end(&self) {
        if self.sink.is_none() {
            return;
        }
        // Snapshot outside the emit closure so the sink lock is not held
        // while summing shards.
        let counters: Vec<(&'static str, u64)> = Self::SNAPSHOT_COUNTERS
            .iter()
            .map(|&c| (c.as_str(), self.trace.counter(c)))
            .collect();
        let hists: Vec<(&'static str, [u64; HIST_BUCKETS], u64)> = Self::SNAPSHOT_HISTS
            .iter()
            .map(|&h| {
                (
                    h.as_str(),
                    self.trace.hist_counts(h),
                    self.trace.hist_sum(h),
                )
            })
            .collect();
        append_event(self.sink.as_ref(), |w| {
            w.field_str("event", "serve_end");
            w.key("counters");
            w.begin_obj();
            for (name, v) in &counters {
                w.field_u64(name, *v);
            }
            w.end_obj();
            w.key("hists");
            w.begin_obj();
            for (name, counts, sum) in &hists {
                w.key(name);
                w.begin_obj();
                w.field_u64("sum_nanos", *sum);
                w.key("counts");
                w.begin_arr();
                for c in counts {
                    w.raw_value(&c.to_string());
                }
                w.end_arr();
                w.end_obj();
            }
            w.end_obj();
        });
    }

    /// Fsyncs both sinks (a no-op without files).
    pub fn sync(&self) {
        for sink in [&self.slow, &self.sink].into_iter().flatten() {
            if let Ok(mut sink) = sink.lock() {
                let _ = sink.sync();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceSession;

    fn registry() -> Arc<TraceShared> {
        TraceSession::in_memory().shared_arc()
    }

    #[test]
    fn record_feeds_per_op_and_aggregate_counters() {
        let obs = ServeObs::in_memory(registry());
        let stages = StageNanos {
            accept: 10,
            decode: 20,
            scan: 100,
            encode: 7,
            write_back: 8,
        };
        obs.record(&RequestRecord {
            request_id: obs.next_request_id(),
            op: ServeOp::Assign,
            transport: "binary",
            generation: Some(1),
            seq_len: 12,
            error: false,
            stages,
        });
        obs.record(&RequestRecord {
            request_id: obs.next_request_id(),
            op: ServeOp::Info,
            transport: "http",
            generation: Some(1),
            seq_len: 0,
            error: false,
            stages: StageNanos::default(),
        });
        obs.record_meta(true);
        let t = obs.registry();
        assert_eq!(t.counter(Counter::ServeAssign), 1);
        assert_eq!(t.counter(Counter::ServeInfo), 1);
        assert_eq!(t.counter(Counter::ServeRequests), 2);
        assert_eq!(t.counter(Counter::ServeErrors), 1);
        assert_eq!(t.hist_counts(HistKind::ServeAssign).iter().sum::<u64>(), 1);
        assert_eq!(t.hist_counts(HistKind::ServeAdmin).iter().sum::<u64>(), 1);
        // Every request, admin ops included, runs all five stages.
        assert_eq!(t.hist_counts(HistKind::ServeScan).iter().sum::<u64>(), 2);
        assert_eq!(t.hist_sum(HistKind::ServeAssign), stages.total());
    }

    #[test]
    fn stage_total_saturates() {
        let stages = StageNanos {
            accept: u64::MAX,
            scan: u64::MAX,
            ..Default::default()
        };
        assert_eq!(stages.total(), u64::MAX);
    }

    #[test]
    fn request_ids_are_unique_and_monotonic() {
        let obs = ServeObs::in_memory(registry());
        let a = obs.next_request_id();
        let b = obs.next_request_id();
        assert_eq!((a, b), (0, 1));
    }

    #[test]
    fn buffered_recording_matches_direct_after_flush() {
        let direct = ServeObs::in_memory(registry());
        let buffered = ServeObs::in_memory(registry());
        let mut local = ObsLocal::new();
        // Mix of ops, errors, and zero-valued stages (the error record's
        // stages are all zero — the dirty bitmask must still flush those
        // pure-zero observations).
        let records = [
            (ServeOp::Assign, false, 1_234u64),
            (ServeOp::Score, false, 987_654),
            (ServeOp::Assign, true, 0),
            (ServeOp::Info, false, 55),
        ];
        for (i, &(op, error, scale)) in records.iter().enumerate() {
            let rec = RequestRecord {
                request_id: i as u64,
                op,
                transport: "binary",
                generation: None,
                seq_len: 3,
                error,
                stages: StageNanos {
                    accept: scale,
                    decode: scale / 2,
                    scan: scale * 3,
                    encode: scale * 2,
                    ..Default::default()
                },
            };
            direct.record_at(7, &rec);
            buffered.count(7, rec.op, rec.error);
            buffered.record_buffered(7, &mut local, &rec);
        }
        buffered.flush_local(7, &mut local);
        for counter in Counter::ALL {
            assert_eq!(
                direct.registry().counter(counter),
                buffered.registry().counter(counter),
                "counter {counter:?}"
            );
        }
        for hist in HistKind::ALL {
            assert_eq!(
                direct.registry().hist_counts(hist),
                buffered.registry().hist_counts(hist),
                "hist counts {hist:?}"
            );
            assert_eq!(
                direct.registry().hist_sum(hist),
                buffered.registry().hist_sum(hist),
                "hist sum {hist:?}"
            );
        }
    }

    #[test]
    fn buffer_flushes_itself_every_flush_every_records() {
        let obs = ServeObs::in_memory(registry());
        let mut local = ObsLocal::new();
        let rec = RequestRecord {
            request_id: 0,
            op: ServeOp::Score,
            transport: "binary",
            generation: None,
            seq_len: 1,
            error: false,
            stages: StageNanos::default(),
        };
        for _ in 0..ObsLocal::FLUSH_EVERY - 1 {
            obs.count(0, rec.op, rec.error);
            obs.record_buffered(0, &mut local, &rec);
        }
        // Counters are exact immediately; histograms lag in the buffer.
        let t = obs.registry();
        assert_eq!(
            t.counter(Counter::ServeScore),
            u64::from(ObsLocal::FLUSH_EVERY) - 1
        );
        assert_eq!(t.hist_counts(HistKind::ServeScore).iter().sum::<u64>(), 0);
        // The FLUSH_EVERY-th record drains the buffer on its own.
        obs.count(0, rec.op, rec.error);
        obs.record_buffered(0, &mut local, &rec);
        assert_eq!(
            t.hist_counts(HistKind::ServeScore).iter().sum::<u64>(),
            u64::from(ObsLocal::FLUSH_EVERY)
        );
        assert_eq!(local.pending, 0);
    }
}
