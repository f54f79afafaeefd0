//! Serve-path observability suite: the slow-request log survives
//! truncation at every byte (failpoint-driven), the slow threshold is an
//! exact boundary, all serve counters and histogram totals are
//! bit-identical however the same requests are spread over concurrent
//! connections, a request is counted before its response arrives, the
//! health endpoints answer (and `/readyz` reports a drain), and a serve
//! trace file renders offline through `trace-summary`'s renderer.

use std::fs;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

use cluseq::core::failpoint::{FailPlan, FailingReader};
use cluseq::core::serve::obs::{ObsConfig, RequestRecord, ServeObs, ServeOp, StageNanos};
use cluseq::core::trace::sink::{read_trace, JsonlSink};
use cluseq::core::trace::{summary, Counter, HistKind, TraceSession};
use cluseq::prelude::*;

fn tmpdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn workload(seed: u64) -> SequenceDatabase {
    SyntheticSpec {
        sequences: 40,
        clusters: 2,
        avg_len: 50,
        alphabet: 8,
        outlier_fraction: 0.0,
        seed,
    }
    .generate()
}

fn saved_model(dir: &Path) -> PathBuf {
    let outcome = Cluseq::new(
        CluseqParams::default()
            .with_initial_clusters(2)
            .with_significance(4)
            .with_max_depth(5)
            .with_max_iterations(5)
            .with_seed(1),
    )
    .run(&workload(31));
    let model = SavedModel::from_outcome(&outcome);
    let path = dir.join("model.cseq");
    let mut f = fs::File::create(&path).expect("create model file");
    model.save(&mut f).expect("save model");
    path
}

fn start_with_obs(model_path: &Path, obs: Arc<ServeObs>) -> ServerHandle {
    let model = ServeModel::load(model_path, None, ScanKernel::Compiled, 1).expect("load model");
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        kernel: ScanKernel::Compiled,
        frame_timeout: Duration::from_secs(5),
        watch_sighup: false,
    };
    Server::start(model, None, &config, Some(obs)).expect("start server")
}

fn obs_with(config: &ObsConfig) -> Arc<ServeObs> {
    Arc::new(ServeObs::new(TraceSession::in_memory().shared_arc(), config).expect("open obs"))
}

/// One HTTP request over a plain socket; returns (status, body).
fn http(addr: std::net::SocketAddr, request: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    stream.write_all(request.as_bytes()).expect("send");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read");
    let text = String::from_utf8_lossy(&raw).into_owned();
    let (head, body) = text.split_once("\r\n\r\n").expect("split head");
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status");
    (status, body.to_string())
}

/// Reads one HTTP response off `stream` — the head, then exactly
/// `Content-Length` body bytes — without waiting for the server to close.
fn read_by_length(stream: &mut TcpStream) -> (u16, String) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("read head");
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).expect("utf-8 head");
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .expect("content length");
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).expect("read body");
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status");
    (status, String::from_utf8(body).expect("utf-8 body"))
}

fn queries(db: &SequenceDatabase, n: usize) -> Vec<Vec<Symbol>> {
    (0..n.min(db.len()))
        .map(|i| db.sequence(i).symbols().to_vec())
        .collect()
}

#[test]
fn zero_threshold_logs_every_request_and_trace_renders_offline() {
    let dir = tmpdir("serve-obs-slowlog");
    let model_path = saved_model(&dir);
    let slow_path = dir.join("slow.jsonl");
    let trace_path = dir.join("serve.jsonl");
    let obs = obs_with(&ObsConfig {
        slow_log: Some(slow_path.clone()),
        slow_threshold: Duration::ZERO,
        trace_jsonl: Some(trace_path.clone()),
    });
    let server = start_with_obs(&model_path, Arc::clone(&obs));
    let addr = server.addr();

    let db = workload(31);
    let mut client = ServeClient::connect(addr).expect("connect");
    for q in queries(&db, 4) {
        client.assign(&q).expect("assign");
    }
    client.info().expect("info");
    let (status, _) = http(
        addr,
        "POST /assign HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabab",
    );
    assert_eq!(status, 200);
    server.shutdown();

    // Every request crossed the zero threshold: 4 binary assigns + INFO +
    // 1 HTTP assign.
    let replay = read_trace(&slow_path).expect("read slow log");
    assert_eq!(replay.events.len(), 6, "all six requests logged");
    assert!(replay.events.iter().all(|e| e.kind == "slow_request"));
    let first = &replay.events[0].value;
    for key in ["request_id", "op", "transport", "seq_len", "total_nanos"] {
        assert!(first.get(key).is_some(), "slow record is missing {key}");
    }
    let stages = first.get("stage_nanos").expect("stage breakdown");
    for stage in ["accept", "decode", "scan", "encode", "write_back"] {
        assert!(stages.get(stage).is_some(), "missing stage {stage}");
    }
    let transports: Vec<&str> = replay
        .events
        .iter()
        .filter_map(|e| e.value.get("transport").and_then(|v| v.as_str()))
        .collect();
    assert!(transports.contains(&"binary") && transports.contains(&"http"));

    let t = obs.registry();
    assert_eq!(t.counter(Counter::ServeSlow), 6);
    assert_eq!(t.counter(Counter::ServeAssign), 5);
    assert_eq!(t.counter(Counter::ServeInfo), 1);

    // The serve trace file is a complete offline record: lifecycle events
    // plus the final registry snapshot, rendered by trace-summary.
    let trace = read_trace(&trace_path).expect("read serve trace");
    let kinds: Vec<&str> = trace.events.iter().map(|e| e.kind.as_str()).collect();
    assert!(kinds.contains(&"serve_start"));
    assert!(kinds.contains(&"serve_end"));
    let text = summary::render_summary(&trace);
    assert!(text.contains("serve: "), "{text}");
    assert!(text.contains("serve totals:"), "{text}");
    assert!(text.contains("assign"), "{text}");
    assert!(text.contains("\nscan "), "{text}");

    // The slow log renders on its own, too.
    let slow_text = summary::render_summary(&read_trace(&slow_path).unwrap());
    assert!(slow_text.contains("slow requests: 6 logged"), "{slow_text}");
}

#[test]
fn slow_log_tail_repairs_after_truncation_at_every_byte() {
    let dir = tmpdir("serve-obs-torn");
    // Build a small canonical slow log directly through the recorder.
    let slow_path = dir.join("canonical.jsonl");
    let obs = obs_with(&ObsConfig {
        slow_log: Some(slow_path.clone()),
        slow_threshold: Duration::ZERO,
        trace_jsonl: None,
    });
    for i in 0..3u64 {
        obs.record(&RequestRecord {
            request_id: i,
            op: ServeOp::Assign,
            transport: "binary",
            generation: Some(1),
            seq_len: 10 + i as usize,
            error: false,
            stages: StageNanos {
                accept: 100,
                decode: 50,
                scan: 5_000 * (i + 1),
                encode: 20,
                write_back: 30,
            },
        });
    }
    let canonical = fs::read(&slow_path).expect("read canonical log");
    let full_lines = canonical.iter().filter(|&&b| b == b'\n').count();
    assert_eq!(full_lines, 3);

    // Truncate at every byte offset — produced by reading the canonical
    // bytes through the failpoint injector, the same machinery the
    // checkpoint crash suite sweeps — then reopen, verify the repair, and
    // prove the stream continues past it.
    for cut in 0..=canonical.len() as u64 {
        let mut torn = Vec::new();
        let _ =
            FailingReader::new(&canonical[..], FailPlan::error_after(cut)).read_to_end(&mut torn);
        assert_eq!(torn.len(), cut as usize, "injector cut at {cut}");
        let path = dir.join("torn.jsonl");
        fs::write(&path, &torn).expect("write torn copy");

        let surviving = torn.iter().filter(|&&b| b == b'\n').count();
        {
            let mut sink = JsonlSink::open_append(&path).expect("repair at byte {cut}");
            sink.write_event("{\"event\":\"slow_request\",\"request_id\":99}")
                .expect("append after repair");
        }
        let replay = read_trace(&path)
            .unwrap_or_else(|e| panic!("torn copy at byte {cut} unreadable after repair: {e}"));
        assert_eq!(
            replay.events.len(),
            surviving + 1,
            "complete lines survive the cut at byte {cut}, plus the appended one"
        );
        assert!(!replay.truncated_tail, "repair removed the torn tail");
        let last = replay.events.last().unwrap();
        assert_eq!(
            last.value.get("request_id").and_then(|v| v.as_u64()),
            Some(99)
        );
        // Sequence numbers continue from the survivors, never collide.
        let seqs: Vec<u64> = replay.events.iter().map(|e| e.seq).collect();
        let mut deduped = seqs.clone();
        deduped.dedup();
        assert_eq!(seqs, deduped, "strictly advancing seqs at cut {cut}");
    }
}

#[test]
fn slow_threshold_is_an_exact_boundary() {
    let dir = tmpdir("serve-obs-threshold");
    let slow_path = dir.join("slow.jsonl");
    let threshold = Duration::from_micros(500);
    let obs = obs_with(&ObsConfig {
        slow_log: Some(slow_path.clone()),
        slow_threshold: threshold,
        trace_jsonl: None,
    });
    let record = |id: u64, total: u64| RequestRecord {
        request_id: id,
        op: ServeOp::Score,
        transport: "binary",
        generation: Some(1),
        seq_len: 5,
        error: false,
        stages: StageNanos {
            scan: total,
            ..Default::default()
        },
    };
    obs.record(&record(0, 499_999)); // one below: fast
    obs.record(&record(1, 500_000)); // exactly at: slow
    obs.record(&record(2, 500_001)); // above: slow
    assert_eq!(obs.registry().counter(Counter::ServeSlow), 2);
    assert_eq!(obs.registry().counter(Counter::ServeScore), 3);
    let replay = read_trace(&slow_path).expect("read slow log");
    assert_eq!(replay.events.len(), 2, "only at-or-over threshold logged");
    assert_eq!(
        replay.events[0]
            .value
            .get("total_nanos")
            .and_then(|v| v.as_u64()),
        Some(500_000)
    );
    assert_eq!(
        replay.events[0]
            .value
            .get("threshold_nanos")
            .and_then(|v| v.as_u64()),
        Some(500_000)
    );
}

/// The deterministic half of the observability contract: for the same
/// requests, every counter and every histogram's *total observation
/// count* is bit-identical whether they arrive on one connection or
/// spread over three concurrent ones. (Bucket placement is wall-clock and
/// not part of the contract; neither is the slow counter, which is pinned
/// to zero here via an unreachable threshold.)
#[test]
fn counters_and_histogram_totals_are_identical_across_thread_counts() {
    let dir = tmpdir("serve-obs-threads");
    let model_path = saved_model(&dir);
    let db = workload(31);

    #[derive(Clone, Copy)]
    enum Op {
        Assign,
        Score,
        Anomaly,
        Info,
    }
    let mut requests: Vec<(Op, Vec<Symbol>)> = Vec::new();
    requests.extend(queries(&db, 12).into_iter().map(|q| (Op::Assign, q)));
    requests.extend(queries(&db, 5).into_iter().map(|q| (Op::Score, q)));
    requests.extend(queries(&db, 3).into_iter().map(|q| (Op::Anomaly, q)));
    requests.push((Op::Info, Vec::new()));

    let run = |connections: usize| {
        let obs = obs_with(&ObsConfig {
            slow_log: None,
            slow_threshold: Duration::from_secs(3600),
            trace_jsonl: None,
        });
        let server = start_with_obs(&model_path, Arc::clone(&obs));
        let addr = server.addr();
        // Connection c sends every `connections`-th request; all of them
        // connect before any sends, so their requests overlap.
        let ready = Barrier::new(connections);
        std::thread::scope(|scope| {
            for c in 0..connections {
                let (ready, requests) = (&ready, &requests);
                scope.spawn(move || {
                    let mut client = ServeClient::connect(addr).expect("connect");
                    ready.wait();
                    for (op, q) in requests.iter().skip(c).step_by(connections) {
                        match op {
                            Op::Assign => drop(client.assign(q).expect("assign")),
                            Op::Score => drop(client.score(q).expect("score")),
                            Op::Anomaly => drop(client.anomaly(q, None).expect("anomaly")),
                            Op::Info => drop(client.info().expect("info")),
                        }
                    }
                });
            }
        });
        // One HTTP request with a parse error (unknown symbol) and one
        // unknown path: deterministic error counting on the facade.
        let (status, _) = http(
            addr,
            "POST /assign HTTP/1.1\r\nHost: x\r\nContent-Length: 1\r\n\r\n~",
        );
        assert_eq!(status, 400);
        let (status, _) = http(addr, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, 404);
        server.shutdown();

        let t = obs.registry();
        let counters: Vec<(String, u64)> = Counter::ALL
            .iter()
            .map(|&c| (c.as_str().to_string(), t.counter(c)))
            .collect();
        let hist_totals: Vec<(String, u64)> = HistKind::ALL
            .iter()
            .map(|&h| (h.as_str().to_string(), t.hist_counts(h).iter().sum::<u64>()))
            .collect();
        (counters, hist_totals)
    };

    let (counters_1, hists_1) = run(1);
    let (counters_3, hists_3) = run(3);
    assert_eq!(
        counters_1, counters_3,
        "counters differ across connection counts"
    );
    assert_eq!(
        hists_1, hists_3,
        "histogram totals differ across connection counts"
    );

    // Spot-check the absolute values so the comparison cannot pass
    // vacuously on all-zero registries.
    let get = |list: &[(String, u64)], key: &str| {
        list.iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("missing {key}"))
    };
    assert_eq!(get(&counters_1, "serve_assign_requests"), 13); // 12 binary + 1 http error
    assert_eq!(get(&counters_1, "serve_score_requests"), 5);
    assert_eq!(get(&counters_1, "serve_anomaly_requests"), 3);
    assert_eq!(get(&counters_1, "serve_info_requests"), 1);
    assert_eq!(get(&counters_1, "serve_errors"), 2); // http parse error + 404
    assert_eq!(get(&counters_1, "serve_requests"), 21);
    assert_eq!(get(&counters_1, "serve_slow_requests"), 0);
    assert_eq!(get(&hists_1, "serve_stage_accept"), 22, "all recorded ops");
    // Every recorded op runs all five stages, including INFO and the HTTP
    // parse error (whose scan stage is empty).
    assert_eq!(get(&hists_1, "serve_stage_scan"), 22);
    assert_eq!(get(&hists_1, "serve_assign"), 13);
    assert_eq!(get(&hists_1, "serve_admin"), 1);
    // The queue-era histograms are still declared but nothing observes
    // them.
    for unused in [
        "serve_stage_queue_wait",
        "serve_stage_batch_form",
        "serve_batch_jobs",
    ] {
        assert_eq!(get(&hists_1, unused), 0, "{unused}");
    }
}

#[test]
fn health_endpoints_and_metrics_answer_on_the_serve_port() {
    let dir = tmpdir("serve-obs-health");
    let model_path = saved_model(&dir);
    let obs = obs_with(&ObsConfig::default());
    let server = start_with_obs(&model_path, Arc::clone(&obs));
    let addr = server.addr();

    let (status, body) = http(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    let (status, body) = http(addr, "GET /readyz HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!((status, body.as_str()), (200, "ready\n"));

    let mut client = ServeClient::connect(addr).expect("connect");
    client
        .assign(&[Symbol(0), Symbol(1)])
        .expect("assign before scrape");
    drop(client);

    let (status, body) = http(addr, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, 200);
    for series in [
        "cluseq_serve_assign_requests_total 1",
        "cluseq_serve_stage_queue_wait_seconds_bucket",
        "cluseq_serve_stage_scan_seconds_bucket",
        "cluseq_serve_batch_jobs_sum",
        "cluseq_process_rss_bytes",
    ] {
        assert!(body.contains(series), "missing {series} in:\n{body}");
    }
    server.shutdown();
}

/// A client that reads exactly its response's `Content-Length` bytes —
/// without waiting for the close — and scrapes `/metrics` at once finds
/// its own request counted: the facade counts before the bytes leave.
#[test]
fn http_request_is_counted_before_its_response_arrives() {
    let dir = tmpdir("serve-obs-http-count");
    let model_path = saved_model(&dir);
    let server = start_with_obs(&model_path, obs_with(&ObsConfig::default()));
    let addr = server.addr();
    for i in 1..=50u64 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        stream
            .write_all(b"POST /assign HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabab")
            .expect("send");
        let (status, body) = read_by_length(&mut stream);
        assert_eq!(status, 200, "{body}");
        let (status, page) = http(addr, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, 200);
        let line = format!("\ncluseq_serve_assign_requests_total {i}\n");
        assert!(
            page.contains(&line),
            "iteration {i}: {line:?} missing from:\n{page}"
        );
        drop(stream);
    }
    server.shutdown();
}

/// `/readyz` reports the drain as soon as a stop begins: a probe that
/// reaches an accepted connection during the handler's drain grace poll
/// (at least one 100 ms poll) answers 503.
#[test]
fn readyz_reports_draining_once_stop_is_set() {
    let dir = tmpdir("serve-obs-readyz-drain");
    let model_path = saved_model(&dir);
    let server = start_with_obs(&model_path, obs_with(&ObsConfig::default()));
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let (started, shutting_down) = mpsc::channel();
    let stopper = std::thread::spawn(move || {
        started.send(()).expect("signal shutdown");
        server.shutdown();
    });
    shutting_down.recv().expect("shutdown began");
    std::thread::sleep(Duration::from_millis(10));
    stream
        .write_all(b"GET /readyz HTTP/1.1\r\nHost: x\r\n\r\n")
        .expect("send probe");
    let (status, body) = read_by_length(&mut stream);
    assert_eq!((status, body.as_str()), (503, "draining\n"));
    stopper.join().expect("shutdown thread panicked");
}
