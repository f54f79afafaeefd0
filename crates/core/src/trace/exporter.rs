//! Prometheus text-format exporter: a `std::net::TcpListener` thread
//! serving the live [`TraceShared`] registry, no dependencies beyond
//! `std`.
//!
//! The server speaks just enough HTTP/1.0 for a scrape: it drains the
//! request head and answers `/metrics` (or `/`) with the full metrics
//! page; any other path gets a 404 so a misconfigured scraper fails
//! loudly instead of silently ingesting the wrong resource. Exposition
//! follows the Prometheus text format version 0.0.4: `# HELP` / `# TYPE`
//! headers, one sample per line, cumulative `_bucket` lines with an
//! `+Inf` terminal bucket for histograms. Reads are relaxed-atomic
//! snapshots — a scrape mid-iteration may be a few events behind a
//! concurrent worker, but every `_total` series is monotonic because the
//! underlying cells only ever increase.

use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use super::{bucket_upper_nanos, Counter, Gauge, HistKind, Phase, TraceShared, HIST_BUCKETS};

/// A running exporter; dropping it stops the listener thread.
pub struct ExporterHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ExporterHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExporterHandle")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl ExporterHandle {
    /// The address the listener actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for ExporterHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection; map an
        // unspecified bind address to loopback so the connect can land.
        let mut target = self.addr;
        match target.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => {
                target.set_ip(IpAddr::V4(Ipv4Addr::LOCALHOST));
            }
            IpAddr::V6(ip) if ip.is_unspecified() => {
                target.set_ip(IpAddr::V6(Ipv6Addr::LOCALHOST));
            }
            _ => {}
        }
        let _ = TcpStream::connect_timeout(&target, Duration::from_millis(500));
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// Binds `addr` (e.g. `127.0.0.1:0`) and spawns the scrape thread.
pub fn start(shared: Arc<TraceShared>, addr: &str) -> io::Result<ExporterHandle> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let thread_stop = Arc::clone(&stop);
    let join = std::thread::Builder::new()
        .name("cluseq-metrics".to_string())
        .spawn(move || serve(listener, shared, thread_stop))?;
    Ok(ExporterHandle {
        addr: bound,
        stop,
        join: Some(join),
    })
}

fn serve(listener: TcpListener, shared: Arc<TraceShared>, stop: Arc<AtomicBool>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let _ = handle_scrape(stream, &shared);
    }
}

fn handle_scrape(mut stream: TcpStream, shared: &TraceShared) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    // Drain the request head so the client's send buffer is empty before
    // we close; only the request path matters.
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 16 * 1024 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let path = request_path(&head);
    let response = if matches!(path, "/metrics" | "/") {
        let body = render(shared);
        format!(
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        )
    } else {
        let body = "see /metrics\n";
        format!(
            "HTTP/1.0 404 Not Found\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        )
    };
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// The path component of the request line (`GET /metrics HTTP/1.0`);
/// defaults to `/metrics` when the head is malformed, so bare probes
/// still get a useful answer.
fn request_path(head: &[u8]) -> &str {
    std::str::from_utf8(head)
        .ok()
        .and_then(|s| s.lines().next())
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/metrics")
}

fn seconds(nanos: u64) -> f64 {
    nanos as f64 / 1e9
}

/// Renders the registry as a Prometheus text-format page.
pub fn render(shared: &TraceShared) -> String {
    let mut out = String::with_capacity(4096);

    // Gauges. The threshold is stored log-space and exposed as t.
    for gauge in Gauge::ALL {
        let name = gauge.as_str();
        let value = match gauge {
            Gauge::ThresholdLogT => fmt_f64(shared.gauge_f64(gauge).exp()),
            _ => shared.gauge(gauge).to_string(),
        };
        out.push_str(&format!(
            "# HELP cluseq_{name} {}\n# TYPE cluseq_{name} gauge\ncluseq_{name} {value}\n",
            gauge.help()
        ));
    }
    // Read from the OS at scrape time, not a registry gauge.
    out.push_str("# HELP cluseq_process_rss_bytes Resident set size of this process (0 where /proc is unavailable).\n");
    out.push_str("# TYPE cluseq_process_rss_bytes gauge\n");
    out.push_str(&format!("cluseq_process_rss_bytes {}\n", rss_bytes()));

    // Per-phase span time.
    out.push_str("# HELP cluseq_phase_seconds_total Wall time spent in each phase (span total).\n");
    out.push_str("# TYPE cluseq_phase_seconds_total counter\n");
    for phase in Phase::ALL {
        let s = shared.phase_stats(phase);
        out.push_str(&format!(
            "cluseq_phase_seconds_total{{phase=\"{}\"}} {}\n",
            phase.as_str(),
            fmt_f64(seconds(s.total_nanos))
        ));
    }
    out.push_str(
        "# HELP cluseq_phase_self_seconds_total Wall time per phase excluding nested phases.\n",
    );
    out.push_str("# TYPE cluseq_phase_self_seconds_total counter\n");
    for phase in Phase::ALL {
        let s = shared.phase_stats(phase);
        out.push_str(&format!(
            "cluseq_phase_self_seconds_total{{phase=\"{}\"}} {}\n",
            phase.as_str(),
            fmt_f64(seconds(s.self_nanos))
        ));
    }
    out.push_str("# HELP cluseq_phase_spans_total Spans recorded per phase.\n");
    out.push_str("# TYPE cluseq_phase_spans_total counter\n");
    for phase in Phase::ALL {
        out.push_str(&format!(
            "cluseq_phase_spans_total{{phase=\"{}\"}} {}\n",
            phase.as_str(),
            shared.phase_stats(phase).count
        ));
    }

    // Counters.
    for counter in Counter::ALL {
        let name = counter.as_str();
        out.push_str(&format!(
            "# HELP cluseq_{name}_total {}\n# TYPE cluseq_{name}_total counter\ncluseq_{name}_total {}\n",
            counter.help(),
            shared.counter(counter)
        ));
    }

    // Histograms. Latency histograms are exposed in seconds; the
    // batch-size histogram stores jobs scaled by 1000 (see
    // [`HistKind::ServeBatchJobs`]), so its edges and sum divide the
    // nano-shaped cells back into job counts.
    for hist in HistKind::ALL {
        let jobs_unit = hist == HistKind::ServeBatchJobs;
        let name = hist.as_str();
        let full = if jobs_unit {
            format!("cluseq_{name}")
        } else {
            format!("cluseq_{name}_seconds")
        };
        out.push_str(&format!(
            "# HELP {full} {}\n# TYPE {full} histogram\n",
            hist.help()
        ));
        let counts = shared.hist_counts(hist);
        let mut cumulative = 0u64;
        for (b, count) in counts.iter().enumerate().take(HIST_BUCKETS) {
            cumulative += count;
            let le = match bucket_upper_nanos(b) {
                Some(nanos) if jobs_unit => fmt_f64(nanos as f64 / 1_000.0),
                Some(nanos) => fmt_f64(seconds(nanos)),
                None => "+Inf".to_string(),
            };
            out.push_str(&format!("{full}_bucket{{le=\"{le}\"}} {cumulative}\n"));
        }
        let sum = if jobs_unit {
            fmt_f64(shared.hist_sum(hist) as f64 / 1_000.0)
        } else {
            fmt_f64(seconds(shared.hist_sum(hist)))
        };
        out.push_str(&format!("{full}_sum {sum}\n{full}_count {cumulative}\n"));
    }
    out
}

/// Resident set size read live from `/proc/self/status` (`VmRSS`); 0 on
/// platforms without procfs or when the read fails — presence of the
/// series is stable either way, so dashboards never lose the panel.
fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let rest = line.strip_prefix("VmRSS:")?;
                let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
                Some(kb * 1024)
            })
        })
        .unwrap_or(0)
}

fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        // `{}` on f64 is the shortest representation that round-trips;
        // Prometheus accepts Go-style floats, which this is a subset of.
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::super::TraceSession;
    use super::*;

    #[test]
    fn render_covers_required_series() {
        let s = TraceSession::in_memory();
        s.add(Counter::PairsScored, 7);
        s.shared().gauge_set(Gauge::Iteration, 3);
        s.shared().gauge_set_f64(Gauge::ThresholdLogT, 0.0);
        let page = render(s.shared());
        for needle in [
            "cluseq_iteration 3\n",
            "cluseq_clusters_live 0\n",
            "cluseq_threshold 1\n",
            "cluseq_pairs_scored_total 7\n",
            "cluseq_pairs_pruned_total 0\n",
            "cluseq_phase_seconds_total{phase=\"scan_score\"} 0\n",
            "cluseq_score_row_seconds_bucket{le=\"+Inf\"} 0\n",
        ] {
            assert!(page.contains(needle), "missing {needle:?} in:\n{page}");
        }
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let s = TraceSession::in_memory();
        s.observe(HistKind::ScoreRow, 0, 500); // bucket 0
        s.observe(HistKind::ScoreRow, 1, 1_500); // bucket 1
        let page = render(s.shared());
        assert!(page.contains("cluseq_score_row_seconds_bucket{le=\"0.000001\"} 1\n"));
        assert!(page.contains("cluseq_score_row_seconds_bucket{le=\"0.000002\"} 2\n"));
        assert!(page.contains("cluseq_score_row_seconds_bucket{le=\"+Inf\"} 2\n"));
        assert!(page.contains("cluseq_score_row_seconds_count 2\n"));
        assert!(page.contains("cluseq_score_row_seconds_sum 0.000002\n"));
    }

    #[test]
    fn render_covers_serve_observability_series() {
        let s = TraceSession::in_memory();
        s.add(Counter::ServeAssign, 4);
        s.add(Counter::ServeSlow, 1);
        s.observe(HistKind::ServeQueueWait, 0, 2_500);
        // A 3-job batch is stored as 3 µs (unit: jobs).
        s.observe(HistKind::ServeBatchJobs, 0, 3_000);
        let page = render(s.shared());
        for needle in [
            "cluseq_serve_assign_requests_total 4\n",
            "cluseq_serve_score_requests_total 0\n",
            "cluseq_serve_slow_requests_total 1\n",
            "cluseq_serve_stage_queue_wait_seconds_bucket{le=\"0.000004\"} 1\n",
            "cluseq_serve_batch_jobs_bucket{le=\"4\"} 1\n",
            "cluseq_serve_batch_jobs_sum 3\n",
            "cluseq_serve_batch_jobs_count 1\n",
            "cluseq_process_rss_bytes ",
        ] {
            assert!(page.contains(needle), "missing {needle:?} in:\n{page}");
        }
        // The jobs histogram must not carry a seconds suffix.
        assert!(!page.contains("cluseq_serve_batch_jobs_seconds"));
    }

    #[test]
    fn scrape_over_tcp_round_trips() {
        let s = Arc::new(super::super::TraceShared::new());
        let handle = start(Arc::clone(&s), "127.0.0.1:0").unwrap();
        let addr = handle.addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\nHost: test\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
        assert!(response.contains("text/plain; version=0.0.4"));
        assert!(response.contains("cluseq_iteration 0\n"));
        drop(handle); // must not hang
    }
}
