//! `cluseq top` — a live single-screen dashboard over a serve daemon's
//! `/metrics` endpoint.
//!
//! The command polls the Prometheus text exposition (either the serve
//! port's HTTP facade or the standalone `--metrics-addr` exporter — both
//! serve the same registry), computes rates from consecutive scrapes, and
//! renders qps, per-opcode latency percentiles, per-stage means,
//! generation, and RSS. `--once` takes two scrapes a beat apart, prints a
//! single frame, and exits — for scripts and CI smoke jobs.
//!
//! Percentiles are computed from the exporter's fixed power-of-two
//! buckets by linear interpolation within the rank bucket (the same rule
//! as the in-process snapshot path), so a reported quantile is within one
//! bucket width — a factor of two — of the true value.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use crate::args::Args;

/// A parsed `/metrics` scrape: scalar samples by full name, histogram
/// buckets by base name as `(le_seconds, cumulative_count)` in ascending
/// `le` order.
#[derive(Debug, Default)]
struct Scrape {
    scalars: HashMap<String, f64>,
    buckets: HashMap<String, Vec<(f64, f64)>>,
    at: Option<Instant>,
}

impl Scrape {
    fn scalar(&self, name: &str) -> f64 {
        self.scalars.get(name).copied().unwrap_or(0.0)
    }
}

/// Runs the subcommand.
pub fn run(args: &Args) -> ExitCode {
    let addr = args
        .get_str("addr")
        .or(args.positional.first().map(String::as_str))
        .unwrap_or("127.0.0.1:7878")
        .to_owned();
    let once = args.has("once");
    let interval = Duration::from_millis(args.get("interval-ms", 2000u64));

    let mut previous = match scrape(&addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: scraping http://{addr}/metrics: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The first frame needs two samples for rates; in --once mode a short
    // beat is enough to tell a live daemon's qps from zero.
    std::thread::sleep(if once {
        Duration::from_millis(250)
    } else {
        interval
    });
    loop {
        let current = match scrape(&addr) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: scraping http://{addr}/metrics: {e}");
                return ExitCode::FAILURE;
            }
        };
        let frame = render(&addr, &previous, &current);
        if once {
            return crate::emit(|out| out.write_all(frame.as_bytes()));
        }
        // ANSI clear + home: redraw in place.
        let mut out = std::io::stdout().lock();
        let drawn = write!(out, "\x1b[2J\x1b[H{frame}").and_then(|()| out.flush());
        if drawn.is_err() {
            return crate::finish_output(drawn);
        }
        previous = current;
        std::thread::sleep(interval);
    }
}

/// One GET over a plain TcpStream (`Connection: close`, read to EOF) —
/// the daemon's facade and the standalone exporter both speak exactly
/// this much HTTP.
fn scrape(addr: &str) -> Result<Scrape, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(
            format!("GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .map_err(|e| e.to_string())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| "malformed HTTP response".to_string())?;
    let status = head.split_whitespace().nth(1).unwrap_or("");
    if status != "200" {
        return Err(format!(
            "HTTP {status} (is the daemon running with --metrics-addr, --slow-log, or --trace?)"
        ));
    }
    Ok(parse_metrics(body))
}

/// Parses Prometheus text exposition format 0.0.4: `name value` scalars,
/// `name_bucket{le="X"} value` histogram buckets. Unknown or malformed
/// lines are skipped — the dashboard degrades, never crashes.
fn parse_metrics(body: &str) -> Scrape {
    let mut out = Scrape {
        at: Some(Instant::now()),
        ..Default::default()
    };
    for line in body.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((name_part, value_part)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = parse_value(value_part) else {
            continue;
        };
        if let Some((name, labels)) = name_part.split_once('{') {
            if let Some(base) = name.strip_suffix("_bucket") {
                if let Some(le) = labels
                    .trim_end_matches('}')
                    .split(',')
                    .find_map(|l| l.strip_prefix("le=\""))
                    .map(|v| v.trim_end_matches('"'))
                {
                    if let Ok(le) = parse_value(le) {
                        out.buckets
                            .entry(base.to_string())
                            .or_default()
                            .push((le, value));
                    }
                }
                continue;
            }
            out.scalars.insert(name.to_string(), value);
        } else {
            out.scalars.insert(name_part.to_string(), value);
        }
    }
    for buckets in out.buckets.values_mut() {
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    }
    out
}

fn parse_value(s: &str) -> Result<f64, ()> {
    match s {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        _ => s.parse::<f64>().map_err(|_| ()),
    }
}

/// Quantile from cumulative buckets by linear interpolation within the
/// rank bucket (mirrors the registry's exact-rank snapshot path). `None`
/// when the histogram is empty.
fn quantile(buckets: &[(f64, f64)], q: f64) -> Option<f64> {
    let total = buckets.last().map(|&(_, c)| c)?;
    if total <= 0.0 {
        return None;
    }
    let rank = (q * total).ceil().clamp(1.0, total);
    let mut lower = 0.0;
    let mut before = 0.0;
    for &(le, cumulative) in buckets {
        if cumulative >= rank {
            let in_bucket = cumulative - before;
            if !le.is_finite() {
                // The overflow bucket has no upper edge: report its floor.
                return Some(lower);
            }
            if in_bucket <= 0.0 {
                return Some(le);
            }
            let into = (rank - before) / in_bucket;
            return Some(lower + (le - lower) * into);
        }
        before = cumulative;
        lower = le;
    }
    None
}

fn fmt_ms(seconds: Option<f64>) -> String {
    match seconds {
        Some(s) => format!("{:>8.3}", s * 1000.0),
        None => format!("{:>8}", "-"),
    }
}

fn fmt_count(v: f64) -> String {
    format!("{:>10}", v as u64)
}

fn fmt_bytes(v: f64) -> String {
    if v <= 0.0 {
        "n/a".into()
    } else if v >= 1024.0 * 1024.0 * 1024.0 {
        format!("{:.2} GiB", v / (1024.0 * 1024.0 * 1024.0))
    } else if v >= 1024.0 * 1024.0 {
        format!("{:.1} MiB", v / (1024.0 * 1024.0))
    } else {
        format!("{:.0} KiB", v / 1024.0)
    }
}

/// Renders one dashboard frame from two consecutive scrapes.
fn render(addr: &str, previous: &Scrape, current: &Scrape) -> String {
    let dt = match (previous.at, current.at) {
        (Some(a), Some(b)) => b.duration_since(a).as_secs_f64().max(1e-9),
        _ => 1.0,
    };
    let served = |s: &Scrape| {
        s.scalar("cluseq_serve_requests_total") + s.scalar("cluseq_serve_errors_total")
    };
    let qps = ((served(current) - served(previous)) / dt).max(0.0);
    let mut out = String::new();
    out.push_str(&format!(
        "cluseq top — {addr}   generation {}   rss {}\n",
        current.scalar("cluseq_serve_generation") as u64,
        fmt_bytes(current.scalar("cluseq_process_rss_bytes")),
    ));
    out.push_str(&format!(
        "qps {qps:>8.1}   swaps {}   errors {}   slow {}\n\n",
        current.scalar("cluseq_serve_swaps_total") as u64,
        current.scalar("cluseq_serve_errors_total") as u64,
        current.scalar("cluseq_serve_slow_requests_total") as u64,
    ));
    out.push_str(&format!(
        "{:<10} {:>10} {:>8} {:>8} {:>8} {:>8}  (ms)\n",
        "op", "count", "p50", "p95", "p99", "p999"
    ));
    for (label, counter, hist) in [
        (
            "assign",
            "cluseq_serve_assign_requests_total",
            "cluseq_serve_assign_seconds",
        ),
        (
            "score",
            "cluseq_serve_score_requests_total",
            "cluseq_serve_score_seconds",
        ),
        (
            "anomaly",
            "cluseq_serve_anomaly_requests_total",
            "cluseq_serve_anomaly_seconds",
        ),
        ("admin", "", "cluseq_serve_admin_seconds"),
    ] {
        let count = if counter.is_empty() {
            current.scalar("cluseq_serve_info_requests_total")
                + current.scalar("cluseq_serve_swap_requests_total")
                + current.scalar("cluseq_serve_shutdown_requests_total")
        } else {
            current.scalar(counter)
        };
        let buckets = current.buckets.get(hist).map(Vec::as_slice).unwrap_or(&[]);
        out.push_str(&format!(
            "{:<10} {} {} {} {} {}\n",
            label,
            fmt_count(count),
            fmt_ms(quantile(buckets, 0.50)),
            fmt_ms(quantile(buckets, 0.95)),
            fmt_ms(quantile(buckets, 0.99)),
            fmt_ms(quantile(buckets, 0.999)),
        ));
    }
    out.push_str(&format!("\n{:<12} {:>8}  (ms, mean)\n", "stage", "mean"));
    for (label, base) in [
        ("accept", "cluseq_serve_stage_accept_seconds"),
        ("decode", "cluseq_serve_stage_decode_seconds"),
        ("scan", "cluseq_serve_stage_scan_seconds"),
        ("encode", "cluseq_serve_stage_encode_seconds"),
        ("write_back", "cluseq_serve_stage_write_back_seconds"),
    ] {
        let count = current.scalar(&format!("{base}_count"));
        let sum = current.scalar(&format!("{base}_sum"));
        let mean = if count > 0.0 { Some(sum / count) } else { None };
        out.push_str(&format!("{label:<12} {}\n", fmt_ms(mean)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_parses_scalars_and_buckets() {
        let body = "# HELP cluseq_serve_requests_total x\n\
                    # TYPE cluseq_serve_requests_total counter\n\
                    cluseq_serve_requests_total 42\n\
                    cluseq_serve_assign_seconds_bucket{le=\"0.001\"} 3\n\
                    cluseq_serve_assign_seconds_bucket{le=\"+Inf\"} 4\n\
                    cluseq_serve_assign_seconds_sum 0.005\n\
                    garbage line without value x\n";
        let s = parse_metrics(body);
        assert_eq!(s.scalar("cluseq_serve_requests_total"), 42.0);
        let buckets = &s.buckets["cluseq_serve_assign_seconds"];
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0], (0.001, 3.0));
        assert!(buckets[1].0.is_infinite());
    }

    #[test]
    fn quantile_interpolates_and_handles_overflow() {
        let buckets = vec![(0.001, 0.0), (0.002, 10.0), (f64::INFINITY, 10.0)];
        let p50 = quantile(&buckets, 0.50).unwrap();
        assert!((0.001..0.002).contains(&p50), "p50 {p50}");
        // All mass in the overflow bucket: the floor is the last finite edge.
        let over = vec![(0.001, 0.0), (f64::INFINITY, 5.0)];
        assert_eq!(quantile(&over, 0.99), Some(0.001));
        assert_eq!(quantile(&[], 0.5), None);
        let empty = vec![(0.001, 0.0), (f64::INFINITY, 0.0)];
        assert_eq!(quantile(&empty, 0.5), None);
    }

    #[test]
    fn render_survives_empty_scrapes() {
        let a = Scrape::default();
        let b = Scrape::default();
        let frame = render("127.0.0.1:0", &a, &b);
        assert!(frame.contains("cluseq top"));
        assert!(frame.contains("assign"));
        assert!(frame.contains("write_back"));
    }
}
