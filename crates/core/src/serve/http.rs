//! The curl-facing HTTP/1.1 JSON facade of the serve daemon.
//!
//! Any connection whose first byte is not the binary frame magic is
//! treated as one HTTP request (answered with `Connection: close`).
//! Queries are answered by the same
//! [`ServeEngine::answer`](crate::serve::engine::ServeEngine::answer) as
//! binary clients, on the connection's own handler thread, so an HTTP
//! `POST /assign` is generation-stamped and bit-identical to its binary
//! twin — the facade only translates encodings.
//!
//! Sequences are accepted in two spellings: whitespace/comma-separated
//! numeric symbol ids (`"0 1 0 1"`), or one character per symbol using
//! the CLI's single-character alphabet order (`"abab"`, a–z then A–Z then
//! 0–9).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::Instant;

use cluseq_seq::Symbol;

use crate::serve::engine::Work;
use crate::serve::obs::ServeOp;
use crate::serve::protocol::{errcode, Response};
use crate::serve::{Connection, Outcome, Timeline};
use crate::trace::exporter;

/// The CLI's single-character alphabet order (`single_char_recode`):
/// index in this string = symbol id.
const CHARS: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";

const MAX_HEAD: usize = 16 * 1024;
const MAX_BODY: usize = 1024 * 1024;

/// Serves one HTTP request on `stream` for `conn`; `first` is the
/// already-consumed first byte. The whole request must arrive before
/// `deadline`.
pub(super) fn handle(conn: &Connection, stream: &mut TcpStream, first: u8, deadline: Instant) {
    let timeline = Timeline::begin(conn.obs.as_ref(), "http");
    let mut head = vec![first];
    if !read_head(stream, &mut head, deadline) {
        respond_meta(conn, stream, 408, "request head timed out\n", true);
        return;
    }
    let head_end = match head.windows(4).position(|w| w == b"\r\n\r\n") {
        Some(at) => at + 4,
        None => {
            respond_meta(conn, stream, 400, "malformed request head\n", true);
            return;
        }
    };
    let mut body = head.split_off(head_end);
    let head_text = match std::str::from_utf8(&head) {
        Ok(s) => s,
        Err(_) => {
            respond_meta(conn, stream, 400, "request head is not UTF-8\n", true);
            return;
        }
    };
    let mut lines = head_text.lines();
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m, t),
        _ => {
            respond_meta(conn, stream, 400, "malformed request line\n", true);
            return;
        }
    };
    let content_length = lines
        .filter_map(|line| line.split_once(':'))
        .find(|(name, _)| name.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .unwrap_or(0);
    if content_length > MAX_BODY {
        respond_meta(conn, stream, 413, "body too large\n", true);
        return;
    }
    while body.len() < content_length {
        let mut chunk = [0u8; 4096];
        if Instant::now() >= deadline {
            respond_meta(conn, stream, 408, "request body timed out\n", true);
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return,
        }
    }
    body.truncate(content_length);

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let timeline = timeline.map(Timeline::decoding);
    route(conn, stream, method, path, query, &body, timeline);
}

/// Dispatches one parsed request: opcode endpoints are answered and
/// recorded like binary requests, facade meta endpoints (`/metrics`,
/// `/healthz`, `/readyz`, unknown paths) feed only the aggregate
/// counters.
fn route(
    conn: &Connection,
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    query: &str,
    body: &[u8],
    timeline: Option<Timeline>,
) {
    match (method, path) {
        ("GET", "/info") => {
            let timeline = timeline.map(Timeline::scanning);
            let response = conn.engine.current().info();
            reply_json(conn, stream, ServeOp::Info, 0, &response, timeline);
        }
        ("GET", "/healthz") => {
            // Liveness: the accept loop handed us this request, so the
            // process is alive by construction.
            respond_meta(conn, stream, 200, "ok\n", false);
        }
        ("GET", "/readyz") => {
            // Readiness: a model generation is loaded by construction
            // (the daemon cannot start without one); the live half of the
            // probe is the stop flag the accept loop drains on.
            if conn.stop.load(Ordering::SeqCst) {
                respond_meta(conn, stream, 503, "draining\n", false);
            } else {
                respond_meta(conn, stream, 200, "ready\n", false);
            }
        }
        ("GET", "/metrics") => match &conn.obs {
            Some(o) => {
                let page = exporter::render(o.registry());
                o.record_meta(false);
                respond(
                    stream,
                    200,
                    "text/plain; version=0.0.4; charset=utf-8",
                    &page,
                );
            }
            None => respond(stream, 404, "text/plain", "tracing is not enabled\n"),
        },
        ("POST", "/assign") | ("POST", "/score") | ("POST", "/anomaly") => {
            let op = match path {
                "/assign" => ServeOp::Assign,
                "/score" => ServeOp::Score,
                _ => ServeOp::Anomaly,
            };
            let work = parse_work(op, body, query);
            let timeline = timeline.map(Timeline::scanning);
            match work {
                Ok(work) => {
                    let seq_len = match &work {
                        Work::Assign(s) | Work::Score(s) | Work::Anomaly(s, _) => s.len(),
                    };
                    let response = conn.engine.answer(&work);
                    reply_json(conn, stream, op, seq_len, &response, timeline);
                }
                Err(e) => {
                    conn.reply(stream, Outcome::failed(op), timeline, || {
                        http_bytes(400, "text/plain", &format!("{e}\n"))
                    });
                }
            }
        }
        ("POST", "/swap") => {
            let path_text = String::from_utf8_lossy(body).trim().to_string();
            let timeline = timeline.map(Timeline::scanning);
            match conn.engine.swap(Path::new(&path_text)) {
                Ok((generation, clusters)) => {
                    let response = Response::Swapped {
                        generation,
                        clusters,
                    };
                    reply_json(conn, stream, ServeOp::Swap, 0, &response, timeline);
                }
                Err(e) => {
                    conn.reply(stream, Outcome::failed(ServeOp::Swap), timeline, || {
                        http_bytes(409, "text/plain", &format!("swap failed: {e}\n"))
                    });
                }
            }
        }
        _ => respond_meta(
            conn,
            stream,
            404,
            "endpoints: GET /info /metrics /healthz /readyz, \
             POST /assign /score /anomaly /swap\n",
            true,
        ),
    }
}

/// Decodes a scoring endpoint's body (and, for `/anomaly`, its
/// `?threshold=` query) into the engine's query.
fn parse_work(op: ServeOp, body: &[u8], query: &str) -> Result<Work, String> {
    let seq = parse_sequence(body)?;
    Ok(match op {
        ServeOp::Assign => Work::Assign(seq),
        ServeOp::Score => Work::Score(seq),
        _ => Work::Anomaly(seq, query_threshold(query)?),
    })
}

/// Writes an opcode's JSON answer through the connection's reply path.
fn reply_json(
    conn: &Connection,
    stream: &mut TcpStream,
    op: ServeOp,
    seq_len: usize,
    response: &Response,
    timeline: Option<Timeline>,
) {
    conn.reply(stream, Outcome::of(op, seq_len, response), timeline, || {
        let (status, body) = to_json(response);
        http_bytes(status, "application/json", &body)
    });
}

/// Answers a request that never reached an opcode — a facade meta
/// endpoint or a malformed request — counting it in the aggregate totals
/// before its bytes leave.
fn respond_meta(conn: &Connection, stream: &mut TcpStream, status: u16, body: &str, error: bool) {
    if let Some(o) = &conn.obs {
        o.record_meta(error);
    }
    respond(stream, status, "text/plain", body);
}

fn read_head(stream: &mut TcpStream, head: &mut Vec<u8>, deadline: Instant) -> bool {
    let mut buf = [0u8; 1024];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() > MAX_HEAD || Instant::now() >= deadline {
            return false;
        }
        match stream.read(&mut buf) {
            Ok(0) => return true, // clean end; caller validates
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return false,
        }
    }
    true
}

/// Parses a query sequence: numeric symbol ids if every token is a
/// number, otherwise one character per symbol via [`CHARS`].
fn parse_sequence(body: &[u8]) -> Result<Vec<Symbol>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "sequence body is not UTF-8".to_string())?;
    let text = text.trim();
    if text.is_empty() {
        return Ok(Vec::new());
    }
    let tokens: Vec<&str> = text
        .split(|c: char| c.is_whitespace() || c == ',')
        .filter(|t| !t.is_empty())
        .collect();
    if tokens.iter().all(|t| t.bytes().all(|b| b.is_ascii_digit())) {
        return tokens
            .iter()
            .map(|t| {
                t.parse::<u16>()
                    .map(Symbol)
                    .map_err(|_| format!("symbol id {t} does not fit u16"))
            })
            .collect();
    }
    text.chars()
        .filter(|c| !c.is_whitespace())
        .map(|c| {
            CHARS
                .find(c)
                .map(|i| Symbol(i as u16))
                .ok_or_else(|| format!("character {c:?} is not a single-char alphabet symbol"))
        })
        .collect()
}

fn query_threshold(query: &str) -> Result<Option<f64>, String> {
    for pair in query.split('&') {
        if let Some((key, value)) = pair.split_once('=') {
            if key == "threshold" {
                return value
                    .parse::<f64>()
                    .map(Some)
                    .map_err(|_| format!("threshold {value:?} is not a number"));
            }
        }
    }
    Ok(None)
}

/// A JSON number, with non-finite values mapped to `null` (JSON has no
/// infinities; `-inf` is the score of an empty sequence).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn to_json(response: &Response) -> (u16, String) {
    match response {
        Response::Assign { generation, hits } => {
            let items: Vec<String> = hits
                .iter()
                .map(|(slot, sim)| format!("{{\"slot\":{slot},\"log_sim\":{}}}", json_f64(*sim)))
                .collect();
            (
                200,
                format!(
                    "{{\"generation\":{generation},\"hits\":[{}]}}",
                    items.join(",")
                ),
            )
        }
        Response::Score { generation, scores } => {
            let items: Vec<String> = scores
                .iter()
                .map(|s| {
                    format!(
                        "{{\"slot\":{},\"log_sim\":{},\"start\":{},\"end\":{}}}",
                        s.slot,
                        json_f64(s.log_sim),
                        s.start,
                        s.end
                    )
                })
                .collect();
            (
                200,
                format!(
                    "{{\"generation\":{generation},\"scores\":[{}]}}",
                    items.join(",")
                ),
            )
        }
        Response::Anomaly {
            generation,
            anomalous,
            best_log_sim,
            threshold,
            best_slot,
        } => (
            200,
            format!(
                "{{\"generation\":{generation},\"anomalous\":{anomalous},\
                 \"best_log_sim\":{},\"threshold\":{},\"best_slot\":{}}}",
                json_f64(*best_log_sim),
                json_f64(*threshold),
                best_slot.map_or("null".into(), |s| s.to_string()),
            ),
        ),
        Response::Info {
            generation,
            clusters,
            alphabet,
            log_t,
            kernel,
        } => (
            200,
            format!(
                "{{\"generation\":{generation},\"clusters\":{clusters},\
                 \"alphabet\":{alphabet},\"log_t\":{},\"kernel\":\"{}\"}}",
                json_f64(*log_t),
                match kernel {
                    1 => "compiled",
                    _ => "interpreted",
                },
            ),
        ),
        Response::Swapped {
            generation,
            clusters,
        } => (
            200,
            format!("{{\"generation\":{generation},\"clusters\":{clusters}}}"),
        ),
        Response::ShuttingDown => (503, "{\"error\":\"shutting down\"}".into()),
        Response::Error { code, message } => {
            let status = match *code {
                errcode::SHUTTING_DOWN => 503,
                errcode::SWAP_FAILED => 409,
                _ => 400,
            };
            (
                status,
                format!(
                    "{{\"error\":{:?},\"code\":{code}}}",
                    message.replace('"', "'")
                ),
            )
        }
    }
}

fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) {
    let _ = stream.write_all(&http_bytes(status, content_type, body));
}

/// One complete `Connection: close` response: status line, headers, body.
fn http_bytes(status: u16, content_type: &str, body: &str) -> Vec<u8> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let mut bytes = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_bodies_parse_both_spellings() {
        assert_eq!(
            parse_sequence(b"0, 1 2").unwrap(),
            vec![Symbol(0), Symbol(1), Symbol(2)]
        );
        assert_eq!(
            parse_sequence(b"aba").unwrap(),
            vec![Symbol(0), Symbol(1), Symbol(0)]
        );
        assert_eq!(parse_sequence(b"Z9").unwrap(), vec![Symbol(51), Symbol(61)]);
        assert_eq!(parse_sequence(b"  ").unwrap(), Vec::new());
        assert!(parse_sequence(b"~").is_err());
        assert!(parse_sequence(b"99999").is_err());
        assert!(parse_sequence(&[0xFF, 0xFE]).is_err());
    }

    #[test]
    fn threshold_query_parses() {
        assert_eq!(query_threshold("threshold=0.5").unwrap(), Some(0.5));
        assert_eq!(query_threshold("a=b&threshold=-2").unwrap(), Some(-2.0));
        assert_eq!(query_threshold("").unwrap(), None);
        assert!(query_threshold("threshold=x").is_err());
    }

    #[test]
    fn non_finite_scores_become_null() {
        assert_eq!(json_f64(f64::NEG_INFINITY), "null");
        assert_eq!(json_f64(1.5), "1.5");
        let (status, body) = to_json(&Response::Anomaly {
            generation: 1,
            anomalous: true,
            best_log_sim: f64::NEG_INFINITY,
            threshold: 0.0,
            best_slot: None,
        });
        assert_eq!(status, 200);
        assert!(body.contains("\"best_log_sim\":null"));
        assert!(body.contains("\"best_slot\":null"));
    }
}
