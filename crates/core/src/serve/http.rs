//! The curl-facing HTTP/1.1 JSON facade of the serve daemon.
//!
//! Any connection whose first byte is not the binary frame magic is
//! treated as one HTTP request (answered with `Connection: close`).
//! Queries go through the same [`ServeEngine`] queue as binary clients,
//! so an HTTP `POST /assign` is batched, generation-stamped, and
//! bit-identical to its binary twin — the facade only translates
//! encodings.
//!
//! Sequences are accepted in two spellings: whitespace/comma-separated
//! numeric symbol ids (`"0 1 0 1"`), or one character per symbol using
//! the CLI's single-character alphabet order (`"abab"`, a–z then A–Z then
//! 0–9).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cluseq_seq::Symbol;

use crate::serve::engine::{Scored, ServeEngine, Work};
use crate::serve::obs::{RequestRecord, ServeObs, ServeOp, StageNanos};
use crate::serve::protocol::{errcode, Response};
use crate::trace::{self, exporter};

/// The CLI's single-character alphabet order (`single_char_recode`):
/// index in this string = symbol id.
const CHARS: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";

const MAX_HEAD: usize = 16 * 1024;
const MAX_BODY: usize = 1024 * 1024;

/// The transport-side half of an HTTP request's timeline: its id plus the
/// accept stage (head + body read). Absent when observability is off.
#[derive(Clone, Copy)]
struct HttpMeta {
    request_id: u64,
    accept_nanos: u64,
}

/// Serves one HTTP request on `stream`; `first` is the already-consumed
/// first byte. The whole request must arrive before `deadline`.
pub(crate) fn handle(
    stream: &mut TcpStream,
    first: u8,
    engine: &Arc<ServeEngine>,
    obs: Option<&Arc<ServeObs>>,
    deadline: Instant,
) {
    let started = obs.map(|o| (o.next_request_id(), Instant::now()));
    let meta_error = |message: &str| {
        if let Some(o) = obs {
            o.record_meta(true);
        }
        let _ = message;
    };
    let mut head = vec![first];
    if !read_head(stream, &mut head, deadline) {
        respond(stream, 408, "text/plain", "request head timed out\n");
        meta_error("head timeout");
        return;
    }
    let head_end = match head.windows(4).position(|w| w == b"\r\n\r\n") {
        Some(at) => at + 4,
        None => {
            respond(stream, 400, "text/plain", "malformed request head\n");
            meta_error("malformed head");
            return;
        }
    };
    let mut body = head.split_off(head_end);
    let head_text = match std::str::from_utf8(&head) {
        Ok(s) => s,
        Err(_) => {
            respond(stream, 400, "text/plain", "request head is not UTF-8\n");
            meta_error("non-utf8 head");
            return;
        }
    };
    let mut lines = head_text.lines();
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m, t),
        _ => {
            respond(stream, 400, "text/plain", "malformed request line\n");
            meta_error("malformed request line");
            return;
        }
    };
    let content_length = lines
        .filter_map(|line| line.split_once(':'))
        .find(|(name, _)| name.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .unwrap_or(0);
    if content_length > MAX_BODY {
        respond(stream, 413, "text/plain", "body too large\n");
        meta_error("oversized body");
        return;
    }
    while body.len() < content_length {
        let mut chunk = [0u8; 4096];
        if Instant::now() >= deadline {
            respond(stream, 408, "text/plain", "request body timed out\n");
            meta_error("body timeout");
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
    let meta = started.map(|(request_id, t)| HttpMeta {
        request_id,
        accept_nanos: trace::nanos_since(t),
    });
    route(stream, method, path, query, &body, engine, obs, meta);
}

/// Dispatches one parsed request and records its outcome: scoring and
/// admin endpoints get a full per-opcode request record, facade meta
/// endpoints (`/metrics`, `/healthz`, `/readyz`, unknown paths) feed only
/// the aggregate counters.
#[allow(clippy::too_many_arguments)]
fn route(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    query: &str,
    body: &[u8],
    engine: &Arc<ServeEngine>,
    obs: Option<&Arc<ServeObs>>,
    meta: Option<HttpMeta>,
) {
    let record_meta = |error: bool| {
        if let Some(o) = obs {
            o.record_meta(error);
        }
    };
    match (method, path) {
        ("GET", "/info") => {
            let response = engine.current().info();
            finish(stream, obs, meta, ServeOp::Info, Scored::immediate(response), 0, 0);
        }
        ("GET", "/healthz") => {
            // Liveness: the accept loop handed us this request, so the
            // process is alive by construction.
            respond(stream, 200, "text/plain", "ok\n");
            record_meta(false);
        }
        ("GET", "/readyz") => {
            // Readiness: a model generation is loaded by construction
            // (the daemon cannot start without one); the queue still
            // accepting work is the live half of the probe.
            if engine.is_ready() {
                respond(stream, 200, "text/plain", "ready\n");
            } else {
                respond(stream, 503, "text/plain", "draining\n");
            }
            record_meta(false);
        }
        ("GET", "/metrics") => match obs {
            Some(o) => {
                respond(
                    stream,
                    200,
                    "text/plain; version=0.0.4; charset=utf-8",
                    &exporter::render(o.registry()),
                );
                record_meta(false);
            }
            None => {
                respond(stream, 404, "text/plain", "tracing is not enabled\n");
            }
        },
        ("POST", "/assign") | ("POST", "/score") | ("POST", "/anomaly") => {
            let op = match path {
                "/assign" => ServeOp::Assign,
                "/score" => ServeOp::Score,
                _ => ServeOp::Anomaly,
            };
            let decode_start = meta.map(|_| Instant::now());
            let seq = match parse_sequence(body) {
                Ok(seq) => seq,
                Err(e) => {
                    respond(stream, 400, "text/plain", &format!("{e}\n"));
                    record_op_error(obs, meta, op, decode_start.map_or(0, trace::nanos_since));
                    return;
                }
            };
            let work = match op {
                ServeOp::Assign => Work::Assign(seq),
                ServeOp::Score => Work::Score(seq),
                _ => {
                    let threshold = match query_threshold(query) {
                        Ok(t) => t,
                        Err(e) => {
                            respond(stream, 400, "text/plain", &format!("{e}\n"));
                            record_op_error(
                                obs,
                                meta,
                                op,
                                decode_start.map_or(0, trace::nanos_since),
                            );
                            return;
                        }
                    };
                    Work::Anomaly(seq, threshold)
                }
            };
            let seq_len = match &work {
                Work::Assign(s) | Work::Score(s) | Work::Anomaly(s, _) => s.len(),
            };
            let decode_nanos = decode_start.map_or(0, trace::nanos_since);
            let scored = engine
                .submit(work)
                .recv()
                .unwrap_or_else(|_| Scored::draining());
            finish(stream, obs, meta, op, scored, seq_len, decode_nanos);
        }
        ("POST", "/swap") => {
            let path_text = String::from_utf8_lossy(body).trim().to_string();
            match engine.swap(Path::new(&path_text)) {
                Ok((generation, clusters)) => {
                    finish(
                        stream,
                        obs,
                        meta,
                        ServeOp::Swap,
                        Scored::immediate(Response::Swapped {
                            generation,
                            clusters,
                        }),
                        0,
                        0,
                    );
                }
                Err(e) => {
                    respond(stream, 409, "text/plain", &format!("swap failed: {e}\n"));
                    record_op_error(obs, meta, ServeOp::Swap, 0);
                }
            }
        }
        _ => {
            respond(
                stream,
                404,
                "text/plain",
                "endpoints: GET /info /metrics /healthz /readyz, \
                 POST /assign /score /anomaly /swap\n",
            );
            record_meta(true);
        }
    }
}

/// Encodes and writes the JSON answer; with observability on, times the
/// encode and write-back stages and records the full request timeline.
fn finish(
    stream: &mut TcpStream,
    obs: Option<&Arc<ServeObs>>,
    meta: Option<HttpMeta>,
    op: ServeOp,
    scored: Scored,
    seq_len: usize,
    decode_nanos: u64,
) {
    let Scored {
        response,
        enqueued: _,
        queue_wait_nanos,
        batch_form_nanos,
        scan_nanos,
    } = scored;
    match (obs, meta) {
        (Some(obs), Some(meta)) => {
            let encode_start = Instant::now();
            let (status, body) = to_json(&response);
            let write_start = Instant::now();
            respond(stream, status, "application/json", &body);
            let stages = StageNanos {
                accept: meta.accept_nanos,
                decode: decode_nanos,
                queue_wait: queue_wait_nanos,
                batch_form: batch_form_nanos,
                scan: scan_nanos,
                encode: trace::saturating_nanos(write_start.duration_since(encode_start)),
                write_back: trace::nanos_since(write_start),
            };
            obs.record(&RequestRecord {
                request_id: meta.request_id,
                op,
                transport: "http",
                generation: response.generation(),
                seq_len,
                error: matches!(response, Response::Error { .. }),
                stages,
            });
        }
        _ => send_response(stream, &response),
    }
}

/// Records a request that failed before reaching the queue but whose
/// opcode is known from the path (parse errors, failed swaps).
fn record_op_error(
    obs: Option<&Arc<ServeObs>>,
    meta: Option<HttpMeta>,
    op: ServeOp,
    decode_nanos: u64,
) {
    if let (Some(obs), Some(meta)) = (obs, meta) {
        obs.record(&RequestRecord {
            request_id: meta.request_id,
            op,
            transport: "http",
            generation: None,
            seq_len: 0,
            error: true,
            stages: StageNanos {
                accept: meta.accept_nanos,
                decode: decode_nanos,
                ..Default::default()
            },
        });
    }
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

fn send_response(stream: &mut TcpStream, response: &Response) {
    let (status, body) = to_json(response);
    respond(stream, status, "application/json", &body);
}

fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) {
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
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
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
