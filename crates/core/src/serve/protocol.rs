//! Wire protocol of the serve daemon: length-prefixed binary frames.
//!
//! # Frame layout
//!
//! Every message in either direction is one frame:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "CQSV"
//! 4       4     payload length, u32 little-endian (≤ MAX_FRAME_LEN)
//! 8       len   payload
//! ```
//!
//! Request payloads start with an opcode byte, response payloads with a
//! tag byte; every multi-byte integer is little-endian (the same
//! convention as [`cluseq_pst::serial`]). Symbols travel as raw `u16`
//! ids — the model file stores ids, not names, so the wire does too.
//!
//! ```text
//! request   op 0x01 ASSIGN    u32 n | n × u16 symbol
//!           op 0x02 SCORE     u32 n | n × u16 symbol
//!           op 0x03 ANOMALY   u8 has_threshold | f64 threshold (iff 1)
//!                             | u32 n | n × u16 symbol
//!           op 0x04 INFO      (empty)
//!           op 0x05 SWAP      u32 len | utf-8 path
//!           op 0x06 SHUTDOWN  (empty)
//!
//! response  tag 0x81 ASSIGN   u64 generation | u32 k
//!                             | k × (u32 slot, f64 log_sim)
//!           tag 0x82 SCORE    u64 generation | u32 k
//!                             | k × (u32 slot, f64 log_sim,
//!                                    u32 start, u32 end)
//!           tag 0x83 ANOMALY  u64 generation | u8 anomalous
//!                             | f64 best_log_sim | f64 threshold
//!                             | u32 best_slot (u32::MAX = none)
//!           tag 0x84 INFO     u64 generation | u32 clusters
//!                             | u32 alphabet | f64 log_t | u8 kernel
//!           tag 0x85 SWAPPED  u64 generation | u32 clusters
//!           tag 0x86 SHUTTING_DOWN (empty)
//!           tag 0xEE ERROR    u16 code | u32 len | utf-8 message
//! ```
//!
//! # Robustness contract
//!
//! Decoding is total: any byte string either decodes to a message or
//! returns a typed [`ProtoError`] — never a panic. A length prefix above
//! [`MAX_FRAME_LEN`] is rejected from the 8-byte header alone, *before*
//! any payload allocation, so a hostile client cannot make the server
//! reserve memory it never sends. Inside a payload, element counts are
//! validated against the bytes actually present before any
//! count-proportional allocation. `tests/serve_protocol.rs` fuzzes both
//! directions.

use std::io::{self, Read, Write};

use cluseq_pst::serial::{read_f64, read_u32, read_u64, write_f64, write_u32, write_u64};
use cluseq_seq::Symbol;

/// Magic bytes opening every frame.
pub const FRAME_MAGIC: [u8; 4] = *b"CQSV";

/// Hard cap on a frame's payload length (16 MiB). Oversized length
/// prefixes are rejected without allocating.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Error codes carried by [`Response::Error`] frames.
pub mod errcode {
    /// The payload failed to decode (bad counts, truncated body, …).
    pub const MALFORMED: u16 = 1;
    /// The length prefix exceeded [`super::MAX_FRAME_LEN`].
    pub const OVERSIZED: u16 = 2;
    /// Unknown opcode byte.
    pub const BAD_OP: u16 = 3;
    /// A symbol id is outside the model's alphabet.
    pub const SYMBOL_RANGE: u16 = 4;
    /// A SWAP failed; the previous model generation keeps serving.
    pub const SWAP_FAILED: u16 = 5;
    /// The server is draining and no longer accepts work.
    pub const SHUTTING_DOWN: u16 = 6;
    /// The rest of a started frame did not arrive within the read
    /// timeout (slow-loris defence).
    pub const TIMEOUT: u16 = 7;
    /// The frame opened with bytes that are neither frame magic nor a
    /// recognizable HTTP request.
    pub const BAD_MAGIC: u16 = 8;
}

/// Why a frame or payload failed to decode.
#[derive(Debug)]
pub enum ProtoError {
    /// Underlying transport error.
    Io(io::Error),
    /// The 4 magic bytes were wrong (the bytes actually seen).
    BadMagic([u8; 4]),
    /// The length prefix exceeded [`MAX_FRAME_LEN`].
    Oversized(u32),
    /// The stream ended mid-frame.
    Truncated,
    /// Unknown opcode / response tag.
    BadTag(u8),
    /// The payload decoded inconsistently.
    Corrupt(&'static str),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "i/o: {e}"),
            ProtoError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            ProtoError::Oversized(n) => {
                write!(f, "length prefix {n} exceeds cap {MAX_FRAME_LEN}")
            }
            ProtoError::Truncated => write!(f, "stream ended mid-frame"),
            ProtoError::BadTag(t) => write!(f, "unknown message tag {t:#04x}"),
            ProtoError::Corrupt(what) => write!(f, "corrupt payload: {what}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            ProtoError::Truncated
        } else {
            ProtoError::Io(e)
        }
    }
}

/// One query or admin command a client sends.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Which clusters would this sequence join under the stored threshold?
    Assign {
        /// The query sequence, as raw symbol ids.
        seq: Vec<Symbol>,
    },
    /// Full similarity of the sequence to every cluster, best first.
    Score {
        /// The query sequence, as raw symbol ids.
        seq: Vec<Symbol>,
    },
    /// Is this sequence anomalous (best similarity below the threshold)?
    Anomaly {
        /// The query sequence, as raw symbol ids.
        seq: Vec<Symbol>,
        /// Decision threshold override, log-space; `None` uses the
        /// model's stored `ln t`.
        threshold: Option<f64>,
    },
    /// Model metadata: generation, cluster count, alphabet, threshold.
    Info,
    /// Atomically hot-swap to the model at this server-side path.
    Swap {
        /// Server-side path of the replacement model (CSEQ or CCKP).
        path: String,
    },
    /// Begin graceful shutdown: drain in-flight requests, then exit.
    Shutdown,
}

/// One per-cluster entry of a [`Response::Score`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterScore {
    /// Cluster slot in the model's order.
    pub slot: u32,
    /// Log-space similarity of the best segment.
    pub log_sim: f64,
    /// Maximizing segment start (inclusive).
    pub start: u32,
    /// Maximizing segment end (exclusive).
    pub end: u32,
}

/// What the server answers. Every scored response carries the generation
/// of the exact model that produced it.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Clusters the sequence joins, best first.
    Assign {
        /// Model generation that produced this answer.
        generation: u64,
        /// `(slot, log_sim)` of every cluster at or above the threshold.
        hits: Vec<(u32, f64)>,
    },
    /// Similarity against every cluster, best first.
    Score {
        /// Model generation that produced this answer.
        generation: u64,
        /// Per-cluster similarity, sorted best first.
        scores: Vec<ClusterScore>,
    },
    /// The anomaly verdict.
    Anomaly {
        /// Model generation that produced this answer.
        generation: u64,
        /// Whether the best similarity fell below the threshold.
        anomalous: bool,
        /// Best log-similarity over all clusters (`-inf` when the model
        /// has none).
        best_log_sim: f64,
        /// The threshold the verdict used, log-space.
        threshold: f64,
        /// Slot of the best-scoring cluster, if any.
        best_slot: Option<u32>,
    },
    /// Model metadata.
    Info {
        /// Live model generation.
        generation: u64,
        /// Number of clusters in the model.
        clusters: u32,
        /// Alphabet size the model scores over.
        alphabet: u32,
        /// The decision threshold, log-space.
        log_t: f64,
        /// Scan kernel tag: 0 = interpreted, 1 = compiled.
        kernel: u8,
    },
    /// A SWAP succeeded; this is the new generation.
    Swapped {
        /// Generation of the freshly installed model.
        generation: u64,
        /// Cluster count of the new model.
        clusters: u32,
    },
    /// The server acknowledged a SHUTDOWN (or refused work while
    /// draining).
    ShuttingDown,
    /// The request could not be served.
    Error {
        /// An [`errcode`] constant.
        code: u16,
        /// Human-readable detail.
        message: String,
    },
}

const OP_ASSIGN: u8 = 0x01;
const OP_SCORE: u8 = 0x02;
const OP_ANOMALY: u8 = 0x03;
const OP_INFO: u8 = 0x04;
const OP_SWAP: u8 = 0x05;
const OP_SHUTDOWN: u8 = 0x06;

const TAG_ASSIGN: u8 = 0x81;
const TAG_SCORE: u8 = 0x82;
const TAG_ANOMALY: u8 = 0x83;
const TAG_INFO: u8 = 0x84;
const TAG_SWAPPED: u8 = 0x85;
const TAG_SHUTTING_DOWN: u8 = 0x86;
const TAG_ERROR: u8 = 0xEE;

/// Validates an 8-byte frame header, returning the payload length.
/// Rejects before any allocation: this is the oversized-length defence.
pub fn parse_header(header: &[u8; 8]) -> Result<u32, ProtoError> {
    let magic: [u8; 4] = header[..4].try_into().expect("4 bytes");
    if magic != FRAME_MAGIC {
        return Err(ProtoError::BadMagic(magic));
    }
    let len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if len > MAX_FRAME_LEN {
        return Err(ProtoError::Oversized(len));
    }
    Ok(len)
}

/// Frames `payload` with magic and length prefix.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&FRAME_MAGIC);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Writes one frame to `w` (header + payload, single `write_all`).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&frame(payload))
}

/// Blocking frame read: header, validation, then exactly the payload.
/// Returns `Ok(None)` on a clean EOF *before* the first header byte
/// (the peer simply closed between frames).
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ProtoError> {
    let mut header = [0u8; 8];
    let mut got = 0usize;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) => {
                return if got == 0 {
                    Ok(None)
                } else {
                    Err(ProtoError::Truncated)
                }
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let len = parse_header(&header)? as usize;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

fn write_symbols(w: &mut impl Write, seq: &[Symbol]) -> io::Result<()> {
    write_u32(w, seq.len() as u32)?;
    for s in seq {
        w.write_all(&s.0.to_le_bytes())?;
    }
    Ok(())
}

/// Reads a `u32`-counted symbol vector, validating the count against the
/// bytes remaining before allocating.
fn read_symbols(r: &mut SliceReader<'_>) -> Result<Vec<Symbol>, ProtoError> {
    let n = read_u32(r).map_err(ProtoError::from)? as usize;
    if n * 2 > r.remaining() {
        return Err(ProtoError::Corrupt("symbol count exceeds payload"));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let mut b = [0u8; 2];
        r.read_exact(&mut b).map_err(ProtoError::from)?;
        out.push(Symbol(u16::from_le_bytes(b)));
    }
    Ok(out)
}

/// A slice cursor that knows how many bytes remain — the count-validation
/// primitive the decoders use before allocating.
struct SliceReader<'a> {
    buf: &'a [u8],
}

impl SliceReader<'_> {
    fn remaining(&self) -> usize {
        self.buf.len()
    }
}

impl Read for SliceReader<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let n = out.len().min(self.buf.len());
        out[..n].copy_from_slice(&self.buf[..n]);
        self.buf = &self.buf[n..];
        Ok(n)
    }
}

fn read_string(r: &mut SliceReader<'_>, what: &'static str) -> Result<String, ProtoError> {
    let len = read_u32(r).map_err(ProtoError::from)? as usize;
    if len > r.remaining() {
        return Err(ProtoError::Corrupt(what));
    }
    let mut bytes = vec![0u8; len];
    r.read_exact(&mut bytes).map_err(ProtoError::from)?;
    String::from_utf8(bytes).map_err(|_| ProtoError::Corrupt(what))
}

fn write_string(w: &mut impl Write, s: &str) -> io::Result<()> {
    write_u32(w, s.len() as u32)?;
    w.write_all(s.as_bytes())
}

impl Request {
    /// Encodes the request payload (no frame header).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let w = &mut out;
        let infallible = "Vec write cannot fail";
        match self {
            Request::Assign { seq } => {
                w.push(OP_ASSIGN);
                write_symbols(w, seq).expect(infallible);
            }
            Request::Score { seq } => {
                w.push(OP_SCORE);
                write_symbols(w, seq).expect(infallible);
            }
            Request::Anomaly { seq, threshold } => {
                w.push(OP_ANOMALY);
                match threshold {
                    Some(t) => {
                        w.push(1);
                        write_f64(w, *t).expect(infallible);
                    }
                    None => w.push(0),
                }
                write_symbols(w, seq).expect(infallible);
            }
            Request::Info => w.push(OP_INFO),
            Request::Swap { path } => {
                w.push(OP_SWAP);
                write_string(w, path).expect(infallible);
            }
            Request::Shutdown => w.push(OP_SHUTDOWN),
        }
        out
    }

    /// Encodes the complete frame (header + payload).
    pub fn encode_frame(&self) -> Vec<u8> {
        frame(&self.encode_payload())
    }

    /// Decodes a request payload; total over arbitrary bytes.
    pub fn decode_payload(payload: &[u8]) -> Result<Self, ProtoError> {
        let mut r = SliceReader { buf: payload };
        let mut op = [0u8; 1];
        r.read_exact(&mut op).map_err(ProtoError::from)?;
        let req = match op[0] {
            OP_ASSIGN => Request::Assign {
                seq: read_symbols(&mut r)?,
            },
            OP_SCORE => Request::Score {
                seq: read_symbols(&mut r)?,
            },
            OP_ANOMALY => {
                let mut has = [0u8; 1];
                r.read_exact(&mut has).map_err(ProtoError::from)?;
                let threshold = match has[0] {
                    0 => None,
                    1 => Some(read_f64(&mut r).map_err(ProtoError::from)?),
                    _ => return Err(ProtoError::Corrupt("anomaly threshold flag")),
                };
                Request::Anomaly {
                    seq: read_symbols(&mut r)?,
                    threshold,
                }
            }
            OP_INFO => Request::Info,
            OP_SWAP => Request::Swap {
                path: read_string(&mut r, "swap path")?,
            },
            OP_SHUTDOWN => Request::Shutdown,
            other => return Err(ProtoError::BadTag(other)),
        };
        if r.remaining() != 0 {
            return Err(ProtoError::Corrupt("trailing bytes"));
        }
        Ok(req)
    }
}

impl Response {
    /// The model generation that produced this answer, when the variant
    /// carries one (errors and the shutdown ack do not). Observability
    /// stamps slow-request records with it.
    pub fn generation(&self) -> Option<u64> {
        match self {
            Response::Assign { generation, .. }
            | Response::Score { generation, .. }
            | Response::Anomaly { generation, .. }
            | Response::Info { generation, .. }
            | Response::Swapped { generation, .. } => Some(*generation),
            Response::ShuttingDown | Response::Error { .. } => None,
        }
    }

    /// Encodes the response payload (no frame header).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let w = &mut out;
        let infallible = "Vec write cannot fail";
        match self {
            Response::Assign { generation, hits } => {
                w.push(TAG_ASSIGN);
                write_u64(w, *generation).expect(infallible);
                write_u32(w, hits.len() as u32).expect(infallible);
                for (slot, sim) in hits {
                    write_u32(w, *slot).expect(infallible);
                    write_f64(w, *sim).expect(infallible);
                }
            }
            Response::Score { generation, scores } => {
                w.push(TAG_SCORE);
                write_u64(w, *generation).expect(infallible);
                write_u32(w, scores.len() as u32).expect(infallible);
                for s in scores {
                    write_u32(w, s.slot).expect(infallible);
                    write_f64(w, s.log_sim).expect(infallible);
                    write_u32(w, s.start).expect(infallible);
                    write_u32(w, s.end).expect(infallible);
                }
            }
            Response::Anomaly {
                generation,
                anomalous,
                best_log_sim,
                threshold,
                best_slot,
            } => {
                w.push(TAG_ANOMALY);
                write_u64(w, *generation).expect(infallible);
                w.push(u8::from(*anomalous));
                write_f64(w, *best_log_sim).expect(infallible);
                write_f64(w, *threshold).expect(infallible);
                write_u32(w, best_slot.unwrap_or(u32::MAX)).expect(infallible);
            }
            Response::Info {
                generation,
                clusters,
                alphabet,
                log_t,
                kernel,
            } => {
                w.push(TAG_INFO);
                write_u64(w, *generation).expect(infallible);
                write_u32(w, *clusters).expect(infallible);
                write_u32(w, *alphabet).expect(infallible);
                write_f64(w, *log_t).expect(infallible);
                w.push(*kernel);
            }
            Response::Swapped {
                generation,
                clusters,
            } => {
                w.push(TAG_SWAPPED);
                write_u64(w, *generation).expect(infallible);
                write_u32(w, *clusters).expect(infallible);
            }
            Response::ShuttingDown => w.push(TAG_SHUTTING_DOWN),
            Response::Error { code, message } => {
                w.push(TAG_ERROR);
                w.extend_from_slice(&code.to_le_bytes());
                write_string(w, message).expect(infallible);
            }
        }
        out
    }

    /// Encodes the complete frame (header + payload).
    pub fn encode_frame(&self) -> Vec<u8> {
        frame(&self.encode_payload())
    }

    /// Decodes a response payload; total over arbitrary bytes.
    pub fn decode_payload(payload: &[u8]) -> Result<Self, ProtoError> {
        let mut r = SliceReader { buf: payload };
        let mut tag = [0u8; 1];
        r.read_exact(&mut tag).map_err(ProtoError::from)?;
        let resp = match tag[0] {
            TAG_ASSIGN => {
                let generation = read_u64(&mut r).map_err(ProtoError::from)?;
                let k = read_u32(&mut r).map_err(ProtoError::from)? as usize;
                if k * 12 > r.remaining() {
                    return Err(ProtoError::Corrupt("assign count exceeds payload"));
                }
                let mut hits = Vec::with_capacity(k);
                for _ in 0..k {
                    let slot = read_u32(&mut r).map_err(ProtoError::from)?;
                    let sim = read_f64(&mut r).map_err(ProtoError::from)?;
                    hits.push((slot, sim));
                }
                Response::Assign { generation, hits }
            }
            TAG_SCORE => {
                let generation = read_u64(&mut r).map_err(ProtoError::from)?;
                let k = read_u32(&mut r).map_err(ProtoError::from)? as usize;
                if k * 20 > r.remaining() {
                    return Err(ProtoError::Corrupt("score count exceeds payload"));
                }
                let mut scores = Vec::with_capacity(k);
                for _ in 0..k {
                    scores.push(ClusterScore {
                        slot: read_u32(&mut r).map_err(ProtoError::from)?,
                        log_sim: read_f64(&mut r).map_err(ProtoError::from)?,
                        start: read_u32(&mut r).map_err(ProtoError::from)?,
                        end: read_u32(&mut r).map_err(ProtoError::from)?,
                    });
                }
                Response::Score { generation, scores }
            }
            TAG_ANOMALY => {
                let generation = read_u64(&mut r).map_err(ProtoError::from)?;
                let mut flag = [0u8; 1];
                r.read_exact(&mut flag).map_err(ProtoError::from)?;
                if flag[0] > 1 {
                    return Err(ProtoError::Corrupt("anomaly verdict flag"));
                }
                let best_log_sim = read_f64(&mut r).map_err(ProtoError::from)?;
                let threshold = read_f64(&mut r).map_err(ProtoError::from)?;
                let raw_slot = read_u32(&mut r).map_err(ProtoError::from)?;
                Response::Anomaly {
                    generation,
                    anomalous: flag[0] == 1,
                    best_log_sim,
                    threshold,
                    best_slot: (raw_slot != u32::MAX).then_some(raw_slot),
                }
            }
            TAG_INFO => {
                let generation = read_u64(&mut r).map_err(ProtoError::from)?;
                let clusters = read_u32(&mut r).map_err(ProtoError::from)?;
                let alphabet = read_u32(&mut r).map_err(ProtoError::from)?;
                let log_t = read_f64(&mut r).map_err(ProtoError::from)?;
                let mut kernel = [0u8; 1];
                r.read_exact(&mut kernel).map_err(ProtoError::from)?;
                Response::Info {
                    generation,
                    clusters,
                    alphabet,
                    log_t,
                    kernel: kernel[0],
                }
            }
            TAG_SWAPPED => Response::Swapped {
                generation: read_u64(&mut r).map_err(ProtoError::from)?,
                clusters: read_u32(&mut r).map_err(ProtoError::from)?,
            },
            TAG_SHUTTING_DOWN => Response::ShuttingDown,
            TAG_ERROR => {
                let mut code = [0u8; 2];
                r.read_exact(&mut code).map_err(ProtoError::from)?;
                Response::Error {
                    code: u16::from_le_bytes(code),
                    message: read_string(&mut r, "error message")?,
                }
            }
            other => return Err(ProtoError::BadTag(other)),
        };
        if r.remaining() != 0 {
            return Err(ProtoError::Corrupt("trailing bytes"));
        }
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: &Request) {
        let payload = req.encode_payload();
        let back = Request::decode_payload(&payload).expect("decodes");
        assert_eq!(&back, req);
    }

    fn roundtrip_response(resp: &Response) {
        let payload = resp.encode_payload();
        let back = Response::decode_payload(&payload).expect("decodes");
        assert_eq!(&back, resp);
    }

    #[test]
    fn request_payloads_round_trip() {
        let seq = vec![Symbol(0), Symbol(7), Symbol(65535)];
        roundtrip_request(&Request::Assign { seq: seq.clone() });
        roundtrip_request(&Request::Score { seq: Vec::new() });
        roundtrip_request(&Request::Anomaly {
            seq,
            threshold: Some(-3.25),
        });
        roundtrip_request(&Request::Anomaly {
            seq: Vec::new(),
            threshold: None,
        });
        roundtrip_request(&Request::Info);
        roundtrip_request(&Request::Swap {
            path: "/tmp/model.cseq".into(),
        });
        roundtrip_request(&Request::Shutdown);
    }

    #[test]
    fn response_payloads_round_trip() {
        roundtrip_response(&Response::Assign {
            generation: 3,
            hits: vec![(0, 1.5), (2, f64::NEG_INFINITY)],
        });
        roundtrip_response(&Response::Score {
            generation: 1,
            scores: vec![ClusterScore {
                slot: 1,
                log_sim: -0.25,
                start: 3,
                end: 17,
            }],
        });
        roundtrip_response(&Response::Anomaly {
            generation: 9,
            anomalous: true,
            best_log_sim: -1.0,
            threshold: 0.5,
            best_slot: None,
        });
        roundtrip_response(&Response::Info {
            generation: 2,
            clusters: 5,
            alphabet: 40,
            log_t: 0.125,
            kernel: 1,
        });
        roundtrip_response(&Response::Swapped {
            generation: 4,
            clusters: 7,
        });
        roundtrip_response(&Response::ShuttingDown);
        roundtrip_response(&Response::Error {
            code: errcode::SWAP_FAILED,
            message: "no such file".into(),
        });
    }

    #[test]
    fn oversized_header_is_rejected_before_allocation() {
        let mut header = [0u8; 8];
        header[..4].copy_from_slice(&FRAME_MAGIC);
        header[4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            parse_header(&header),
            Err(ProtoError::Oversized(_))
        ));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let header = *b"HTTP\x00\x00\x00\x00";
        assert!(matches!(
            parse_header(&header),
            Err(ProtoError::BadMagic(_))
        ));
    }

    #[test]
    fn lying_symbol_count_is_rejected_without_allocation() {
        // An ASSIGN payload claiming 2^31 symbols in 4 bytes of body.
        let mut payload = vec![OP_ASSIGN];
        payload.extend_from_slice(&(1u32 << 31).to_le_bytes());
        payload.extend_from_slice(&[0, 0]);
        assert!(matches!(
            Request::decode_payload(&payload),
            Err(ProtoError::Corrupt(_))
        ));
    }

    #[test]
    fn truncated_payloads_never_panic() {
        let full = Request::Anomaly {
            seq: vec![Symbol(3); 9],
            threshold: Some(1.5),
        }
        .encode_payload();
        for cut in 0..full.len() {
            assert!(
                Request::decode_payload(&full[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
        assert!(Request::decode_payload(&full).is_ok());
    }

    #[test]
    fn frame_read_round_trips_and_reports_clean_eof() {
        let req = Request::Info;
        let bytes = req.encode_frame();
        let mut cursor = &bytes[..];
        let payload = read_frame(&mut cursor).unwrap().expect("one frame");
        assert_eq!(Request::decode_payload(&payload).unwrap(), req);
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
        // EOF mid-header is truncation, not clean.
        let mut cut = &bytes[..5];
        assert!(matches!(read_frame(&mut cut), Err(ProtoError::Truncated)));
    }
}
