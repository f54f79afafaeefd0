//! Serve-protocol robustness suite: the frame codec round-trips under
//! proptest, and the daemon survives hostile bytes — truncation at every
//! byte of a valid frame, oversized length prefixes (rejected from the
//! header alone, before any payload allocation), garbage magic, unknown
//! opcodes, and slow-loris stalls that must hit the read timeout. In
//! every case the server answers a well-formed error frame or closes the
//! connection; it never panics and never hangs.

use std::fs;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

use proptest::prelude::*;

use cluseq::core::serve::protocol::{
    errcode, parse_header, read_frame, ClusterScore, ProtoError, Request, Response, FRAME_MAGIC,
    MAX_FRAME_LEN,
};
use cluseq::prelude::*;

fn tmpdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Trains a tiny model and writes it as a CSEQ snapshot.
fn model_file(dir: &Path) -> PathBuf {
    let db = SyntheticSpec {
        sequences: 30,
        clusters: 2,
        avg_len: 40,
        alphabet: 8,
        outlier_fraction: 0.0,
        seed: 11,
    }
    .generate();
    let outcome = Cluseq::new(
        CluseqParams::default()
            .with_initial_clusters(2)
            .with_significance(4)
            .with_max_depth(5)
            .with_max_iterations(5)
            .with_seed(3),
    )
    .run(&db);
    let path = dir.join("model.cseq");
    let mut f = fs::File::create(&path).expect("create model file");
    SavedModel::from_outcome(&outcome)
        .save(&mut f)
        .expect("save model");
    path
}

fn start_server(model_path: &Path, frame_timeout: Duration) -> ServerHandle {
    let model = ServeModel::load(model_path, None, ScanKernel::Compiled, 1).expect("load model");
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        kernel: ScanKernel::Compiled,
        frame_timeout,
        watch_sighup: false,
    };
    Server::start(model, None, &config, None).expect("start server")
}

/// Reads whatever the server sends until it closes, bounded by a client
/// read timeout so a hung server fails the test instead of wedging it.
fn read_until_close(stream: &mut TcpStream) -> Vec<u8> {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => out.extend_from_slice(&buf[..n]),
            Err(_) => break,
        }
    }
    out
}

/// Asserts the server's reaction to hostile bytes is well-formed: either
/// a clean close (nothing sent) or a stream of decodable frames.
fn assert_error_frame_or_close(bytes: &[u8]) -> Option<Response> {
    if bytes.is_empty() {
        return None;
    }
    let mut cursor = bytes;
    let payload = read_frame(&mut cursor)
        .expect("server bytes must be a valid frame")
        .expect("non-empty response");
    Some(Response::decode_payload(&payload).expect("server frame must decode"))
}

// ---- proptest: the codec is total and round-trips ----------------------

// The vendored proptest is a minimal stub (ranges, tuples, vec, option,
// bool, map/flat_map/filter — no `any`, no `prop_oneof!`, no regex
// strings), so variant choice is a plain discriminant range mapped to
// the enum by hand.

fn arb_symbols() -> impl Strategy<Value = Vec<Symbol>> {
    prop::collection::vec((0u16..=u16::MAX).prop_map(Symbol), 0..64)
}

/// Finite f64s across a wide range, including negatives (log-sims are
/// negative in practice).
fn arb_f64() -> impl Strategy<Value = f64> {
    -1.0e9f64..1.0e9
}

/// Printable-ASCII strings up to 80 bytes.
fn arb_text() -> impl Strategy<Value = String> {
    prop::collection::vec(0x20u8..0x7f, 0..80)
        .prop_map(|bytes| String::from_utf8(bytes).expect("printable ASCII"))
}

fn arb_request() -> impl Strategy<Value = Request> {
    (
        0u8..6,
        arb_symbols(),
        prop::option::of(arb_f64()),
        arb_text(),
    )
        .prop_map(|(disc, seq, threshold, path)| match disc {
            0 => Request::Assign { seq },
            1 => Request::Score { seq },
            2 => Request::Anomaly { seq, threshold },
            3 => Request::Info,
            4 => Request::Swap { path },
            _ => Request::Shutdown,
        })
}

fn arb_hits() -> impl Strategy<Value = Vec<(u32, f64)>> {
    prop::collection::vec((0u32..=u32::MAX, arb_f64()), 0..16)
}

fn arb_scores() -> impl Strategy<Value = Vec<ClusterScore>> {
    prop::collection::vec(
        (0u32..=u32::MAX, arb_f64(), 0u32..=u32::MAX, 0u32..=u32::MAX).prop_map(
            |(slot, log_sim, start, end)| ClusterScore {
                slot,
                log_sim,
                start,
                end,
            },
        ),
        0..16,
    )
}

fn arb_response() -> impl Strategy<Value = Response> {
    (
        (0u8..6, 0u64..=u64::MAX / 2, prop::bool::ANY),
        (arb_hits(), arb_scores()),
        (arb_f64(), arb_f64(), prop::option::of(0u32..u32::MAX - 1)),
        (0u32..=u32::MAX, 0u16..=u16::MAX, arb_text()),
    )
        .prop_map(
            |(
                (disc, generation, anomalous),
                (hits, scores),
                (best_log_sim, threshold, best_slot),
                (clusters, code, message),
            )| match disc {
                0 => Response::Assign { generation, hits },
                1 => Response::Score { generation, scores },
                2 => Response::Anomaly {
                    generation,
                    anomalous,
                    best_log_sim,
                    threshold,
                    best_slot,
                },
                3 => Response::Info {
                    generation,
                    clusters,
                    alphabet: code as u32,
                    log_t: threshold,
                    kernel: disc,
                },
                4 => Response::Swapped {
                    generation,
                    clusters,
                },
                _ if anomalous => Response::ShuttingDown,
                _ => Response::Error { code, message },
            },
        )
}

proptest! {
    #[test]
    fn request_codec_round_trips(req in arb_request()) {
        let payload = req.encode_payload();
        prop_assert_eq!(Request::decode_payload(&payload).unwrap(), req);
    }

    #[test]
    fn response_codec_round_trips(resp in arb_response()) {
        let payload = resp.encode_payload();
        prop_assert_eq!(Response::decode_payload(&payload).unwrap(), resp);
    }

    /// Decoding is total: arbitrary bytes either decode or error, never
    /// panic — and a decode error on a truncated prefix of a valid
    /// payload is guaranteed.
    #[test]
    fn decoding_arbitrary_bytes_never_panics(bytes in prop::collection::vec(0u8..=u8::MAX, 0..256)) {
        let _ = Request::decode_payload(&bytes);
        let _ = Response::decode_payload(&bytes);
    }

    #[test]
    fn every_truncation_of_a_request_fails_to_decode(req in arb_request()) {
        let payload = req.encode_payload();
        for cut in 0..payload.len() {
            prop_assert!(Request::decode_payload(&payload[..cut]).is_err());
        }
    }

    #[test]
    fn oversized_headers_reject_without_payload(extra in MAX_FRAME_LEN..=u32::MAX) {
        let mut header = [0u8; 8];
        header[..4].copy_from_slice(&FRAME_MAGIC);
        header[4..].copy_from_slice(&extra.to_le_bytes());
        if extra > MAX_FRAME_LEN {
            prop_assert!(matches!(parse_header(&header), Err(ProtoError::Oversized(_))));
        } else {
            prop_assert!(parse_header(&header).is_ok());
        }
    }
}

// ---- live-server hostile input tests -----------------------------------

#[test]
fn truncation_at_every_byte_closes_cleanly() {
    let dir = tmpdir("serve-proto-trunc");
    let model = model_file(&dir);
    let server = start_server(&model, Duration::from_secs(5));
    let frame = Request::Assign {
        seq: vec![Symbol(0), Symbol(1), Symbol(2), Symbol(3)],
    }
    .encode_frame();
    for cut in 0..frame.len() {
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream.write_all(&frame[..cut]).expect("send prefix");
        // Half-close: the server sees EOF mid-frame.
        stream.shutdown(Shutdown::Write).expect("half-close");
        let reply = read_until_close(&mut stream);
        // EOF mid-frame is a clean close; a zero-byte prefix may also be
        // answered by nothing. No byte the server sends may be garbage.
        if let Some(resp) = assert_error_frame_or_close(&reply) {
            assert!(
                matches!(resp, Response::Error { .. }),
                "cut={cut}: non-error response {resp:?} to a truncated frame"
            );
        }
    }
    // The server survived all of it.
    let mut client = ServeClient::connect(server.addr()).expect("connect");
    let (generation, _) = client.assign(&[Symbol(0), Symbol(1)]).expect("assign");
    assert_eq!(generation, 1);
    server.shutdown();
}

#[test]
fn oversized_length_prefix_gets_error_frame() {
    let dir = tmpdir("serve-proto-oversize");
    let model = model_file(&dir);
    let server = start_server(&model, Duration::from_secs(5));
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut header = Vec::new();
    header.extend_from_slice(&FRAME_MAGIC);
    header.extend_from_slice(&u32::MAX.to_le_bytes());
    stream.write_all(&header).expect("send header");
    let reply = read_until_close(&mut stream);
    match assert_error_frame_or_close(&reply) {
        Some(Response::Error { code, .. }) => assert_eq!(code, errcode::OVERSIZED),
        other => panic!("expected OVERSIZED error frame, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn garbage_magic_gets_error_frame_or_http_reply() {
    let dir = tmpdir("serve-proto-magic");
    let model = model_file(&dir);
    let server = start_server(&model, Duration::from_secs(5));

    // Starts with the magic's first byte: stays on the binary path and
    // must get a BAD_MAGIC error frame.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.write_all(b"CXXXAAAABBBB").expect("send");
    stream.shutdown(Shutdown::Write).unwrap();
    match assert_error_frame_or_close(&read_until_close(&mut stream)) {
        Some(Response::Error { code, .. }) => assert_eq!(code, errcode::BAD_MAGIC),
        other => panic!("expected BAD_MAGIC error frame, got {other:?}"),
    }

    // Arbitrary non-magic garbage lands on the HTTP facade: a well-formed
    // HTTP error, or a close — never a panic.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .write_all(b"\x01\x02\x03garbage\r\n\r\n")
        .expect("send");
    stream.shutdown(Shutdown::Write).unwrap();
    let reply = read_until_close(&mut stream);
    if !reply.is_empty() {
        assert!(
            reply.starts_with(b"HTTP/1.1 "),
            "garbage got a non-HTTP reply: {reply:?}"
        );
    }

    // Server is still fine.
    let mut client = ServeClient::connect(server.addr()).expect("connect");
    client.info().expect("info after garbage");
    server.shutdown();
}

#[test]
fn slow_loris_partial_frame_hits_the_read_timeout() {
    let dir = tmpdir("serve-proto-loris");
    let model = model_file(&dir);
    let server = start_server(&model, Duration::from_millis(300));
    let started = std::time::Instant::now();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    // A valid header promising 100 bytes, then silence with the
    // connection held open.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&FRAME_MAGIC);
    bytes.extend_from_slice(&100u32.to_le_bytes());
    bytes.extend_from_slice(&[0u8; 10]);
    stream.write_all(&bytes).expect("send partial frame");
    let reply = read_until_close(&mut stream);
    let elapsed = started.elapsed();
    match assert_error_frame_or_close(&reply) {
        Some(Response::Error { code, .. }) => assert_eq!(code, errcode::TIMEOUT),
        None => {} // a plain close is also acceptable
        other => panic!("expected TIMEOUT error frame, got {other:?}"),
    }
    assert!(
        elapsed < Duration::from_secs(8),
        "slow-loris held the connection {elapsed:?}; the timeout never fired"
    );
    server.shutdown();
}

#[test]
fn unknown_opcode_errors_but_connection_survives() {
    let dir = tmpdir("serve-proto-badop");
    let model = model_file(&dir);
    let server = start_server(&model, Duration::from_secs(5));
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // Frame with an unknown opcode: framing is intact, so the server
    // answers an error frame and keeps the connection.
    let payload = [0x7Fu8, 1, 2, 3];
    let mut frame = Vec::new();
    frame.extend_from_slice(&FRAME_MAGIC);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    stream.write_all(&frame).expect("send bad opcode");
    let reply = read_frame(&mut stream).expect("read").expect("frame");
    match Response::decode_payload(&reply).expect("decode") {
        Response::Error { code, .. } => assert_eq!(code, errcode::BAD_OP),
        other => panic!("expected BAD_OP error, got {other:?}"),
    }

    // Same connection, now a well-formed INFO: still served.
    stream
        .write_all(&Request::Info.encode_frame())
        .expect("send info");
    let reply = read_frame(&mut stream).expect("read").expect("frame");
    assert!(matches!(
        Response::decode_payload(&reply).expect("decode"),
        Response::Info { generation: 1, .. }
    ));
    server.shutdown();
}

#[test]
fn malformed_payload_gets_malformed_error() {
    let dir = tmpdir("serve-proto-malformed");
    let model = model_file(&dir);
    let server = start_server(&model, Duration::from_secs(5));
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // An ASSIGN whose symbol count lies about the payload size.
    let mut payload = vec![0x01u8];
    payload.extend_from_slice(&(1u32 << 30).to_le_bytes());
    payload.extend_from_slice(&[0, 0]);
    let mut frame = Vec::new();
    frame.extend_from_slice(&FRAME_MAGIC);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    stream.write_all(&frame).expect("send lying frame");
    let reply = read_frame(&mut stream).expect("read").expect("frame");
    match Response::decode_payload(&reply).expect("decode") {
        Response::Error { code, .. } => assert_eq!(code, errcode::MALFORMED),
        other => panic!("expected MALFORMED error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn out_of_alphabet_symbols_get_symbol_range_error() {
    let dir = tmpdir("serve-proto-range");
    let model = model_file(&dir);
    let server = start_server(&model, Duration::from_secs(5));
    let mut client = ServeClient::connect(server.addr()).expect("connect");
    let resp = client
        .request(&Request::Assign {
            seq: vec![Symbol(0), Symbol(60000)],
        })
        .expect("request");
    match resp {
        Response::Error { code, .. } => assert_eq!(code, errcode::SYMBOL_RANGE),
        other => panic!("expected SYMBOL_RANGE error, got {other:?}"),
    }
    // The same connection still serves valid queries.
    client.assign(&[Symbol(0)]).expect("valid assign");
    server.shutdown();
}
