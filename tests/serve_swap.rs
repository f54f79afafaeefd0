//! Hot-swap and graceful-shutdown suite: a SWAP issued mid-flight under
//! load drops zero requests; every response is attributable to exactly
//! one model generation (the generation id stamped in the response) and
//! is bit-identical to that generation's offline answers; a swap to a
//! corrupt or missing file is rejected with the old model untouched; a
//! SIGHUP reload bumps the generation in place; and graceful shutdown
//! drains every in-flight request with a real scored answer.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use cluseq::core::serve::protocol::{errcode, Request, Response};
use cluseq::core::serve::signal;
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

fn train(db: &SequenceDatabase, seed: u64) -> SavedModel {
    let outcome = Cluseq::new(
        CluseqParams::default()
            .with_initial_clusters(2)
            .with_significance(4)
            .with_max_depth(5)
            .with_max_iterations(5)
            .with_seed(seed),
    )
    .run(db);
    SavedModel::from_outcome(&outcome)
}

fn save(model: &SavedModel, path: &Path) {
    let mut f = fs::File::create(path).expect("create model file");
    model.save(&mut f).expect("save model");
}

fn start(model_path: &Path, watch_sighup: bool) -> ServerHandle {
    let model = ServeModel::load(model_path, None, ScanKernel::Compiled, 1).expect("load model");
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        kernel: ScanKernel::Compiled,
        frame_timeout: Duration::from_secs(5),
        watch_sighup,
    };
    Server::start(model, None, &config, None).expect("start server")
}

fn bits(hits: &[(u32, f64)]) -> Vec<(u32, u64)> {
    hits.iter().map(|(k, s)| (*k, s.to_bits())).collect()
}

fn expected_bits(model: &SavedModel, q: &[Symbol]) -> Vec<(u32, u64)> {
    model
        .assign(q)
        .into_iter()
        .map(|(k, s)| (k as u32, s.to_bits()))
        .collect()
}

#[test]
fn swap_under_load_drops_nothing_and_attributes_every_response() {
    let dir = tmpdir("serve-swap-load");
    let db = workload(31);
    let model_a = train(&db, 1);
    let model_b = train(&workload(77), 2);
    let path_a = dir.join("a.cseq");
    let path_b = dir.join("b.cseq");
    save(&model_a, &path_a);
    save(&model_b, &path_b);

    let queries: Arc<Vec<Vec<Symbol>>> = Arc::new(
        (0..db.len())
            .map(|i| db.sequence(i).symbols().to_vec())
            .collect(),
    );
    let expected_a: Vec<_> = queries.iter().map(|q| expected_bits(&model_a, q)).collect();
    let expected_b: Vec<_> = queries.iter().map(|q| expected_bits(&model_b, q)).collect();

    let server = start(&path_a, false);
    let addr = server.addr();
    let stop = Arc::new(AtomicBool::new(false));

    // (query index, answering generation, bit-canonical hits) per response.
    type ClientLog = Vec<(usize, u64, Vec<(u32, u64)>)>;
    let collected: Vec<ClientLog> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..4)
            .map(|c| {
                let queries = Arc::clone(&queries);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut client = ServeClient::connect(addr).expect("connect");
                    let mut got = Vec::new();
                    let mut i = c; // stagger
                    let mut sent = 0usize;
                    while !stop.load(Ordering::SeqCst) || sent < queries.len() {
                        let qi = i % queries.len();
                        let (generation, hits) = client.assign(&queries[qi]).expect("assign");
                        got.push((qi, generation, bits(&hits)));
                        i += 1;
                        sent += 1;
                    }
                    got
                })
            })
            .collect();

        // Let the clients build up traffic, then swap mid-flight.
        std::thread::sleep(Duration::from_millis(150));
        let mut admin = ServeClient::connect(addr).expect("connect admin");
        let (new_generation, clusters) =
            admin.swap(path_b.to_str().unwrap()).expect("swap succeeds");
        assert_eq!(new_generation, 2);
        assert_eq!(clusters as usize, model_b.cluster_count());
        std::thread::sleep(Duration::from_millis(150));
        stop.store(true, Ordering::SeqCst);
        clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    let mut gen1 = 0usize;
    let mut gen2 = 0usize;
    for per_client in &collected {
        let mut last_generation = 0u64;
        for (qi, generation, answer) in per_client {
            // Attributable to exactly one generation, bit-identical to
            // that generation's offline answer.
            match generation {
                1 => {
                    gen1 += 1;
                    assert_eq!(
                        answer, &expected_a[*qi],
                        "generation-1 answer for query {qi}"
                    );
                }
                2 => {
                    gen2 += 1;
                    assert_eq!(
                        answer, &expected_b[*qi],
                        "generation-2 answer for query {qi}"
                    );
                }
                g => panic!("response from unknown generation {g}"),
            }
            // Per-connection generations never go backwards: a connection's
            // requests are answered in order on its own thread, each
            // pinning the live generation, which only moves forward.
            assert!(
                *generation >= last_generation,
                "generation went backwards: {last_generation} -> {generation}"
            );
            last_generation = *generation;
        }
    }
    assert!(gen1 > 0, "no responses from the pre-swap generation");
    assert!(gen2 > 0, "no responses from the post-swap generation");
    server.shutdown();
}

#[test]
fn failed_swap_leaves_old_generation_serving() {
    let dir = tmpdir("serve-swap-reject");
    let db = workload(5);
    let model = train(&db, 3);
    let path = dir.join("model.cseq");
    save(&model, &path);
    let server = start(&path, false);
    let mut client = ServeClient::connect(server.addr()).expect("connect");

    let probe: Vec<Symbol> = db.sequence(0).symbols().to_vec();
    let before = expected_bits(&model, &probe);

    // Missing file.
    let missing = dir.join("nope.cseq");
    match client
        .request(&Request::Swap {
            path: missing.to_str().unwrap().into(),
        })
        .expect("request")
    {
        Response::Error { code, .. } => assert_eq!(code, errcode::SWAP_FAILED),
        other => panic!("expected SWAP_FAILED, got {other:?}"),
    }

    // Corrupt file: valid magic, garbage after.
    let corrupt = dir.join("corrupt.cseq");
    fs::write(&corrupt, b"CSEQ\x01\x00\x00\x00garbage").expect("write corrupt");
    match client
        .request(&Request::Swap {
            path: corrupt.to_str().unwrap().into(),
        })
        .expect("request")
    {
        Response::Error { code, .. } => assert_eq!(code, errcode::SWAP_FAILED),
        other => panic!("expected SWAP_FAILED, got {other:?}"),
    }

    // A checkpoint without --data is also rejected (no background model).
    let not_a_model = dir.join("bogus.cckp");
    fs::write(&not_a_model, b"CCKPxxxx").expect("write bogus checkpoint");
    match client
        .request(&Request::Swap {
            path: not_a_model.to_str().unwrap().into(),
        })
        .expect("request")
    {
        Response::Error { code, .. } => assert_eq!(code, errcode::SWAP_FAILED),
        other => panic!("expected SWAP_FAILED, got {other:?}"),
    }

    // The old generation is untouched and still serving identical bits.
    let (generation, hits) = client.assign(&probe).expect("assign after failed swaps");
    assert_eq!(
        generation, 1,
        "failed swaps must not advance the generation"
    );
    assert_eq!(bits(&hits), before);
    server.shutdown();
}

#[cfg(unix)]
#[test]
fn sighup_reloads_the_model_file_in_place() {
    let dir = tmpdir("serve-swap-sighup");
    let db = workload(13);
    let model_a = train(&db, 1);
    let model_b = train(&workload(99), 2);
    let path = dir.join("live.cseq");
    save(&model_a, &path);

    let server = start(&path, true);
    let mut client = ServeClient::connect(server.addr()).expect("connect");
    assert_eq!(client.info().map(generation_of).expect("info"), 1);

    // Replace the file contents, then poke the process.
    save(&model_b, &path);
    signal::raise_hup();

    // The watcher polls; wait for the generation to move.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let generation = client.info().map(generation_of).expect("info");
        if generation >= 2 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "SIGHUP never produced a new generation"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // Post-reload answers are the new model's bits.
    let probe: Vec<Symbol> = db.sequence(0).symbols().to_vec();
    let (generation, hits) = client.assign(&probe).expect("assign");
    assert_eq!(generation, 2);
    assert_eq!(bits(&hits), expected_bits(&model_b, &probe));
    server.shutdown();
}

fn generation_of(resp: Response) -> u64 {
    match resp {
        Response::Info { generation, .. } => generation,
        other => panic!("expected INFO, got {other:?}"),
    }
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let dir = tmpdir("serve-swap-drain");
    let db = workload(51);
    let model = train(&db, 3);
    let path = dir.join("model.cseq");
    save(&model, &path);
    let server = start(&path, false);
    let addr = server.addr();

    const CLIENTS: usize = 6;
    // Every client fully writes one request before the main thread calls
    // shutdown; the drain guarantee says each still gets its real scored
    // answer, not an error and not a dropped connection.
    let sent = Arc::new(Barrier::new(CLIENTS + 1));
    let queries: Vec<Vec<Symbol>> = (0..CLIENTS)
        .map(|i| db.sequence(i).symbols().to_vec())
        .collect();
    let expected: Vec<_> = queries.iter().map(|q| expected_bits(&model, q)).collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let sent = Arc::clone(&sent);
                let query = queries[c].clone();
                scope.spawn(move || {
                    use std::io::Write;
                    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
                    let frame = Request::Assign { seq: query }.encode_frame();
                    stream.write_all(&frame).expect("write request");
                    stream.flush().expect("flush");
                    sent.wait(); // request is fully on the wire
                    stream
                        .set_read_timeout(Some(Duration::from_secs(20)))
                        .unwrap();
                    let payload = cluseq::core::serve::protocol::read_frame(&mut stream)
                        .expect("read response frame")
                        .expect("response must arrive before close");
                    Response::decode_payload(&payload).expect("decode response")
                })
            })
            .collect();

        sent.wait();
        server.shutdown(); // blocks until drained

        for (c, handle) in handles.into_iter().enumerate() {
            match handle.join().expect("client thread panicked") {
                Response::Assign { generation, hits } => {
                    assert_eq!(generation, 1);
                    assert_eq!(
                        bits(&hits),
                        expected[c],
                        "drained answer for client {c} must be the real scored result"
                    );
                }
                other => panic!("client {c}: expected a scored ASSIGN answer, got {other:?}"),
            }
        }
    });
}

/// After shutdown completes, the port is released and nothing is
/// listening.
#[test]
fn shutdown_releases_the_port() {
    let dir = tmpdir("serve-swap-port");
    let db = workload(61);
    let model = train(&db, 3);
    let path = dir.join("model.cseq");
    save(&model, &path);
    let server = start(&path, false);
    let addr = server.addr();
    let mut client = ServeClient::connect(addr).expect("connect");
    client.shutdown().expect("SHUTDOWN frame acknowledged");
    server.wait(); // returns because the client's SHUTDOWN stopped it
    assert!(
        std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "port still open after drain"
    );
}
