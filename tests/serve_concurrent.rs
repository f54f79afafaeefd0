//! Concurrent-determinism suite: 1 and 6 client threads replay a fixed
//! query set against the daemon under both scan kernels, and every
//! collected response must be bit-identical to the offline
//! `SavedModel::assign` / fresh `OnlineCluseq` answers — and therefore
//! identical across all four configurations. Concurrency may change
//! *when* a query is scored, never *what* it returns.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cluseq::core::serve::protocol::ClusterScore;
use cluseq::prelude::*;

fn tmpdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn workload() -> SequenceDatabase {
    SyntheticSpec {
        sequences: 60,
        clusters: 3,
        avg_len: 60,
        alphabet: 10,
        outlier_fraction: 0.05,
        seed: 23,
    }
    .generate()
}

fn params() -> CluseqParams {
    CluseqParams::default()
        .with_initial_clusters(3)
        .with_significance(5)
        .with_max_depth(5)
        .with_max_iterations(6)
        .with_seed(7)
}

/// The fixed query set: every training sequence plus edge-case probes
/// (empty, single symbol, and a shuffled concatenation).
fn query_set(db: &SequenceDatabase) -> Vec<Vec<Symbol>> {
    let mut queries: Vec<Vec<Symbol>> = (0..db.len())
        .map(|i| db.sequence(i).symbols().to_vec())
        .collect();
    queries.push(Vec::new());
    queries.push(vec![Symbol(0)]);
    let mut mixed: Vec<Symbol> = db.sequence(0).symbols().to_vec();
    mixed.extend_from_slice(db.sequence(1).symbols());
    mixed.reverse();
    queries.push(mixed);
    queries
}

/// One query's expected answers, in comparable bit-exact form.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Expected {
    assign: Vec<(u32, u64)>,
    score: Vec<(u32, u64, u32, u32)>,
}

fn offline_expected(model: &SavedModel, queries: &[Vec<Symbol>]) -> Vec<Expected> {
    queries
        .iter()
        .map(|q| Expected {
            assign: model
                .assign(q)
                .into_iter()
                .map(|(k, sim)| (k as u32, sim.to_bits()))
                .collect(),
            score: model
                .classify(q)
                .into_iter()
                .map(|(k, s)| (k as u32, s.log_sim.to_bits(), s.start as u32, s.end as u32))
                .collect(),
        })
        .collect()
}

fn canonical_assign(hits: &[(u32, f64)]) -> Vec<(u32, u64)> {
    hits.iter().map(|(k, sim)| (*k, sim.to_bits())).collect()
}

fn canonical_score(scores: &[ClusterScore]) -> Vec<(u32, u64, u32, u32)> {
    scores
        .iter()
        .map(|s| (s.slot, s.log_sim.to_bits(), s.start, s.end))
        .collect()
}

/// Replays the query set from `n_clients` threads concurrently and
/// returns each client's collected (assign, score) answers in query
/// order.
fn replay(
    addr: std::net::SocketAddr,
    queries: &Arc<Vec<Vec<Symbol>>>,
    n_clients: usize,
) -> Vec<Vec<Expected>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_clients)
            .map(|c| {
                let queries = Arc::clone(queries);
                scope.spawn(move || {
                    let mut client = ServeClient::connect(addr).expect("connect");
                    // Stagger starting points so concurrent requests
                    // interleave different queries from different clients.
                    let n = queries.len();
                    (0..n)
                        .map(|i| {
                            let q = &queries[(i + c) % n];
                            let (gen_a, hits) = client.assign(q).expect("assign");
                            let (gen_s, scores) = client.score(q).expect("score");
                            assert_eq!(gen_a, 1, "single-generation server");
                            assert_eq!(gen_s, 1, "single-generation server");
                            (
                                (i + c) % n,
                                Expected {
                                    assign: canonical_assign(&hits),
                                    score: canonical_score(&scores),
                                },
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let mut by_query = h.join().expect("client thread panicked");
                by_query.sort_by_key(|(i, _)| *i);
                by_query.into_iter().map(|(_, e)| e).collect()
            })
            .collect()
    })
}

fn model_file(dir: &Path, outcome: &CluseqOutcome) -> PathBuf {
    let path = dir.join("model.cseq");
    let mut f = fs::File::create(&path).expect("create model file");
    SavedModel::from_outcome(outcome)
        .save(&mut f)
        .expect("save model");
    path
}

#[test]
fn concurrent_responses_are_bit_identical_across_configs() {
    let dir = tmpdir("serve-concurrent");
    let db = workload();
    let params = params();
    let outcome = Cluseq::new(params.clone()).run(&db);
    let model_path = model_file(&dir, &outcome);

    let mut f = fs::File::open(&model_path).expect("open model");
    let offline = SavedModel::load(&mut f).expect("load model");
    let queries = Arc::new(query_set(&db));
    let expected = offline_expected(&offline, &queries);

    // The online scorer agrees with the persisted model on joins: a fresh
    // OnlineCluseq (before any absorption) applies the same threshold to
    // the same similarity, so its `joined` is `assign` bit for bit.
    for q in queries.iter() {
        let mut online = OnlineCluseq::from_outcome(&outcome, &params, db.alphabet().len());
        let report = online.process(&Sequence::new(q.clone()));
        let online_joined: Vec<(u32, u64)> = report
            .joined
            .iter()
            .map(|(k, sim)| (*k as u32, sim.to_bits()))
            .collect();
        let offline_assign = &expected[queries.iter().position(|x| x == q).unwrap()].assign;
        assert_eq!(
            &online_joined, offline_assign,
            "OnlineCluseq and SavedModel disagree on {q:?}"
        );
    }

    for kernel in [ScanKernel::Interpreted, ScanKernel::Compiled] {
        for clients in [1usize, 6] {
            let model = ServeModel::load(&model_path, None, kernel, 1).expect("load serve model");
            let config = ServeConfig {
                addr: "127.0.0.1:0".into(),
                kernel,
                frame_timeout: std::time::Duration::from_secs(5),
                watch_sighup: false,
            };
            let server = Server::start(model, None, &config, None).expect("start server");
            let collected = replay(server.addr(), &queries, clients);
            server.shutdown();
            assert_eq!(collected.len(), clients);
            for (client_id, answers) in collected.iter().enumerate() {
                assert_eq!(
                    answers, &expected,
                    "kernel={kernel} clients={clients} client={client_id}: \
                     served answers differ from offline SavedModel"
                );
            }
        }
    }
}

/// The HTTP facade answers through the same engine: a JSON /assign
/// answer must carry the same hits the binary protocol returns.
#[test]
fn http_facade_matches_binary_protocol() {
    use std::io::{Read, Write};

    let dir = tmpdir("serve-http-parity");
    let db = workload();
    let outcome = Cluseq::new(params()).run(&db);
    let model_path = model_file(&dir, &outcome);
    let model = ServeModel::load(&model_path, None, ScanKernel::Compiled, 1).expect("load model");
    let server = Server::start(model, None, &ServeConfig::default(), None).expect("start");

    let query: Vec<Symbol> = db.sequence(0).symbols().to_vec();
    let mut client = ServeClient::connect(server.addr()).expect("connect");
    let (_, hits) = client.assign(&query).expect("binary assign");

    let body: Vec<String> = query.iter().map(|s| s.0.to_string()).collect();
    let body = body.join(" ");
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect http");
    write!(
        stream,
        "POST /assign HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    )
    .expect("send http");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    let (head, json) = response.split_once("\r\n\r\n").expect("http split");
    assert!(head.starts_with("HTTP/1.1 200"), "bad status: {head}");
    assert!(
        json.contains("\"generation\":1"),
        "missing generation: {json}"
    );
    for (slot, _) in &hits {
        assert!(
            json.contains(&format!("\"slot\":{slot}")),
            "binary hit slot {slot} absent from JSON {json}"
        );
    }
    // Hit count matches: the JSON hits array has exactly as many objects.
    let json_hits = json.matches("\"slot\":").count();
    assert_eq!(json_hits, hits.len(), "hit count mismatch: {json}");
    server.shutdown();
}
