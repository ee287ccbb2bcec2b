//! In-process server integration: the serving extension of the repo's
//! determinism contract (N connections byte-equal to one), checkpoint
//! durability, binding enforcement, and typed remote errors.

use std::path::PathBuf;

use ldp::prelude::*;
use ldp_serve::wire::ErrorCode;
use ldp_serve::{ServeClient, ServeError, Server, ServerConfig, WireError};

/// The test deployment: a 3×2 schema under randomized response, so
/// valid reports are `0..6`.
fn deployment(epsilon: f64) -> Deployment {
    Pipeline::for_schema(Schema::new([("color", 3), ("size", 2)]))
        .queries([Query::marginal(["color", "size"]), Query::total()])
        .epsilon(epsilon)
        .baseline(Baseline::RandomizedResponse)
        .unwrap()
}

/// Deterministic report stream: batch `b` of `len` reports over `m`
/// outputs.
fn batch(b: u64, len: usize, m: u64) -> Vec<u64> {
    (0..len as u64).map(|i| (b * 31 + i * 7 + 3) % m).collect()
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ldp-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spawn_server(
    dir: Option<PathBuf>,
    workers: usize,
) -> (std::net::SocketAddr, ldp_serve::ServerHandle) {
    let mut server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        dir,
        workers,
    })
    .unwrap();
    server.host("survey", deployment(1.0)).unwrap();
    let addr = server.local_addr();
    (addr, server.spawn().unwrap())
}

#[test]
fn n_concurrent_connections_are_byte_equal_to_one() {
    const CONNS: usize = 4;
    const BATCHES_PER_CONN: u64 = 8;

    // Reference run: one connection submits every batch.
    let (addr, handle) = spawn_server(None, 2);
    let mut client = ServeClient::connect(addr).unwrap();
    for c in 0..CONNS as u64 {
        for b in 0..BATCHES_PER_CONN {
            client.submit("survey", &batch(c * 100 + b, 64, 6)).unwrap();
        }
    }
    let reference = client.answers("survey").unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap();

    // Concurrent run: the same batches race in over CONNS connections.
    let (addr, handle) = spawn_server(None, CONNS + 1);
    std::thread::scope(|scope| {
        for c in 0..CONNS as u64 {
            scope.spawn(move || {
                let mut client = ServeClient::connect(addr).unwrap();
                for b in 0..BATCHES_PER_CONN {
                    let ack = client.submit("survey", &batch(c * 100 + b, 64, 6)).unwrap();
                    assert_eq!(ack.accepted, 64);
                }
            });
        }
    });
    let mut client = ServeClient::connect(addr).unwrap();
    let concurrent = client.answers("survey").unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap();

    assert_eq!(reference.reports, concurrent.reports);
    let reference_bits: Vec<u64> = reference.answers.iter().map(|a| a.to_bits()).collect();
    let concurrent_bits: Vec<u64> = concurrent.answers.iter().map(|a| a.to_bits()).collect();
    assert_eq!(
        reference_bits, concurrent_bits,
        "N connections must be byte-equal to one"
    );
}

#[test]
fn queries_interleaved_with_concurrent_submissions_stay_consistent() {
    let (addr, handle) = spawn_server(None, 4);
    std::thread::scope(|scope| {
        for c in 0..2u64 {
            scope.spawn(move || {
                let mut client = ServeClient::connect(addr).unwrap();
                for b in 0..16 {
                    client.submit("survey", &batch(c * 17 + b, 32, 6)).unwrap();
                }
            });
        }
        scope.spawn(move || {
            let mut client = ServeClient::connect(addr).unwrap();
            let mut last = 0u64;
            for _ in 0..8 {
                let a = client.answer("survey", &Query::equals("color", 1)).unwrap();
                // The merge barrier only ever adds reports.
                assert!(a.reports >= last, "report count went backwards");
                last = a.reports;
            }
        });
    });
    let mut client = ServeClient::connect(addr).unwrap();
    let total = client.answers("survey").unwrap();
    assert_eq!(
        total.reports,
        2 * 16 * 32,
        "every acknowledged batch merged"
    );
    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn checkpoint_then_rehost_resumes_byte_equal() {
    let dir = fresh_dir("resume");

    // First life: submit, checkpoint (durable), submit more, graceful
    // shutdown (persists the final state).
    let (addr, handle) = spawn_server(Some(dir.clone()), 2);
    let mut client = ServeClient::connect(addr).unwrap();
    for b in 0..4 {
        client.submit("survey", &batch(b, 64, 6)).unwrap();
    }
    let ack = client.checkpoint("survey").unwrap();
    assert_eq!(ack.epoch, 1);
    assert!(ack.bytes > 0);
    for b in 4..7 {
        client.submit("survey", &batch(b, 64, 6)).unwrap();
    }
    let final_answers = client.answers("survey").unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap();

    // Second life: hosting the same deployment resumes the final
    // snapshot; answers are byte-equal to the moment of shutdown.
    let mut server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        dir: Some(dir.clone()),
        workers: 2,
    })
    .unwrap();
    let resumed = server.host("survey", deployment(1.0)).unwrap();
    assert!(resumed, "snapshot on disk must be resumed");
    let addr = server.local_addr();
    let handle = server.spawn().unwrap();
    let mut client = ServeClient::connect(addr).unwrap();
    let revived = client.answers("survey").unwrap();
    assert_eq!(revived.reports, final_answers.reports);
    let before: Vec<u64> = final_answers.answers.iter().map(|a| a.to_bits()).collect();
    let after: Vec<u64> = revived.answers.iter().map(|a| a.to_bits()).collect();
    assert_eq!(before, after, "restart must be byte-invisible");
    client.shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_checkpoints_of_one_deployment_all_succeed_in_epoch_order() {
    const CONNS: u64 = 4;
    const ROUNDS: u64 = 50;
    let dir = fresh_dir("concurrent-checkpoint");
    let (addr, handle) = spawn_server(Some(dir.clone()), CONNS as usize + 1);
    let mut epochs: Vec<u64> = std::thread::scope(|scope| {
        let racers: Vec<_> = (0..CONNS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = ServeClient::connect(addr).unwrap();
                    (0..ROUNDS)
                        .map(|r| {
                            client
                                .submit("survey", &batch(c * ROUNDS + r, 1, 6))
                                .unwrap();
                            client
                                .checkpoint("survey")
                                .unwrap_or_else(|e| panic!("connection {c}, round {r}: {e:?}"))
                                .epoch
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        racers.into_iter().flat_map(|t| t.join().unwrap()).collect()
    });
    epochs.sort_unstable();
    let total = CONNS * ROUNDS;
    assert_eq!(epochs, (1..=total).collect::<Vec<_>>(), "one epoch per ack");

    // The file on disk is the last epoch's snapshot: rehosting it
    // resumes with every acknowledged report.
    let snapshot = std::fs::read(dir.join("survey.ldpc")).unwrap();
    let resumed = deployment(1.0).resume(&snapshot).unwrap();
    assert_eq!(resumed.epoch(), total);
    assert_eq!(resumed.reports(), total);

    let mut client = ServeClient::connect(addr).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hosting_over_a_foreign_snapshot_is_a_typed_binding_mismatch() {
    let dir = fresh_dir("binding");

    // Write a snapshot under ε = 1.0 …
    let (addr, handle) = spawn_server(Some(dir.clone()), 2);
    let mut client = ServeClient::connect(addr).unwrap();
    client.submit("survey", &batch(0, 16, 6)).unwrap();
    client.checkpoint("survey").unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap();

    // … then try to host a *different* deployment (ε = 2.0) on it.
    let mut server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        dir: Some(dir.clone()),
        workers: 2,
    })
    .unwrap();
    match server.host("survey", deployment(2.0)) {
        Err(ServeError::Store(StoreError::BindingMismatch { .. })) => {}
        other => panic!("expected a typed binding mismatch, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn remote_errors_are_typed_and_batches_are_atomic() {
    let (addr, handle) = spawn_server(None, 2);
    let mut client = ServeClient::connect(addr).unwrap();

    // Unknown deployment.
    match client.submit("nope", &[0]) {
        Err(WireError::Remote {
            code: ErrorCode::UnknownDeployment,
            ..
        }) => {}
        other => panic!("expected UnknownDeployment, got {other:?}"),
    }

    // A batch with one bad report counts nothing — not even the valid
    // prefix.
    match client.submit("survey", &[0, 1, 2, 6]) {
        Err(WireError::Remote {
            code: ErrorCode::BadBatch,
            message,
        }) => assert!(message.contains('6'), "names the offender: {message}"),
        other => panic!("expected BadBatch, got {other:?}"),
    }
    let answers = client.answers("survey").unwrap();
    assert_eq!(answers.reports, 0, "rejected batch must not count");

    // Bad ad-hoc query: unknown attribute, typed server-side.
    match client.answer("survey", &Query::equals("shape", 0)) {
        Err(WireError::Remote {
            code: ErrorCode::BadQuery,
            ..
        }) => {}
        other => panic!("expected BadQuery, got {other:?}"),
    }

    // Predicate queries never leave the client.
    let predicate = Query::predicate("color", |v| v > 0);
    match client.answer("survey", &predicate) {
        Err(WireError::UnencodableQuery) => {}
        other => panic!("expected UnencodableQuery, got {other:?}"),
    }

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn info_reports_identity_and_merged_counters() {
    let (addr, handle) = spawn_server(None, 2);
    let binding = deployment(1.0).binding();
    let mut client = ServeClient::connect(addr).unwrap();
    client.submit("survey", &batch(0, 10, 6)).unwrap();
    let info = client.info().unwrap();
    assert_eq!(info.len(), 1);
    let d = &info[0];
    assert_eq!(d.name, "survey");
    assert_eq!(d.domain_size, 6);
    assert_eq!(d.num_outputs, 6);
    assert_eq!(d.num_queries, 7); // 6 contingency cells + total
    assert_eq!(d.epsilon, 1.0);
    assert_eq!(d.binding, binding, "wire binding matches local rebuild");
    assert_eq!(d.reports, 10, "info runs the merge barrier");
    assert_eq!(d.batches, 1);
    client.shutdown().unwrap();
    handle.join().unwrap();
}
