//! Tier-1 integration tests for the TCP serving layer: round trips,
//! pipelining, cross-connection consistency, graceful drain, durable
//! restart, and the admission gate — all over real loopback sockets.

use aggview::durability::DurabilityOptions;
use aggview::net::{NetClient, NetConfig, NetServer, ServeBackend};
use aggview::obs::CounterId;
use aggview::server::SharedStore;
use aggview::session::StatementOutcome;
use aggview::state::WritePolicy;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("aggview-test-{tag}-{}-{n}", std::process::id()))
}

fn start_shared() -> (NetServer, SharedStore) {
    let store = SharedStore::new(WritePolicy::default());
    let server = NetServer::start(
        ServeBackend::Shared(store.clone()),
        "127.0.0.1:0",
        NetConfig::default(),
    )
    .expect("server binds an ephemeral port");
    (server, store)
}

fn expect_answer(client: &mut NetClient, sql: &str) -> aggview::engine::Relation {
    match client
        .request(sql)
        .expect("transport ok")
        .expect("statement ok")
    {
        StatementOutcome::Answer { relation, .. } => relation,
        other => panic!("`{sql}` produced a non-answer outcome: {other:?}"),
    }
}

#[test]
fn round_trip_and_pipelining() {
    let (server, _store) = start_shared();
    let mut client = NetClient::connect(server.addr()).expect("connect");

    // Lock-step round trips.
    client
        .request("CREATE TABLE Sales (Region, Product, Amount)")
        .expect("transport")
        .expect("create table");
    client
        .request("INSERT INTO Sales VALUES (1, 1, 10), (1, 2, 20), (2, 1, 30)")
        .expect("transport")
        .expect("insert");
    let rel = expect_answer(
        &mut client,
        "SELECT Region, SUM(Amount) FROM Sales GROUP BY Region",
    );
    assert_eq!(rel.sorted_rows().len(), 2);

    // Pipelining: queue a burst without reading, then drain strictly in
    // order with matching correlation ids.
    let mut ids = Vec::new();
    for _ in 0..16 {
        ids.push(
            client
                .send("SELECT Region, SUM(Amount) FROM Sales GROUP BY Region")
                .expect("send queues"),
        );
    }
    for want in ids {
        let response = client.recv().expect("pipelined response");
        assert_eq!(response.id, Some(want), "responses must arrive in order");
        let outcome = response.result.expect("pipelined statement ok");
        assert!(matches!(outcome, StatementOutcome::Answer { .. }));
    }
    server.shutdown();
}

/// Concurrent clients under a write stream: rows are only ever inserted
/// in pairs that keep `SUM(Amount)` an exact multiple of `COUNT(Amount)`
/// (every pair sums to 100), so any reader that saw a torn write — half
/// a pair, or SUM and COUNT from different versions — would observe a
/// non-multiple. Snapshot isolation must never let that happen.
#[test]
fn concurrent_clients_see_consistent_snapshots() {
    let (server, _store) = start_shared();
    let addr = server.addr();
    let mut setup = NetClient::connect(addr).expect("connect");
    setup
        .request("CREATE TABLE Paired (G, K, Amount)")
        .expect("transport")
        .expect("create");
    setup
        .request("INSERT INTO Paired VALUES (1, 0, 40), (1, 0, 60)")
        .expect("transport")
        .expect("seed pair");

    let writer = std::thread::spawn(move || {
        for k in 1..40 {
            setup
                .request(&format!(
                    "INSERT INTO Paired VALUES (1, {k}, 40), (1, {k}, 60)"
                ))
                .expect("transport")
                .expect("paired insert");
        }
    });
    let mut readers = Vec::new();
    for _ in 0..3 {
        readers.push(std::thread::spawn(move || {
            let mut client = NetClient::connect(addr).expect("connect reader");
            for _ in 0..30 {
                let rel = expect_answer(
                    &mut client,
                    "SELECT G, SUM(Amount), COUNT(Amount) FROM Paired GROUP BY G",
                );
                let rows = rel.sorted_rows();
                assert_eq!(rows.len(), 1);
                let (sum, count) = match (&rows[0][1], &rows[0][2]) {
                    (aggview::engine::Value::Int(s), aggview::engine::Value::Int(c)) => (*s, *c),
                    other => panic!("unexpected cells {other:?}"),
                };
                assert_eq!(count % 2, 0, "half a pair visible: count={count}");
                assert_eq!(sum, 50 * count, "torn snapshot: sum={sum} count={count}");
            }
        }));
    }
    writer.join().expect("writer");
    for r in readers {
        r.join().expect("reader");
    }
    server.shutdown();
}

/// DDL on one connection must invalidate another connection's cached
/// plan: after a view appears, the other connection's repeated query is
/// re-planned and served from the view.
#[test]
fn ddl_invalidates_plans_across_connections() {
    let (server, _store) = start_shared();
    let mut a = NetClient::connect(server.addr()).expect("connect a");
    let mut b = NetClient::connect(server.addr()).expect("connect b");

    a.request("CREATE TABLE Sales (Region, Product, Amount)")
        .expect("transport")
        .expect("create");
    a.request("INSERT INTO Sales VALUES (1, 1, 10), (1, 2, 20), (2, 1, 30)")
        .expect("transport")
        .expect("insert");

    // Warm b's plan cache before any view exists.
    let query = "SELECT Region, SUM(Amount) FROM Sales GROUP BY Region";
    for _ in 0..2 {
        let outcome = b.request(query).expect("transport").expect("select");
        match outcome {
            StatementOutcome::Answer { views_used, .. } => {
                assert!(views_used.is_empty(), "no view exists yet")
            }
            other => panic!("non-answer outcome: {other:?}"),
        }
    }

    a.request(
        "CREATE VIEW Totals AS SELECT Region, Product, SUM(Amount) AS T, \
         COUNT(Amount) AS N FROM Sales GROUP BY Region, Product",
    )
    .expect("transport")
    .expect("create view");

    // b's cached plan is stale now; the epoch bump must force a re-plan
    // that discovers the view.
    let outcome = b.request(query).expect("transport").expect("select");
    match outcome {
        StatementOutcome::Answer {
            views_used,
            relation,
            ..
        } => {
            assert_eq!(views_used, vec!["Totals".to_string()]);
            assert_eq!(relation.sorted_rows().len(), 2);
        }
        other => panic!("non-answer outcome: {other:?}"),
    }
    server.shutdown();
}

/// Shutdown during a pipelined burst: every request already received
/// must still be answered before the connection closes.
#[test]
fn graceful_drain_completes_inflight_requests() {
    let (server, _store) = start_shared();
    let mut client = NetClient::connect(server.addr()).expect("connect");
    client
        .request("CREATE TABLE T (A, B)")
        .expect("transport")
        .expect("create");
    client
        .request("INSERT INTO T VALUES (1, 2), (3, 4)")
        .expect("transport")
        .expect("insert");

    let mut ids = Vec::new();
    for _ in 0..32 {
        ids.push(
            client
                .send("SELECT A, COUNT(B) FROM T GROUP BY A")
                .expect("send queues"),
        );
    }
    client.flush().expect("burst hits the socket");
    let drain = std::thread::spawn(move || server.shutdown());
    for want in ids {
        let response = client.recv().expect("drain must answer the burst");
        assert_eq!(response.id, Some(want));
        response.result.expect("statement ok during drain");
    }
    let summary = drain.join().expect("drain thread");
    assert!(summary.requests >= 34, "drain summary counts the burst");
    drop(client);
}

/// A durable store served over the wire, restarted, and served again:
/// the second server's clients see everything the first one acked.
#[test]
fn durable_restart_resumes_over_the_wire() {
    let dir = scratch_dir("net-durable");
    let _guard = DirGuard(dir.clone());
    let policy = WritePolicy {
        durability: true,
        ..WritePolicy::default()
    };

    {
        let store = SharedStore::open_with(
            &dir,
            policy,
            aggview::obs::ObsOptions::default(),
            DurabilityOptions::default(),
        )
        .expect("open fresh data dir");
        let server = NetServer::start(
            ServeBackend::Shared(store),
            "127.0.0.1:0",
            NetConfig::default(),
        )
        .expect("first server binds");
        let mut client = NetClient::connect(server.addr()).expect("connect");
        client
            .request("CREATE TABLE Sales (Region, Product, Amount)")
            .expect("transport")
            .expect("create");
        client
            .request("INSERT INTO Sales VALUES (1, 1, 10), (2, 1, 30), (2, 2, 40)")
            .expect("transport")
            .expect("insert");
        drop(client);
        server.shutdown();
    }

    let store = SharedStore::open_with(
        &dir,
        policy,
        aggview::obs::ObsOptions::default(),
        DurabilityOptions::default(),
    )
    .expect("reopen data dir");
    let server = NetServer::start(
        ServeBackend::Shared(store),
        "127.0.0.1:0",
        NetConfig::default(),
    )
    .expect("second server binds");
    let mut client = NetClient::connect(server.addr()).expect("reconnect");
    let rel = expect_answer(
        &mut client,
        "SELECT Region, SUM(Amount) FROM Sales GROUP BY Region",
    );
    let rows = rel.sorted_rows();
    assert_eq!(rows.len(), 2, "recovered rows must be served: {rows:?}");
    drop(client);
    server.shutdown();
}

/// Garbage on one connection must not disturb another: the well-behaved
/// client keeps getting correct answers while a raw socket spews
/// malformed frames and disconnects mid-request.
#[test]
fn malformed_frames_do_not_poison_other_connections() {
    let (server, _store) = start_shared();
    let addr = server.addr();
    let mut good = NetClient::connect(addr).expect("connect good");
    good.request("CREATE TABLE T (A, B)")
        .expect("transport")
        .expect("create");
    good.request("INSERT INTO T VALUES (1, 10), (1, 20)")
        .expect("transport")
        .expect("insert");

    for garbage in [
        b"not json at all\n".as_slice(),
        b"{\"id\":true}\n",
        b"\xff\xfe\xfd\n",
        b"{\"id\":9,\"sql\":\"SELECT", // mid-request disconnect
    ] {
        let mut raw = TcpStream::connect(addr).expect("raw connect");
        raw.write_all(garbage).expect("raw write");
        drop(raw);
        let rel = expect_answer(&mut good, "SELECT A, SUM(B) FROM T GROUP BY A");
        assert_eq!(rel.sorted_rows().len(), 1);
    }
    let summary = server.shutdown();
    assert_eq!(summary.rejects, 0);
}

/// The admission gate at `max_connections: 1`: a connection past the cap
/// reads one error frame and EOF, the admitted client is undisturbed, and
/// the slot is free again once that client leaves.
#[test]
fn admission_gate_refuses_past_capacity_then_readmits() {
    let store = SharedStore::new(WritePolicy::default());
    let server = NetServer::start(
        ServeBackend::Shared(store.clone()),
        "127.0.0.1:0",
        NetConfig {
            max_connections: 1,
            ..NetConfig::default()
        },
    )
    .expect("server binds");
    let addr = server.addr();
    let mut first = NetClient::connect(addr).expect("connect first");
    first
        .request("CREATE TABLE T (A, B)")
        .expect("transport")
        .expect("first client is admitted");

    let mut refused = TcpStream::connect(addr).expect("the kernel accepts the dial");
    refused
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .expect("read timeout");
    let mut frames = String::new();
    refused
        .read_to_string(&mut frames)
        .expect("one frame, then EOF");
    assert_eq!(frames.lines().count(), 1, "{frames:?}");
    assert!(frames.contains("connection capacity (1)"), "{frames:?}");

    first
        .request("INSERT INTO T VALUES (1, 2)")
        .expect("transport")
        .expect("first client still answers");
    drop(first);

    // The slot frees when the connection thread sees EOF; wait for the
    // gauge rather than racing it (a second refusal would break the count).
    let metrics = store.metrics().expect("obs on by default");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while metrics.get(CounterId::NetConnectionsOpen) != 0 {
        assert!(std::time::Instant::now() < deadline, "slot never freed");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let mut next = NetClient::connect(addr).expect("connect again");
    let rel = expect_answer(&mut next, "SELECT A, B FROM T");
    assert_eq!(rel.sorted_rows().len(), 1);
    drop(next);

    let summary = server.shutdown();
    assert_eq!(summary.rejects, 1);
    assert_eq!(summary.connections, 2);
}
