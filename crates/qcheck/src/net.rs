//! The wire axis: replay the differential lattice over real loopback TCP.
//!
//! Every lattice point boots an in-process [`NetServer`] on an ephemeral
//! loopback port and drives the standard statement stream through two
//! [`NetClient`] connections round-robin — so framing, the JSON codec,
//! per-connection sessions, cross-connection epoch sync, and the
//! admission path all sit between the workload and the store, and the
//! answers are bag-compared against the same in-process reference
//! interpreter as every other axis. A seeded frame fuzzer then throws
//! malformed traffic (truncated frames, invalid JSON, oversized lines,
//! mid-request disconnects) at a fresh server and demands that a valid
//! connection still gets correct answers afterwards: protocol garbage
//! must never panic a connection thread or poison the store.
//!
//! Discrepancy kinds are prefixed `net-` where the wire itself failed,
//! so a shrunk failure names the layer at fault.

use crate::case::Case;
use crate::oracle::{answer, compare, insert, Discrepancy, LatticePoint, Served};
use aggview::net::{NetClient, NetConfig, NetServer, ServeBackend};
use aggview::server::SharedStore;
use aggview::session::StatementOutcome;
use aggview::state::WritePolicy;
use aggview_engine::{execute_reference, multiset_eq, Relation};
use aggview_sql::ast::{BoolExpr, CmpOp, ColumnRef, Expr};
use aggview_sql::{CreateTable, CreateView, Delete, Statement};
use std::io::Write;
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Client connections per lattice point (mirrors the default
/// multi-session axis: enough for cross-connection effects).
const CONNECTIONS: usize = 2;

/// Check one case over loopback TCP: the full lattice, then the frame
/// fuzzer. Panics anywhere (client, server thread panics surface as
/// transport errors; harness panics directly) become a discrepancy.
pub fn check_case_net(case: &Case) -> Result<(), Discrepancy> {
    match catch_unwind(AssertUnwindSafe(|| check_case_net_inner(case))) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("opaque panic payload");
            Err(Discrepancy::new("panic", msg.to_string()))
        }
    }
}

fn check_case_net_inner(case: &Case) -> Result<(), Discrepancy> {
    let half_db = case.database(true);
    let final_db = case.database(false);
    let expected_half = execute_reference(&case.query, &half_db)
        .map_err(|e| Discrepancy::new("reference-error", e.to_string()))?;
    let expected_final = execute_reference(&case.query, &final_db)
        .map_err(|e| Discrepancy::new("reference-error", e.to_string()))?;
    let expected_views: Vec<Relation> = case
        .views
        .iter()
        .map(|v| {
            execute_reference(&v.query, &final_db)
                .map_err(|e| Discrepancy::new("reference-error", format!("view {}: {e}", v.name)))
        })
        .collect::<Result<_, _>>()?;

    for point in LatticePoint::all() {
        run_lattice_point_net(
            case,
            point,
            &expected_half,
            &expected_final,
            &expected_views,
        )?;
    }
    fuzz_frames(case)
}

/// One lattice point over the wire: the standard statement stream,
/// round-robin across [`CONNECTIONS`] client sockets.
fn run_lattice_point_net(
    case: &Case,
    point: LatticePoint,
    expected_half: &Relation,
    expected_final: &Relation,
    expected_views: &[Relation],
) -> Result<(), Discrepancy> {
    let fail = |kind: &str, detail: String| {
        Discrepancy::new(
            kind,
            format!("at [{point}] over {CONNECTIONS} connection(s): {detail}"),
        )
    };
    let store = SharedStore::new(WritePolicy {
        recompute_views: point.recompute,
        columnar: point.columnar,
        durability: false,
    });
    let server = NetServer::start(
        ServeBackend::Shared(store.clone()),
        "127.0.0.1:0",
        NetConfig {
            options: point.options(),
            ..NetConfig::default()
        },
    )
    .map_err(|e| fail("net-error", format!("cannot start server: {e}")))?;
    let addr = server.addr();
    let mut clients = Vec::with_capacity(CONNECTIONS);
    for c in 0..CONNECTIONS {
        clients.push(
            NetClient::connect(addr)
                .map_err(|e| fail("net-error", format!("connection {c}: connect: {e}")))?,
        );
    }

    let result = (|| {
        // Inner scope: `run` mutably borrows `clients`; the borrow must
        // end before the per-connection finals iterate them directly.
        {
            let mut next = 0usize;
            let mut run = |stmt: Statement| -> Result<StatementOutcome, Discrepancy> {
                let c = next % CONNECTIONS;
                next += 1;
                match clients[c].request(&stmt.to_string()) {
                    Ok(Ok(outcome)) => Ok(outcome),
                    Ok(Err(e)) => Err(fail("net-error", format!("connection {c}: {e}"))),
                    Err(e) => Err(fail("net-error", format!("connection {c}: transport: {e}"))),
                }
            };
            for t in &case.tables {
                run(Statement::CreateTable(CreateTable {
                    name: t.name.clone(),
                    columns: t.columns.clone(),
                    keys: Vec::new(),
                }))?;
            }
            for (i, t) in case.tables.iter().enumerate() {
                insert(&mut run, &t.name, &t.rows[..case.split_at(i)])?;
            }
            let a1 = answer(&mut run, case)?;
            compare(&a1, expected_half, "halfway").map_err(|d| fail(&d.kind, d.detail))?;

            for v in &case.views {
                run(Statement::CreateView(CreateView {
                    name: v.name.clone(),
                    query: v.query.clone(),
                }))?;
            }
            let a2 = answer(&mut run, case)?;
            compare(&a2, expected_half, "post-view").map_err(|d| fail(&d.kind, d.detail))?;

            for (i, t) in case.tables.iter().enumerate() {
                insert(&mut run, &t.name, &t.rows[case.split_at(i)..])?;
            }
            let t0 = &case.tables[0];
            run(Statement::Delete(Delete {
                table: t0.name.clone(),
                filter: Some(BoolExpr::cmp(
                    Expr::Column(ColumnRef::bare(t0.columns[0].clone())),
                    CmpOp::Eq,
                    Expr::int(1),
                )),
            }))?;

            let a3 = answer(&mut run, case)?;
            compare(&a3, expected_final, "final").map_err(|d| fail(&d.kind, d.detail))?;
        }

        // Every connection must now answer the final query correctly —
        // whatever its server-side session cached earlier.
        for (c, client) in clients.iter_mut().enumerate() {
            let sql = Statement::Select(case.query.clone()).to_string();
            let outcome = match client.request(&sql) {
                Ok(Ok(outcome)) => outcome,
                Ok(Err(e)) => return Err(fail("net-error", format!("connection {c}: {e}"))),
                Err(e) => return Err(fail("net-error", format!("connection {c}: transport: {e}"))),
            };
            let StatementOutcome::Answer {
                relation,
                set_semantics,
                ..
            } = outcome
            else {
                return Err(fail(
                    "net-error",
                    format!("connection {c}: SELECT produced a non-answer outcome"),
                ));
            };
            compare(
                &Served {
                    relation,
                    set_semantics,
                },
                expected_final,
                &format!("per-connection final (connection {c})"),
            )
            .map_err(|d| fail(&d.kind, d.detail))?;
        }

        // Final materialized view contents on the published snapshot
        // must match the reference evaluation.
        let snap = store.load();
        for (v, want) in case.views.iter().zip(expected_views) {
            let got = snap
                .state
                .db
                .get(&v.name)
                .map_err(|e| fail("net-error", e.to_string()))?;
            let got = Relation::new(want.columns.clone(), got.rows.clone());
            if !multiset_eq(&got, want) {
                return Err(fail(
                    "view-content-mismatch",
                    format!("view {} disagrees with reference evaluation", v.name),
                ));
            }
        }
        Ok(())
    })();

    // Close the client sockets before the drain so connection threads
    // see EOF immediately instead of waiting out a read-poll tick.
    drop(clients);
    server.shutdown();
    result
}

/// Deterministic xorshift64* stream for the fuzzer.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// Throw seeded protocol garbage at a fresh server, then prove a clean
/// connection still gets correct answers: malformed frames must draw
/// error responses (or a close), never a panic or a poisoned store.
fn fuzz_frames(case: &Case) -> Result<(), Discrepancy> {
    let fail = |detail: String| Discrepancy::new("net-error", format!("frame fuzzer: {detail}"));
    let store = SharedStore::new(WritePolicy::default());
    let server = NetServer::start(
        ServeBackend::Shared(store),
        "127.0.0.1:0",
        NetConfig {
            // A small frame cap keeps the oversized-line probe cheap.
            max_line_bytes: 512,
            ..NetConfig::default()
        },
    )
    .map_err(|e| fail(format!("cannot start server: {e}")))?;
    let addr = server.addr();

    // The case carries no seed of its own; a content hash keeps the
    // fuzz stream deterministic per case (and stable under replay).
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for t in &case.tables {
        state = state
            .wrapping_mul(0x100_0000_01b3)
            .wrapping_add(t.rows.len() as u64 + 1);
        for row in &t.rows {
            for &v in row {
                state = state.wrapping_mul(0x100_0000_01b3).wrapping_add(v as u64);
            }
        }
    }
    if state == 0 {
        state = 1;
    }
    for round in 0..12 {
        let Ok(mut stream) = TcpStream::connect(addr) else {
            return Err(fail(format!("round {round}: connect refused")));
        };
        let payload: Vec<u8> = match xorshift(&mut state) % 6 {
            // Random bytes (often invalid UTF-8).
            0 => {
                let n = 1 + (xorshift(&mut state) % 64) as usize;
                let mut bytes: Vec<u8> =
                    (0..n).map(|_| (xorshift(&mut state) % 256) as u8).collect();
                bytes.retain(|&b| b != b'\n');
                bytes.push(b'\n');
                bytes
            }
            // Truncated JSON: a valid request cut mid-token.
            1 => {
                let full = aggview::net::protocol::encode_request(7, "SELECT 1", None);
                let cut = 1 + (xorshift(&mut state) as usize % (full.len() - 1));
                let mut bytes = full.as_bytes()[..cut].to_vec();
                bytes.push(b'\n');
                bytes
            }
            // Syntactically valid JSON, wrong shape.
            2 => b"[1,2,3]\n".to_vec(),
            3 => b"{\"sql\":42,\"id\":\"x\"}\n".to_vec(),
            // Oversized line: past the 512-byte frame cap.
            4 => {
                let mut bytes = vec![b'a'; 700];
                bytes.push(b'\n');
                bytes
            }
            // Mid-request disconnect: no terminating newline, then drop.
            _ => b"{\"id\":1,\"sql\":\"SELECT".to_vec(),
        };
        let _ = stream.write_all(&payload);
        let _ = stream.flush();
        // Half the rounds hang up immediately; the rest wait for the
        // server's verdict so the error-reply path runs too. A frame
        // with no terminating newline never draws a reply — reading
        // would only wait out the timeout.
        if payload.last() == Some(&b'\n') && xorshift(&mut state).is_multiple_of(2) {
            stream
                .set_read_timeout(Some(std::time::Duration::from_secs(5)))
                .ok();
            let mut byte = [0u8; 1];
            let _ = std::io::Read::read(&mut stream, &mut byte);
        }
        drop(stream);
    }

    // The store must still serve a fresh connection correctly — and the
    // round trip includes a request line well past the 64-byte mark, so
    // a framing layer that silently truncates long lines cannot pass.
    let mut client =
        NetClient::connect(addr).map_err(|e| fail(format!("post-fuzz connect: {e}")))?;
    let script = [
        "CREATE TABLE FuzzProbe (K, V)",
        "INSERT INTO FuzzProbe VALUES (1, 10), (1, 20), (2, 30), (2, 40), (3, 50)",
        "SELECT K, SUM(V), COUNT(V) FROM FuzzProbe GROUP BY K",
    ];
    let mut last = None;
    for sql in script {
        match client.request(sql) {
            Ok(Ok(outcome)) => last = Some(outcome),
            Ok(Err(e)) => return Err(fail(format!("post-fuzz `{sql}`: {e}"))),
            Err(e) => return Err(fail(format!("post-fuzz `{sql}`: transport: {e}"))),
        }
    }
    let Some(StatementOutcome::Answer { relation, .. }) = last else {
        return Err(fail(
            "post-fuzz SELECT produced a non-answer outcome".into(),
        ));
    };
    let mut got = relation.sorted_rows();
    got.sort();
    let want = vec![vec![1i64, 30, 2], vec![2, 70, 2], vec![3, 50, 1]];
    let got_ints: Vec<Vec<i64>> = got
        .iter()
        .map(|row| {
            row.iter()
                .map(|v| match v {
                    aggview_engine::Value::Int(i) => *i,
                    other => panic!("unexpected non-int cell {other:?}"),
                })
                .collect()
        })
        .collect();
    if got_ints != want {
        return Err(fail(format!(
            "post-fuzz aggregate wrong: got {got_ints:?}, want {want:?}"
        )));
    }
    drop(client);
    server.shutdown();
    Ok(())
}
