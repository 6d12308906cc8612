//! The wire axis's frame fuzzer.
//!
//! `qcheck --net` replays the differential lattice through wire clients
//! of a loopback server (the oracle's walk over a wire `Target`); this
//! module adds what only the wire has. A seeded frame fuzzer throws
//! malformed traffic (truncated frames, invalid JSON, oversized lines,
//! mid-request disconnects) at a fresh server and demands that a valid
//! connection still gets correct answers afterwards: protocol garbage
//! must never panic a connection thread or poison the store.
//!
//! Discrepancy kinds are `net-error` where the wire itself failed, so a
//! shrunk failure names the layer at fault.

use crate::case::Case;
use crate::oracle::Discrepancy;
use aggview::net::{NetClient, NetConfig, NetServer, ServeBackend};
use aggview::server::SharedStore;
use aggview::session::StatementOutcome;
use aggview::state::WritePolicy;
use std::io::Write;
use std::net::TcpStream;

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
pub(crate) fn fuzz_frames(case: &Case) -> Result<(), Discrepancy> {
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
    let want = vec![vec![1i64, 30, 2], vec![2, 70, 2], vec![3, 50, 1]];
    let mut got_ints: Vec<Vec<i64>> = relation
        .rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|v| match v {
                    aggview_engine::Value::Int(i) => Ok(*i),
                    other => Err(fail(format!(
                        "post-fuzz answer has a non-int cell {other:?}"
                    ))),
                })
                .collect()
        })
        .collect::<Result<_, _>>()?;
    got_ints.sort();
    if got_ints != want {
        return Err(fail(format!(
            "post-fuzz aggregate wrong: got {got_ints:?}, want {want:?}"
        )));
    }
    drop(client);
    server.shutdown();
    Ok(())
}
