//! Black-box tests of the `aggview` CLI binary.

use std::io::Write;
use std::process::{Command, Stdio};

fn run_cli(args: &[&str], stdin: &str) -> (String, String, bool) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_aggview"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    // A binary that refuses its arguments may exit before reading stdin;
    // the closed pipe is then expected, and its exit status is what counts.
    if let Err(e) = child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(stdin.as_bytes())
    {
        assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe, "stdin writes");
    }
    let out = child.wait_with_output().expect("binary exits");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

const SCRIPT: &str = "
CREATE TABLE Sales (Region, Product, Amount);
INSERT INTO Sales VALUES (1, 10, 5), (1, 11, 7), (2, 10, 3);
CREATE VIEW Totals AS
  SELECT Region, SUM(Amount) AS T, COUNT(Amount) AS N
  FROM Sales GROUP BY Region;
SELECT Region, SUM(Amount) FROM Sales GROUP BY Region;
EXPLAIN SELECT Region, MIN(Amount) FROM Sales GROUP BY Region;
";

#[test]
fn script_via_stdin() {
    let (stdout, stderr, ok) = run_cli(&["--verify"], SCRIPT);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("view `Totals` materialized"));
    assert!(stdout.contains("answered from [\"Totals\"]"));
    assert!(stdout.contains("base-table cross-check: equivalent"));
    assert!(
        stdout.contains("not usable"),
        "EXPLAIN must report the MIN miss"
    );
}

#[test]
fn interactive_mode_survives_errors() {
    let input = "bogus statement;\nCREATE TABLE T (a);\nINSERT INTO T VALUES (1);\nSELECT a FROM T;\nquit\n";
    let (stdout, stderr, ok) = run_cli(&["--interactive"], input);
    assert!(ok, "stderr: {stderr}");
    assert!(stderr.contains("parse error"), "stderr: {stderr}");
    assert!(stdout.contains("table `T` created"));
    // Single-column result: header "a" then the row "1".
    assert!(stdout.lines().any(|l| l.trim() == "1"), "stdout: {stdout}");
}

#[test]
fn unknown_flag_fails() {
    let (_, stderr, ok) = run_cli(&["--nope"], "");
    assert!(!ok);
    assert!(stderr.contains("unknown flag"));
}

#[test]
fn removed_view_index_flag_is_refused() {
    // Materialized GROUP BY views are always indexed; there is no opt-out.
    let (_, stderr, ok) = run_cli(&["--no-view-index"], SCRIPT);
    assert!(!ok);
    assert!(
        stderr.contains("unknown flag `--no-view-index`"),
        "{stderr}"
    );
}

#[test]
fn parse_error_fails_with_diagnostic() {
    let (_, stderr, ok) = run_cli(&[], "SELECT FROM;");
    assert!(!ok);
    assert!(stderr.contains("parse error"));
}

#[test]
fn missing_file_fails() {
    let (_, stderr, ok) = run_cli(&["/nonexistent/script.sql"], "");
    assert!(!ok);
    assert!(stderr.contains("cannot read"));
}

#[test]
fn suggest_statement_via_cli() {
    let script = "
CREATE TABLE Facts (Dim, M);
INSERT INTO Facts VALUES (1, 10), (1, 20), (2, 30);
SUGGEST SELECT Dim, SUM(M) FROM Facts GROUP BY Dim;
";
    let (stdout, stderr, ok) = run_cli(&[], script);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("CREATE VIEW Suggested"), "stdout: {stdout}");
}

#[test]
fn explain_reports_store_status() {
    // Plain (session-local) mode: the EXPLAIN tail says so.
    let (stdout, stderr, ok) = run_cli(&[], SCRIPT);
    assert!(ok, "stderr: {stderr}");
    assert!(
        stdout.contains("store: none (session-local state)"),
        "stdout: {stdout}"
    );
}

#[test]
fn serve_mode_round_robins_handles_over_one_store() {
    // 6 statements across 2 handles: schema and writes land on both s0
    // and s1, and every handle reads every other handle's effects.
    let (stdout, stderr, ok) = run_cli(&["serve", "--sessions", "2", "--verify"], SCRIPT);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("s0> "), "stdout: {stdout}");
    assert!(stdout.contains("s1> "), "stdout: {stdout}");
    assert!(stdout.contains("view `Totals` materialized"));
    assert!(stdout.contains("answered from [\"Totals\"]"));
    assert!(stdout.contains("base-table cross-check: equivalent"));
    // The EXPLAIN tail reports the live store identity...
    assert!(
        stdout.contains("store: epoch=") && stdout.contains("publishes="),
        "stdout: {stdout}"
    );
    // ...and the final summary line reports the batching counters: 3
    // write statements = 3 publishes (each acked before the next was
    // submitted, so every batch has size 1).
    assert!(
        stdout.contains(
            "-- store: sessions=2 epoch=3 schema-epoch=2 publishes=3 batches=3 \
             batched-ops=3 mean-batch=1.0 max-batch=1"
        ),
        "stdout: {stdout}"
    );
}

#[test]
fn serve_rejects_bad_session_count() {
    let (_, stderr, ok) = run_cli(&["serve", "--sessions", "0"], "");
    assert!(!ok);
    assert!(stderr.contains("--sessions"), "stderr: {stderr}");
}

/// Mask the unstable parts of an observability line so golden tests
/// compare shape, not timings: whitespace collapses to single spaces,
/// `fingerprint=<hex>` becomes `fingerprint=<FP>`, purely numeric
/// duration tokens (`41.7µs`, `560ns`, `1.20s`) become `<T>`, and every
/// remaining digit run becomes `#`.
fn mask_obs_line(line: &str) -> String {
    fn mask_token(token: &str) -> String {
        if let Some(rest) = token.strip_prefix("fingerprint=") {
            if !rest.is_empty() && rest.chars().all(|c| c.is_ascii_hexdigit()) {
                return "fingerprint=<FP>".to_string();
            }
        }
        for unit in ["ns", "µs", "ms", "s"] {
            if let Some(prefix) = token.strip_suffix(unit) {
                if !prefix.is_empty() && prefix.chars().all(|c| c.is_ascii_digit() || c == '.') {
                    return "<T>".to_string();
                }
            }
        }
        let mut out = String::new();
        let mut in_digits = false;
        for c in token.chars() {
            if c.is_ascii_digit() {
                if !in_digits {
                    out.push('#');
                    in_digits = true;
                }
            } else {
                out.push(c);
                in_digits = false;
            }
        }
        out
    }
    line.split_whitespace()
        .map(mask_token)
        .collect::<Vec<_>>()
        .join(" ")
}

#[test]
fn explain_analyze_golden() {
    // A warm EXPLAIN ANALYZE (the identical SELECT ran just before, so
    // the serving plan is cached): with timings and fingerprints masked,
    // the output shape is exact.
    let script = "
CREATE TABLE Sales (Region, Product, Amount);
INSERT INTO Sales VALUES (1, 10, 5), (1, 11, 7), (2, 10, 3);
CREATE VIEW Totals AS
  SELECT Region, SUM(Amount) AS T, COUNT(Amount) AS N
  FROM Sales GROUP BY Region;
SELECT Region, SUM(Amount) FROM Sales GROUP BY Region;
EXPLAIN ANALYZE SELECT Region, SUM(Amount) FROM Sales GROUP BY Region;
";
    let (stdout, stderr, ok) = run_cli(&[], script);
    assert!(ok, "stderr: {stderr}");
    let (_, tail) = stdout
        .split_once("aggview> EXPLAIN ANALYZE")
        .expect("EXPLAIN ANALYZE echoed");
    let masked: Vec<String> = tail
        .lines()
        .filter(|l| l.starts_with("--"))
        .map(mask_obs_line)
        .collect();
    let expected = [
        "-- answered from [\"Totals\"] (# candidate rewriting(s))",
        "-- executed: SELECT Totals.Region, SUM(Totals.T) FROM Totals GROUP BY Totals.Region",
        "-- rows: #",
        "-- exec path: vectorized (columnar kernels); session totals: \
         exec_vectorized=# exec_row_fallback=#",
        "-- query: fingerprint=<FP> plan=cached",
        "-- execute <T>",
        "-- total <T>",
        "-- search: states=# candidates=# (prefiltered #, attempted #) mappings=# \
         rewritings=# closure-cache=#% hit prepare=#.#ms search=#.#ms",
        "-- plan-cache: # hit(s), # miss(es), # invalidation(s)",
        "-- store: none (session-local state)",
    ];
    assert_eq!(masked, expected, "raw tail: {tail}");
}

#[test]
fn explain_analyze_requires_obs() {
    let script = "
CREATE TABLE T (a);
EXPLAIN ANALYZE SELECT a FROM T;
";
    let (_, stderr, ok) = run_cli(&["--no-obs"], script);
    assert!(!ok);
    assert!(
        stderr.contains("EXPLAIN ANALYZE needs observability enabled"),
        "stderr: {stderr}"
    );
}

#[test]
fn no_obs_flag_runs_clean() {
    let (stdout, stderr, ok) = run_cli(&["--no-obs", "--verify"], SCRIPT);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("answered from [\"Totals\"]"));
}

#[test]
fn metrics_subcommand_dumps_prometheus() {
    let (stdout, stderr, ok) = run_cli(&["metrics"], SCRIPT);
    assert!(ok, "stderr: {stderr}");
    // Statement output is suppressed; the dump is the whole of stdout.
    assert!(!stdout.contains("aggview>"), "stdout: {stdout}");
    assert!(stdout.contains("# TYPE aggview_statements_total counter"));
    assert!(
        stdout.contains("aggview_statements_total 5"),
        "stdout: {stdout}"
    );
    assert!(
        stdout.contains("aggview_queries_total 1"),
        "stdout: {stdout}"
    );
    // CREATE TABLE, INSERT, CREATE VIEW all route through the write path.
    assert!(
        stdout.contains("aggview_writes_total 3"),
        "stdout: {stdout}"
    );
    // Stage histograms are exported in Prometheus histogram shape.
    assert!(
        stdout.contains("aggview_stage_duration_nanoseconds_bucket{stage=\"execute\",le=\"+Inf\"}"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("aggview_stage_duration_nanoseconds_count{stage=\"parse\"} 1"));
    // Every exposed metric line is either a comment or `name value`.
    for line in stdout.lines() {
        if line.starts_with('#') {
            assert!(line.starts_with("# TYPE aggview_"), "bad comment: {line}");
            continue;
        }
        let mut parts = line.split(' ');
        let name = parts.next().unwrap_or("");
        let value = parts.next().unwrap_or("");
        assert!(name.starts_with("aggview_"), "bad metric name: {line}");
        assert!(
            value.parse::<u64>().is_ok(),
            "non-numeric sample value: {line}"
        );
        assert_eq!(parts.next(), None, "trailing tokens: {line}");
    }
}

#[test]
fn metrics_subcommand_human_format() {
    let (stdout, stderr, ok) = run_cli(&["metrics", "--human"], SCRIPT);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("stage"), "stdout: {stdout}");
    assert!(stdout.contains("slow queries"), "stdout: {stdout}");
}

#[test]
fn serve_metrics_scrapes_store_registry() {
    let (stdout, stderr, ok) = run_cli(&["serve", "--sessions", "2", "--metrics"], SCRIPT);
    assert!(ok, "stderr: {stderr}");
    // The serving transcript still prints, then the Prometheus dump.
    assert!(stdout.contains("s0> "), "stdout: {stdout}");
    assert!(
        stdout.contains("aggview_store_publishes_total 3"),
        "stdout: {stdout}"
    );
    assert!(
        stdout.contains("aggview_store_batches_total 3"),
        "stdout: {stdout}"
    );
    assert!(
        stdout.contains("aggview_stage_duration_nanoseconds_count{stage=\"apply\"} 3"),
        "stdout: {stdout}"
    );
    assert!(
        stdout.contains("aggview_write_queue_depth 0"),
        "stdout: {stdout}"
    );
}

#[test]
fn serve_metrics_conflicts_with_no_obs() {
    let (_, stderr, ok) = run_cli(&["serve", "--metrics", "--no-obs"], "");
    assert!(!ok);
    assert!(stderr.contains("--metrics"), "stderr: {stderr}");
}

#[test]
fn expand_flag_enables_footnote3() {
    let script = "
CREATE TABLE R1 (A, B, C);
INSERT INTO R1 VALUES (1, 1, 0), (1, 1, 0), (2, 1, 0);
CREATE VIEW V1 AS SELECT A, B, COUNT(C) AS N FROM R1 GROUP BY A, B;
SELECT A, B FROM R1;
";
    // Without --expand: base tables.
    let (stdout, _, ok) = run_cli(&["--verify"], script);
    assert!(ok);
    assert!(stdout.contains("no usable view"));
    // With --expand: answered from the view, verified.
    let (stdout, stderr, ok) = run_cli(&["--verify", "--expand"], script);
    assert!(ok, "stderr: {stderr}");
    assert!(
        stdout.contains("answered from [\"V1\"]"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("Nat.k <= V1.N"), "stdout: {stdout}");
    assert!(
        stdout.contains("cross-check: equivalent"),
        "stdout: {stdout}"
    );
}
