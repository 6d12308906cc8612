//! `repro` regenerates only the experiments it knows and refuses the rest.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn unknown_experiment_exits_2_and_lists_valid_names() {
    for name in ["s1", "t10", "f5"] {
        let out = repro(&[name]);
        assert_eq!(out.status.code(), Some(2), "repro {name}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("`{name}`")), "{stderr}");
        assert!(
            stderr.contains("t1 t2 t3 t4 t5 t6 t7 t8 t9 f1 f2 f3 f4 f6"),
            "{stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "nothing regenerated before the check"
        );
    }
}

#[test]
fn known_experiment_succeeds() {
    let out = repro(&["t1"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("T1 — paper examples"), "{stdout}");
    assert!(
        stdout.contains("1 experiment table(s) regenerated"),
        "{stdout}"
    );
}
