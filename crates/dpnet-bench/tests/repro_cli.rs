//! `repro` rejects unknown experiment ids up front: exit 2 with the id
//! list on stderr, nothing run and no report written.

use std::path::PathBuf;
use std::process::Command;

/// A fresh, empty working directory for one `repro` invocation.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_rejected(name: &str, args: &[&str], unknown: &str) {
    let dir = scratch_dir(name);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(unknown), "stderr: {stderr}");
    assert!(
        stderr.contains("ids: table1 example23 fig1"),
        "stderr: {stderr}"
    );
    // Nothing ran: no experiment output and no report directory.
    assert!(
        out.stdout.is_empty(),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(!dir.join("bench-reports").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_id_exits_2_and_writes_no_report() {
    assert_rejected("bogus", &["bogus"], "unknown experiment id(s): bogus");
}

#[test]
fn one_unknown_id_stops_the_known_ones_from_running() {
    assert_rejected("mixed", &["--workers", "2", "table1", "bogus"], "bogus");
}
