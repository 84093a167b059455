//! `acs-dse` with its stdout reader gone before it prints, as in
//! `acs-dse --profile | head -0`: the output ends, the run does not.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_ends_the_output_not_the_run() {
    let dir = std::env::temp_dir().join(format!("acs-dse-closed-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("trace.jsonl");
    // The read end is closed before the child starts, so its first write
    // fails with a broken pipe every time.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let output = Command::new(env!("CARGO_BIN_EXE_acs-dse"))
        .args(["--sweep", "table3-fig6", "--limit", "12", "--profile", "--trace"])
        .arg(&trace)
        .env("ACS_RESULTS_DIR", &dir)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn acs-dse");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "acs-dse panicked: {stderr}");
    assert!(output.status.success(), "exit {:?}: {stderr}", output.status);
    let written = std::fs::read_to_string(&trace).expect("the trace is still written");
    assert!(written.lines().count() > 0, "the trace holds events");
    let _ = std::fs::remove_dir_all(&dir);
}
