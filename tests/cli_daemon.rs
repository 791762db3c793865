//! `serve` and `watch` through the CLI binary: the failure policy the
//! two verbs share. A market that fails is named and fails the exit
//! code without silencing the others; a checkpoint that cannot be
//! written is a notice, never an aborted audit.

use std::path::PathBuf;
use std::process::{Command, Output};

fn faircrowd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_faircrowd"))
        .args(args)
        .output()
        .expect("the faircrowd binary runs")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fc_cli_daemon_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn export(path: &std::path::Path) {
    let out = faircrowd(&[
        "export",
        "--rounds",
        "6",
        "--workers",
        "8",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn serve_fails_a_headerless_market_and_still_reports_the_rest() {
    let dir = temp_dir("empty");
    export(&dir.join("good.jsonl"));
    std::fs::write(dir.join("empty.jsonl"), "").unwrap();
    let out = faircrowd(&["serve", dir.to_str().unwrap(), "--once"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stdout}");
    assert!(
        stdout.contains("market `empty` failed: not a JSONL trace stream (no schema header line)"),
        "{stdout}"
    );
    assert!(stdout.contains("market `good`: "), "{stdout}");
    assert!(
        !stdout.contains("market `empty`: "),
        "no verdict for `empty`: {stdout}"
    );
    assert!(stderr.contains("`empty`"), "{stderr}");
    // A data error, not a usage error: no help text follows it.
    assert!(
        !stdout.contains("USAGE:") && !stderr.contains("USAGE:"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn watch_refuses_a_headerless_stream_without_the_help_text() {
    let dir = temp_dir("watch_empty");
    let empty = dir.join("empty.jsonl");
    std::fs::write(&empty, "").unwrap();
    let out = faircrowd(&["watch", empty.to_str().unwrap(), "--once"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(stderr.contains("no schema header line"), "{stderr}");
    assert!(stderr.contains("faircrowd replay"), "{stderr}");
    assert!(!String::from_utf8_lossy(&out.stdout).contains("USAGE:"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn watch_with_an_unwritable_checkpoint_completes_with_a_notice() {
    let dir = temp_dir("unwritable");
    let trace = dir.join("m.jsonl");
    export(&trace);
    let nowhere = dir.join("no").join("such").join("m.checkpoint");
    let out = faircrowd(&[
        "watch",
        trace.to_str().unwrap(),
        "--once",
        "--checkpoint",
        nowhere.to_str().unwrap(),
        "--checkpoint-every",
        "1",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("checkpoint write failed"), "{stdout}");
    assert!(stdout.contains("\nwatched "), "{stdout}");
    assert!(stdout.contains("axiom "), "the audit completes: {stdout}");
    // Same verdict as an unchecked watch.
    let plain = faircrowd(&["watch", trace.to_str().unwrap(), "--once"]);
    let report = |text: &str| text[text.find("\nwatched ").unwrap()..].to_owned();
    assert_eq!(
        report(&stdout),
        report(&String::from_utf8_lossy(&plain.stdout))
    );
    assert!(!nowhere.exists());
    std::fs::remove_dir_all(&dir).ok();
}
