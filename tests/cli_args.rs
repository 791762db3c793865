//! The CLI's argument grammar through the binary: every verb answers
//! `--help`/`-h` with the usage text, a value-taking flag never
//! swallows the flag after it (so nothing is ever written to a file
//! named after a flag), and a reader that stops early ends the output
//! quietly.

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};

fn faircrowd(dir: &std::path::Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_faircrowd"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("the faircrowd binary runs")
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fc_cli_args_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The verbs the help lists, one per `  faircrowd <verb>` row.
fn verbs(help: &str) -> Vec<String> {
    help.lines()
        .filter_map(|l| l.strip_prefix("  faircrowd "))
        .filter_map(|rest| rest.split_whitespace().next())
        .map(str::to_owned)
        .collect()
}

#[test]
fn every_verb_answers_help_with_the_usage_text() {
    let dir = temp_dir("help");
    let top = faircrowd(&dir, &["--help"]);
    assert!(top.status.success());
    let verbs = verbs(&String::from_utf8_lossy(&top.stdout));
    for expected in [
        "run", "replay", "watch", "serve", "sweep", "merge", "compare",
    ] {
        assert!(verbs.iter().any(|v| v == expected), "{expected}: {verbs:?}");
    }
    for verb in &verbs {
        for help in ["--help", "-h"] {
            let out = faircrowd(&dir, &[verb, help]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(out.status.success(), "{verb} {help}: {stdout}");
            assert!(stdout.contains("USAGE:"), "{verb} {help}: {stdout}");
        }
    }
    // Nothing ran: `replay --help` opened no file, `run --help` wrote none.
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_dangling_value_flag_never_swallows_the_next_flag() {
    let dir = temp_dir("swallow");
    let export = [
        "export",
        "--rounds",
        "6",
        "--workers",
        "8",
        "--out",
        "m.jsonl",
    ];
    assert!(faircrowd(&dir, &export).status.success());
    let out = faircrowd(&dir, &["watch", "m.jsonl", "--checkpoint", "--once"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(stderr.contains("--checkpoint requires a value"), "{stderr}");
    assert!(!dir.join("--once").exists(), "a checkpoint named `--once`");
    let out = faircrowd(&dir, &["sweep", "--grid", "--progress"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(stderr.contains("--grid requires a value"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_closed_stdout_ends_the_output_without_a_panic() {
    let dir = temp_dir("pipe");
    // `run --live` prints far more than a pipe buffers, so it is still
    // writing when the reader leaves, whatever the scheduling.
    for line in [
        &["run", "--scenario", "baseline"][..],
        &["run", "--scenario", "baseline", "--live"],
        &["sweep", "--help"],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_faircrowd"))
            .current_dir(&dir)
            .args(line)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("the faircrowd binary runs");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut first = String::new();
        stdout.read_line(&mut first).expect("one line of output");
        assert!(!first.is_empty(), "{line:?}: no output");
        drop(stdout);
        let out = child.wait_with_output().expect("the binary exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{line:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
