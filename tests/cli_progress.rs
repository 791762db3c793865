//! `--progress` through the CLI binary: one stderr line per completed
//! cell, `[k/total] case #i …`, where `k` counts completions (so it runs
//! `1..=total` in order, whatever order the workers finish in) and `i`
//! is the cell's 1-based grid position (each appears once). stdout is
//! byte-identical with and without the flag.

use std::process::{Command, Output};

const GRID: &str = "policy=round_robin;rounds=6;seed=1..4;\
                    aggregator=majority,parity_constrained;enforce=none,grace";
const CELLS: usize = 2 * 2 * 3;

fn faircrowd(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_faircrowd"))
        .args(args)
        .output()
        .expect("the faircrowd binary runs");
    assert!(
        out.status.success(),
        "faircrowd {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// Parse `[{tag}k/total] case #i …` lines; assert the counts run
/// `1..=total` in order and return the grid positions seen.
fn progress_positions(stderr: &[u8], tag: &str, total: usize) -> Vec<usize> {
    let text = String::from_utf8(stderr.to_vec()).expect("utf-8 stderr");
    let mut positions = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let rest = line
            .strip_prefix(&format!("[{tag}"))
            .unwrap_or_else(|| panic!("unexpected progress line `{line}`"));
        let (count, rest) = rest.split_once("] case #").expect("count then case");
        assert_eq!(count, format!("{}/{total}", n + 1), "line `{line}`");
        let (position, _) = rest.split_once(' ').expect("case position then cell");
        positions.push(position.parse().expect("numeric case position"));
    }
    assert_eq!(positions.len(), total, "{text}");
    positions
}

#[test]
fn progress_counts_completions_and_leaves_stdout_unchanged() {
    for (cmd, format) in [("sweep", "csv"), ("sweep", "json"), ("frontier", "json")] {
        let args = [cmd, "--grid", GRID, "--jobs", "2", "--format", format];
        let quiet = faircrowd(&args);
        assert!(quiet.stderr.is_empty());
        let loud = faircrowd(&[&args[..], &["--progress"]].concat());
        assert_eq!(loud.stdout, quiet.stdout, "{cmd} --format {format}");
        let mut positions = progress_positions(&loud.stderr, "", CELLS);
        positions.sort_unstable();
        assert_eq!(positions, (1..=CELLS).collect::<Vec<_>>(), "{cmd}");
    }
}

#[test]
fn shard_progress_counts_this_runs_cells() {
    let dir = std::env::temp_dir().join(format!("fc_cli_progress_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let part = dir.join("part.json");
    std::fs::remove_file(&part).ok();
    let part = part.to_str().unwrap();
    let args = [
        "sweep",
        "--grid",
        GRID,
        "--jobs",
        "2",
        "--shard",
        "1/2",
        "--out",
        part,
        "--progress",
    ];
    let run = faircrowd(&args);
    // "shard 1/2: N of M grid cell(s); R ran, 0 resumed -> …"
    let stdout = String::from_utf8(run.stdout).unwrap();
    let owned: usize = stdout
        .strip_prefix("shard 1/2: ")
        .and_then(|s| s.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("unexpected shard tally `{stdout}`"));
    assert!(owned > 0 && owned < CELLS, "{stdout}");
    let positions = progress_positions(&run.stderr, "shard 1/2 ", owned);
    let mut unique = positions.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), owned);
    // A resumed part counts only the cells still to run: none here.
    let again = faircrowd(&args);
    assert!(again.stderr.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}
