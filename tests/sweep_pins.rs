//! Byte pins on the sweep and frontier exports of one fixed grid:
//! FNV-1a 64 over `sweep --format json`, `sweep --format csv` and
//! `frontier --format json`.
//!
//! The grid crosses every registry policy with enforcement stacks that
//! include repairs the work-unit grouping may fold into their base
//! cell's run (`parity` and `floor:8` over the open policies, `floor:8`
//! over the registry's own `floor`, parity over `parity`) and repairs it
//! may not (`transparency`, the same wrappers over the need-to-know
//! policies). However the sweep groups cases into runs, every byte of
//! every export must stay put: a changed pin is a changed output, never
//! a pin to update. The same grid run as three shards and merged from
//! their part files must hit the same pins, so whatever a part file
//! keeps of a cell is all the exports read.

use faircrowd::frontier::{frontier_grid, run_frontier, FrontierResult};
use faircrowd::model::codec::fnv1a64;
use faircrowd::sweep::shard::{merge_paths, run_shard, ShardSpec};

const GRID: &str = "scenario=baseline;policy=*;\
                    enforce=none,parity,floor:8,transparency,parity+floor:8;\
                    aggregator=majority,parity_constrained;seed=1,2;rounds=8";

const SWEEP_JSON: u64 = 0x1355_86cd_03d8_485d;
const SWEEP_CSV: u64 = 0x43f9_62a6_6097_0cb6;
const FRONTIER_JSON: u64 = 0xcae9_3cbd_f8fa_7f09;

/// Every export of `frontier` against its pin; `route` names how the
/// result was made in the failure message.
fn assert_pins(route: &str, frontier: &FrontierResult) {
    assert_eq!(frontier.sweep.cases.len(), 10 * 5 * 2 * 2, "{route}");
    let got = [
        (
            "sweep json",
            SWEEP_JSON,
            fnv1a64(frontier.sweep.to_json().as_bytes()),
        ),
        (
            "sweep csv",
            SWEEP_CSV,
            fnv1a64(frontier.sweep.to_csv().as_bytes()),
        ),
        (
            "frontier json",
            FRONTIER_JSON,
            fnv1a64(frontier.to_json().as_bytes()),
        ),
    ];
    let drifted: Vec<String> = got
        .iter()
        .filter(|(_, pinned, computed)| pinned != computed)
        .map(|(what, _, computed)| format!("{what}: computed {computed:#018x}"))
        .collect();
    assert!(
        drifted.is_empty(),
        "{route}: exports drifted from their pins:\n{}",
        drifted.join("\n")
    );
}

#[test]
fn sweep_and_frontier_exports_keep_their_bytes() {
    // Every axis is set, so the frontier grid is the plain sweep grid
    // and `frontier.sweep` is what `sweep --grid GRID` prints.
    let grid = frontier_grid(GRID).unwrap();
    assert_pins("in-process sweep", &run_frontier(&grid, 2).unwrap());
}

/// A scratch directory under the system temp directory, removed with
/// the guard.
struct ScratchDir(std::path::PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[test]
fn sharded_and_merged_exports_keep_their_bytes() {
    let grid = frontier_grid(GRID).unwrap();
    let dir =
        ScratchDir(std::env::temp_dir().join(format!("fc_sweep_pins_{}", std::process::id())));
    std::fs::create_dir_all(&dir.0).unwrap();
    let parts: Vec<_> = (1..=3)
        .map(|index| {
            let part = dir.0.join(format!("part-{index}.json"));
            run_shard(&grid, ShardSpec { index, count: 3 }, &part, 2).unwrap();
            part
        })
        .collect();
    let merged = merge_paths(&parts).unwrap();
    assert_pins("3 shards, merged", &FrontierResult::of_sweep(merged));
}
