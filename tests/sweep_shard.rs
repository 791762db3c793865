//! Sharded-sweep acceptance under kills: merge ≡ single process, byte
//! for byte.
//!
//! The shard engine promises that splitting a grid across part files —
//! under any shard count, any completion interleaving, and any kill
//! point — changes *where* cells are computed and nothing else. Every
//! shard count merged in either order is a row of `routes.rs`; these
//! tests pin the rest of that promise:
//!
//! * property-based, over random grids × shard counts × kill points: a
//!   part truncated at an arbitrary **byte** (mid-record, mid-UTF-8 —
//!   whatever a SIGKILL leaves) resumes by re-running exactly the cells
//!   the truncation destroyed, never a durable one;
//! * structurally: resume accounting (`ShardRun::{resumed, ran}`)
//!   matches the part file's contents before the resume.

mod common;

use common::{run_all_shards, scratch};
use faircrowd::sweep::shard::{grid_hash, load_part, merge_paths, partition, run_shard, ShardSpec};
use faircrowd::sweep::{run_grid, SweepGrid};
use proptest::prelude::*;

#[test]
fn kill_at_every_line_boundary_resumes_without_rerunning_durable_cells() {
    // Walk the kill point across every record boundary of one part:
    // whatever survives the kill must be resumed, never re-run.
    let grid = SweepGrid::parse("policy=round_robin;seed=1,2,3,4;rounds=6").unwrap();
    let dir = scratch();
    let path = dir.join("part.json");
    let spec = ShardSpec { index: 1, count: 1 };
    let full = run_shard(&grid, spec, &path, 2).unwrap();
    assert_eq!(full.ran, 4);
    let text = std::fs::read_to_string(&path).unwrap();
    let reference = std::fs::read_to_string(&path).unwrap();
    let line_ends: Vec<usize> = text
        .char_indices()
        .filter(|(_, c)| *c == '\n')
        .map(|(i, _)| i + 1)
        .collect();
    // Skip the header boundary (index 0); every later prefix keeps
    // `kept` records durable.
    // line_ends[k] cuts after the header plus k records.
    for (kept, &cut) in line_ends.iter().enumerate().skip(1) {
        std::fs::write(&path, &text[..cut]).unwrap();
        let resumed = run_shard(&grid, spec, &path, 2).unwrap();
        assert_eq!(resumed.resumed, kept, "cut at byte {cut}");
        assert_eq!(resumed.ran, 4 - kept, "cut at byte {cut}");
        // And the repaired part is exactly the uncut one, record for
        // record (append order may differ, so compare as sets of lines).
        let mut a: Vec<String> = std::fs::read_to_string(&path)
            .unwrap()
            .lines()
            .map(String::from)
            .collect();
        let mut b: Vec<String> = reference.lines().map(String::from).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "cut at byte {cut}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random grids × shard counts × byte-level kill points: the merge
    /// of resumed parts is byte-identical to the single-process sweep,
    /// and resume re-runs exactly the cells the kill destroyed.
    #[test]
    fn random_kills_resume_and_merge_byte_identical(
        policy_mask in 1usize..4,
        seed_count in 1u64..3,
        stack_count in 1usize..3,
        shards in 1usize..5,
        kill_shard in 0usize..4,
        kill_frac in 0.0f64..1.0,
    ) {
        let policies: Vec<&str> = ["round_robin", "kos"]
            .iter()
            .enumerate()
            .filter(|(i, _)| policy_mask & (1 << i) != 0)
            .map(|(_, p)| *p)
            .collect();
        let seeds: Vec<String> = (1..=seed_count).map(|s| s.to_string()).collect();
        let stacks = ["none", "grace"][..stack_count].join(",");
        let spec = format!(
            "policy={};seed={};rounds=4;enforce={stacks}",
            policies.join(","),
            seeds.join(",")
        );
        let grid = SweepGrid::parse(&spec).unwrap();
        let single = run_grid(&grid, 2).unwrap();

        let dir = scratch();
        let paths = run_all_shards(&grid, shards, &dir);

        // SIGKILL simulation: truncate one part at an arbitrary byte
        // past its header — mid-record and mid-character included.
        let victim = &paths[kill_shard % shards];
        let bytes = std::fs::read(victim).unwrap();
        let header_end = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let cut = header_end + ((bytes.len() - header_end) as f64 * kill_frac) as usize;
        std::fs::write(victim, &bytes[..cut.min(bytes.len())]).unwrap();

        let durable = load_part(victim).unwrap().cells.len();
        let victim_spec = ShardSpec { index: (kill_shard % shards) + 1, count: shards };
        let resumed = run_shard(&grid, victim_spec, victim, 2).unwrap();
        prop_assert_eq!(resumed.resumed, durable, "durable cells must not re-run");
        prop_assert_eq!(resumed.ran, resumed.shard_cells - durable);

        let merged = merge_paths(&paths).unwrap();
        prop_assert_eq!(merged.render_table(), single.render_table());
        prop_assert_eq!(merged.to_json(), single.to_json());
        prop_assert_eq!(merged.to_csv(), single.to_csv());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The partition is deterministic, total, and keeps every
    /// enforce-cluster on one shard for any grid shape.
    #[test]
    fn partition_is_total_and_cluster_stable(
        seed_count in 1u64..5,
        shards in 1usize..7,
    ) {
        let spec = format!("policy=round_robin,kos;seed=1..={seed_count};rounds=4;enforce=none,grace");
        let grid = SweepGrid::parse(&spec).unwrap();
        let cases = grid.expand().unwrap();
        let shard_of = partition(&cases, shards);
        prop_assert_eq!(shard_of.len(), cases.len());
        prop_assert_eq!(partition(&cases, shards), shard_of, "deterministic");
        prop_assert!(shard_of.iter().all(|&s| s < shards), "total");
        prop_assert_eq!(grid_hash(&cases), grid_hash(&cases), "hash deterministic");
        // Cases equal up to the enforcement stack share a shard.
        for (i, a) in cases.iter().enumerate() {
            for (j, b) in cases.iter().enumerate().skip(i + 1) {
                let same_baseline = a.scenario == b.scenario
                    && a.policy == b.policy
                    && a.seed == b.seed
                    && a.scale == b.scale
                    && a.rounds == b.rounds;
                if same_baseline {
                    prop_assert_eq!(shard_of[i], shard_of[j], "cluster split {i}/{j}");
                }
            }
        }
    }
}
