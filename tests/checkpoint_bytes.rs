//! The checkpoint body's bytes, pinned: FNV-1a 64 over
//! `checkpoint::encode` for a few auditors, recorded when the body
//! schema was version 2. A journal a previous build wrote must keep
//! resuming, so a changed pin means a changed on-disk format — a new
//! schema version, never a silent drift.

mod common;

use common::{random_trace, sparse_id_trace};
use faircrowd::core::checkpoint;
use faircrowd::model::codec::fnv1a64;
use faircrowd::model::event::EventLog;
use faircrowd::prelude::*;
use faircrowd::sim::catalog;

/// Ingest the first `cut` events of `trace` into a fresh auditor and
/// hash its encoded checkpoint.
fn checkpoint_fnv(trace: &Trace, cut: usize) -> u64 {
    let mut prefix = trace.clone();
    prefix.events = EventLog::from_events(trace.events.as_slice()[..cut].to_vec());
    let mut auditor = LiveAuditor::new(AuditConfig::default());
    auditor.ingest_trace(&prefix).expect("prefix ingests");
    fnv1a64(&checkpoint::encode(&auditor.checkpoint(cut as u64)))
}

fn assert_pinned(name: &str, trace: &Trace, cut: usize, pinned: u64) {
    let computed = checkpoint_fnv(trace, cut);
    assert_eq!(
        computed, pinned,
        "{name}, cut at event {cut}: checkpoint bytes drifted from the v2 pin \
         (computed {computed:#018x})"
    );
}

#[test]
fn baseline_checkpoints_keep_their_bytes() {
    let trace = faircrowd::sim::run(catalog::get("baseline").unwrap());
    let n = trace.events.len();
    assert_pinned("baseline", &trace, n, 0xd26a_ba5d_ae02_26f3);
    assert_pinned("baseline", &trace, n / 2, 0x8704_edb4_a540_edfc);
}

#[test]
fn sparse_and_random_checkpoints_keep_their_bytes() {
    let sparse = sparse_id_trace();
    let n = sparse.events.len();
    assert_pinned("sparse ids", &sparse, n, 0xb8a2_565d_9ee9_1df7);
    assert_pinned("sparse ids", &sparse, n / 2, 0xce4d_d3aa_b478_9021);
    let random = random_trace(7, 40, 36, 60);
    let n = random.events.len();
    assert_pinned("random trace 7", &random, n, 0x3b93_4311_09dc_00a3);
    assert_pinned("random trace 7", &random, n / 3, 0x8529_04c1_f187_2190);
}
