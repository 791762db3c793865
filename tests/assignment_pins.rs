//! Byte pins on the traces every assignment policy produces: FNV-1a 64
//! over the JSONL encoding, one pin per (scenario, policy) cell.
//!
//! `converge.rs` pins the static catalog under each scenario's own
//! policy; this suite pins the policies themselves. Every registry
//! policy runs on `baseline` and `spam_campaign`, the two enforcement
//! wrappers run over `self_selection`, `round_robin` and `kos`, and the
//! four strategic scenarios are converged under those three bases
//! (rounds capped at 12, as the converge suite does). An assignment
//! kernel rewrite must keep every trace byte-identical: the same RNG
//! draws, the same assignment order, the same `TaskVisible` order. A
//! changed pin is a changed simulator, never a pin to update.

use faircrowd::core::persist::{self, TraceFormat};
use faircrowd::model::codec::fnv1a64;
use faircrowd::prelude::*;
use faircrowd::sim::{catalog, ConvergeOptions};

fn pin(trace: &Trace) -> u64 {
    fnv1a64(persist::encode(trace, TraceFormat::Jsonl).as_bytes())
}

fn base(name: &str) -> PolicyChoice {
    PolicyChoice::by_name(name).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Assert every `(cell, pinned, computed)` row matches, reporting each
/// drifted cell at once with the value it now produces.
fn check(rows: impl Iterator<Item = (String, u64, u64)>) {
    let drifted: Vec<String> = rows
        .filter(|(_, pinned, got)| pinned != got)
        .map(|(cell, _, got)| format!("{cell}: computed {got:#018x}"))
        .collect();
    assert!(
        drifted.is_empty(),
        "traces drifted from their pins:\n{}",
        drifted.join("\n")
    );
}

/// Every registry policy on `baseline` and `spam_campaign`.
const REGISTRY_PINS: [(&str, &str, u64); 20] = [
    ("baseline", "self_selection", 0x79ab_4b78_03d4_18ca),
    ("baseline", "round_robin", 0x6a36_b885_985c_e141),
    ("baseline", "requester_centric", 0x9f2e_2790_622c_e488),
    ("baseline", "online_greedy", 0x3960_b2af_8928_3c28),
    ("baseline", "worker_centric", 0x921c_ca17_7d24_20b1),
    ("baseline", "kos", 0x26ac_d0d1_e515_c946),
    ("baseline", "parity", 0x0e0c_3cca_e656_4c08),
    ("baseline", "floor", 0xfbb2_73a6_a2ce_3574),
    ("baseline", "budget_diverse", 0x1b77_b464_c539_814c),
    ("baseline", "fair_delivery", 0x6a36_b885_985c_e141),
    ("spam_campaign", "self_selection", 0xff75_94e4_fb6e_5304),
    ("spam_campaign", "round_robin", 0x56e2_18ad_bc7b_45ac),
    ("spam_campaign", "requester_centric", 0xb288_bc80_b400_1168),
    ("spam_campaign", "online_greedy", 0xe0d8_c40d_5504_3254),
    ("spam_campaign", "worker_centric", 0x7701_1232_f6a4_d908),
    ("spam_campaign", "kos", 0x4e78_c119_125e_c844),
    ("spam_campaign", "parity", 0x5604_86fa_6328_d763),
    ("spam_campaign", "floor", 0xb78a_aae5_0263_74a9),
    ("spam_campaign", "budget_diverse", 0xd35f_acc3_8cc1_70f4),
    ("spam_campaign", "fair_delivery", 0x6a5e_3dae_daaa_120a),
];

#[test]
fn every_registry_policy_reproduces_its_pinned_trace() {
    check(REGISTRY_PINS.iter().map(|&(scenario, policy, pinned)| {
        let mut cfg = catalog::get(scenario).unwrap();
        cfg.policy = base(policy);
        let got = pin(&faircrowd::sim::run(cfg));
        (format!("{scenario} × {policy}"), pinned, got)
    }));
}

/// `parity` and `floor` over the three bases whose visibility is not
/// need-to-know, so the wrappers' row algebra has real rows to merge.
/// Scenario alternates to keep the suite small.
const WRAPPER_PINS: [(&str, &str, &str, u64); 6] = [
    (
        "baseline",
        "parity",
        "self_selection",
        0x79ab_4b78_03d4_18ca,
    ),
    (
        "spam_campaign",
        "parity",
        "round_robin",
        0x56e2_18ad_bc7b_45ac,
    ),
    ("baseline", "parity", "kos", 0xcefc_e408_63b1_2b99),
    (
        "spam_campaign",
        "floor",
        "self_selection",
        0xff75_94e4_fb6e_5304,
    ),
    ("baseline", "floor", "round_robin", 0x6a36_b885_985c_e141),
    ("spam_campaign", "floor", "kos", 0x71c6_f615_a5f3_94e4),
];

fn wrapped(wrapper: &str, over: &str) -> PolicyChoice {
    let inner = Box::new(base(over));
    match wrapper {
        "parity" => PolicyChoice::ParityOver(inner),
        "floor" => PolicyChoice::FloorOver(inner, faircrowd::assign::registry::DEFAULT_FLOOR),
        other => panic!("unknown wrapper {other}"),
    }
}

#[test]
fn enforcement_wrappers_over_open_bases_reproduce_their_pinned_traces() {
    check(
        WRAPPER_PINS
            .iter()
            .map(|&(scenario, wrapper, over, pinned)| {
                let mut cfg = catalog::get(scenario).unwrap();
                cfg.policy = wrapped(wrapper, over);
                let got = pin(&faircrowd::sim::run(cfg));
                (format!("{scenario} × {wrapper}[{over}]"), pinned, got)
            }),
    );
}

/// The strategic scenarios, converged under the three open bases: the
/// fixed-point loop re-simulates the market once per iteration, so each
/// pin covers every iteration's assignment rounds.
const STRATEGIC_PINS: [(&str, &str, u64); 12] = [
    ("reform_rush", "self_selection", 0x25f5_31a9_61d7_52a3),
    ("reform_rush", "round_robin", 0xc9c8_05da_f7d2_19fa),
    ("reform_rush", "kos", 0x2982_c18f_58df_645f),
    ("super_turkers", "self_selection", 0x2edf_da7a_46b8_882e),
    ("super_turkers", "round_robin", 0xe988_2375_74bf_8cf3),
    ("super_turkers", "kos", 0x48b0_9a6b_5c04_a7d2),
    ("price_war", "self_selection", 0xfa68_b8be_c96c_b415),
    ("price_war", "round_robin", 0x0a6b_e8c5_58d9_2084),
    ("price_war", "kos", 0xfb15_ccaf_f704_1c6c),
    ("undercut_churn", "self_selection", 0xa950_3dc7_aac8_e818),
    ("undercut_churn", "round_robin", 0xb91a_56fe_6b5a_c414),
    ("undercut_churn", "kos", 0x7f1e_8bde_7d0e_75b1),
];

#[test]
fn converged_strategic_markets_reproduce_their_pinned_traces() {
    assert_eq!(
        catalog::STRATEGIC_NAMES.len() * 3,
        STRATEGIC_PINS.len(),
        "every strategic scenario is pinned under every base"
    );
    check(STRATEGIC_PINS.iter().map(|&(scenario, policy, pinned)| {
        let mut cfg = catalog::get(scenario).unwrap();
        cfg.rounds = cfg.rounds.min(12);
        cfg.policy = base(policy);
        let converged = faircrowd::sim::converge::run(cfg, &ConvergeOptions::default())
            .unwrap_or_else(|e| panic!("{scenario} × {policy}: {e}"));
        (
            format!("{scenario} × {policy}"),
            pinned,
            pin(&converged.trace),
        )
    }));
}
