//! Pins on the full-length fixed points the `frontier` grid runs: each
//! strategic scenario at the catalog's own rounds and seed, converged
//! under `self_selection`, `round_robin`, `kos` and `parity` over
//! `kos`. Each cell pins three things:
//!
//! - FNV-1a 64 over the converged trace's JSONL encoding;
//! - the iteration count;
//! - FNV-1a 64 over every iteration's residual, retention and approval
//!   rate bits, in order: the history the controller produced.
//!
//! `assignment_pins.rs` caps its strategic cells at 12 rounds and pins
//! only the final trace. These cells run every round of every iteration,
//! so a change to the round loop, the assignment kernels or the
//! converge loop that only shows late in a market, or only in the
//! iterations before the fixed point, fails here. A changed pin is a
//! changed simulator, never a pin to update.

use faircrowd::core::persist::{self, TraceFormat};
use faircrowd::model::codec::fnv1a64;
use faircrowd::prelude::*;
use faircrowd::sim::{catalog, ConvergeOptions};

/// `(scenario, policy, trace FNV, iterations, history FNV)`.
const FIXED_POINT_PINS: [(&str, &str, u64, u32, u64); 16] = [
    (
        "reform_rush",
        "self_selection",
        0x4a3e_7437_732b_589c,
        23,
        0x6572_6389_afe1_1a8e,
    ),
    (
        "reform_rush",
        "round_robin",
        0xc13d_a915_b704_4601,
        22,
        0xafc5_d088_d6b3_6b29,
    ),
    (
        "reform_rush",
        "kos",
        0xbdf3_517f_4b06_3b73,
        25,
        0x1e25_7699_e4c2_f3e7,
    ),
    (
        "reform_rush",
        "parity[kos]",
        0xcaba_4f78_e36d_eb2a,
        25,
        0x1e25_7699_e4c2_f3e7,
    ),
    (
        "super_turkers",
        "self_selection",
        0xf952_d123_b2d7_a9cc,
        15,
        0x9205_2ef2_ea29_f028,
    ),
    (
        "super_turkers",
        "round_robin",
        0x58b4_90be_90f0_9f2e,
        18,
        0x244c_23d5_15c6_6a5e,
    ),
    (
        "super_turkers",
        "kos",
        0x9e9d_6a19_ef13_88cc,
        18,
        0x0273_4725_76bc_681e,
    ),
    (
        "super_turkers",
        "parity[kos]",
        0x2ea9_feb6_1531_1984,
        18,
        0x0273_4725_76bc_681e,
    ),
    (
        "price_war",
        "self_selection",
        0x77e5_d6f9_bcbc_ccb0,
        19,
        0xe255_7155_df03_ce58,
    ),
    (
        "price_war",
        "round_robin",
        0x3e07_436f_a0eb_7485,
        18,
        0x245f_3675_085f_a7a5,
    ),
    (
        "price_war",
        "kos",
        0xa9f0_a034_1b57_a628,
        18,
        0x438a_c142_9c18_462f,
    ),
    (
        "price_war",
        "parity[kos]",
        0x3d52_45be_b379_ef92,
        18,
        0x438a_c142_9c18_462f,
    ),
    (
        "undercut_churn",
        "self_selection",
        0x2ebb_6e6a_ca4b_8ac8,
        18,
        0x8407_0b9b_520a_f5e2,
    ),
    (
        "undercut_churn",
        "round_robin",
        0xc3fa_6605_d9d5_325b,
        17,
        0xef8a_e413_a6c7_eb1c,
    ),
    (
        "undercut_churn",
        "kos",
        0xd3d0_e5b1_82da_7550,
        18,
        0x1d4e_a5af_f110_9407,
    ),
    (
        "undercut_churn",
        "parity[kos]",
        0x15c7_e357_4a49_a82b,
        18,
        0x1d4e_a5af_f110_9407,
    ),
];

fn policy(name: &str) -> PolicyChoice {
    let by_name = |n: &str| PolicyChoice::by_name(n).unwrap_or_else(|e| panic!("{n}: {e}"));
    match name {
        "parity[kos]" => PolicyChoice::ParityOver(Box::new(by_name("kos"))),
        other => by_name(other),
    }
}

#[test]
fn full_length_fixed_points_reproduce_their_pinned_traces_and_histories() {
    let cells = catalog::STRATEGIC_NAMES.len() * 4;
    assert_eq!(
        FIXED_POINT_PINS.len(),
        cells,
        "every strategic scenario is pinned under every policy"
    );
    let drifted: Vec<String> = FIXED_POINT_PINS
        .iter()
        .filter_map(|&(scenario, name, trace_fnv, iterations, history_fnv)| {
            let mut cfg = catalog::get(scenario).unwrap();
            cfg.policy = policy(name);
            let converged = faircrowd::sim::converge::run(cfg, &ConvergeOptions::default())
                .unwrap_or_else(|e| panic!("{scenario} × {name}: {e}"));
            let history: Vec<u8> = converged
                .history
                .iter()
                .flat_map(|it| [it.residual, it.retention, it.approval_rate].map(f64::to_bits))
                .flat_map(u64::to_le_bytes)
                .collect();
            let got = (
                fnv1a64(persist::encode(&converged.trace, TraceFormat::Jsonl).as_bytes()),
                converged.iterations,
                fnv1a64(&history),
            );
            (got != (trace_fnv, iterations, history_fnv)).then(|| {
                format!(
                    "(\"{scenario}\", \"{name}\", {:#018x}, {}, {:#018x}),",
                    got.0, got.1, got.2
                )
            })
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "fixed points drifted from their pins; computed:\n{}",
        drifted.join("\n")
    );
}
