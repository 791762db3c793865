//! The trace codecs' bytes, pinned: FNV-1a 64 over the `.fcb` and the
//! whole-file JSON encoding of every static catalog scenario's trace.
//! With `LEGACY_TRACE_FNV` (`tests/converge.rs`, the JSONL form) this
//! is the oracle for any change to the trace codecs: a drifted pin is
//! a changed on-disk format, never a pin to update.

use faircrowd::core::persist::{self, TraceFormat};
use faircrowd::model::codec::fnv1a64;
use faircrowd::sim::catalog;

/// `(scenario, .fcb pin, whole-file JSON pin)`.
const FORMAT_FNV: [(&str, u64, u64); 8] = [
    ("baseline", 0xe9ca_4fb9_ca07_efe4, 0xf5b6_ef55_414f_93ad),
    (
        "spam_campaign",
        0xe447_e6c2_d5ce_18a7,
        0x22fb_ef8b_e0a7_f5c5,
    ),
    ("worker_churn", 0x9c12_40cf_2697_a14e, 0x7a80_300c_314d_d5cb),
    ("skill_skew", 0x0c58_bac8_c87e_c3b5, 0xb8e0_21da_f782_a8c7),
    (
        "requester_monopoly",
        0xf5e1_27a9_d200_f857,
        0x6542_2b3d_b514_050f,
    ),
    ("flash_crowd", 0x3fab_ba74_d264_28fb, 0xe0e3_420c_0166_7e61),
    (
        "budget_starved",
        0x4f9e_29cc_f2b2_d71e,
        0xff65_ffd9_90a1_03b1,
    ),
    (
        "transparent_utopia",
        0xea6d_b306_6cb7_2397,
        0xa8ee_452c_c6aa_8b2e,
    ),
];

#[test]
fn static_catalog_traces_keep_their_fcb_and_json_bytes() {
    assert_eq!(
        FORMAT_FNV.map(|(name, ..)| name),
        catalog::STATIC_NAMES,
        "one row per static scenario"
    );
    let mut drifted = Vec::new();
    for (name, fcb_pin, json_pin) in FORMAT_FNV {
        let trace = faircrowd::sim::run(catalog::get(name).expect("catalog scenario"));
        for (format, pinned) in [
            (TraceFormat::Binary, fcb_pin),
            (TraceFormat::Json, json_pin),
        ] {
            let computed = fnv1a64(&persist::encode_bytes(&trace, format));
            if computed != pinned {
                drifted.push(format!("{name} {format:?}: {computed:#018x}"));
            }
        }
    }
    assert!(drifted.is_empty(), "drifted pins:\n{}", drifted.join("\n"));
}
