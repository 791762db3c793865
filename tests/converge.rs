//! Convergence-engine integration suite: the fixed-point loop is
//! deterministic, the `static` strategy is the exact pre-refactor
//! simulator (pinned bit-identical for every legacy scenario), and a
//! converged trace survives the export → replay round trip with an
//! identical audit — the properties the CI converge smoke re-checks
//! from the shell.

use faircrowd::core::persist::{self, TraceFormat};
use faircrowd::core::report::render_report;
use faircrowd::model::FaircrowdError;
use faircrowd::prelude::*;
use faircrowd::sim::{catalog, ConvergeOptions};

/// FNV-1a 64 — the same tiny content hash the sweep shard files use
/// for grid identity, applied here to encoded traces.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn jsonl(trace: &Trace) -> String {
    persist::encode(trace, TraceFormat::Jsonl)
}

/// The no-regression oracle: FNV-1a 64 over the JSONL encoding of each
/// legacy scenario's trace, recorded when the strategy layer landed.
/// The `static` strategy must keep reproducing these bytes forever —
/// a changed pin means the refactor broke bit-identity.
const LEGACY_TRACE_FNV: [(&str, u64); 8] = [
    ("baseline", 0x79ab_4b78_03d4_18ca),
    ("spam_campaign", 0xff75_94e4_fb6e_5304),
    ("worker_churn", 0xc20e_fb12_65b5_5fb3),
    ("skill_skew", 0xcd33_57d1_c0f3_86b0),
    ("requester_monopoly", 0xb962_b2cd_dd10_cbdc),
    ("flash_crowd", 0x8028_dd25_9241_af31),
    ("budget_starved", 0x0cc7_d36d_f77c_499e),
    ("transparent_utopia", 0x447b_e315_4c56_c1d3),
];

#[test]
fn static_family_converges_in_one_iteration_to_the_pinned_traces() {
    for (name, pinned) in LEGACY_TRACE_FNV {
        let cfg = catalog::get(name).unwrap();
        let converged = Pipeline::new()
            .scenario(cfg.clone())
            .run_converged()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            converged.iterations, 1,
            "{name}: static scenarios fix in one iteration"
        );
        let plain = faircrowd::sim::run(cfg);
        let encoded = jsonl(&converged.artifacts.trace);
        assert_eq!(
            encoded,
            jsonl(&plain),
            "{name}: converged static trace must BE the plain run"
        );
        assert_eq!(
            fnv64(encoded.as_bytes()),
            pinned,
            "{name}: trace drifted from the pre-refactor pin \
             (computed {:#018x})",
            fnv64(encoded.as_bytes())
        );
    }
}

#[test]
fn strategic_fixed_points_are_deterministic_per_seed() {
    for name in catalog::STRATEGIC_NAMES {
        let mut cfg = catalog::get(name).unwrap();
        cfg.rounds = cfg.rounds.min(12);
        let run = || {
            Pipeline::new()
                .scenario(cfg.clone())
                .run_converged()
                .unwrap_or_else(|e| panic!("{name}: {e}"))
        };
        let (a, b) = (run(), run());
        assert!(a.iterations >= 2, "{name}: strategic market must adapt");
        assert_eq!(a.iterations, b.iterations, "{name}: iteration count");
        assert_eq!(
            jsonl(&a.artifacts.trace),
            jsonl(&b.artifacts.trace),
            "{name}: same seed must give a bit-identical fixed point"
        );
        assert_eq!(a.state, b.state, "{name}: converged strategy state");
    }
}

#[test]
fn converged_trace_replays_to_an_identical_audit() {
    // Export the fixed point in the binary (.fcb) form, decode it back,
    // and replay it with no simulator in the loop: the file re-encodes
    // to the same bytes and the audit report must not move by a byte —
    // the CI smoke's in-process twin, for every strategic scenario.
    for name in catalog::STRATEGIC_NAMES {
        let mut cfg = catalog::get(name).unwrap();
        cfg.rounds = 10;
        let converged = Pipeline::new().scenario(cfg).run_converged().unwrap();
        let bytes = persist::encode_bytes(&converged.artifacts.trace, TraceFormat::Binary);
        let decoded = persist::decode_bytes(&bytes).unwrap();
        assert_eq!(
            persist::encode_bytes(&decoded, TraceFormat::Binary),
            bytes,
            "{name}: .fcb round trip must be byte-identical"
        );
        let replayed = Pipeline::new().replay_owned(decoded).unwrap();
        assert_eq!(
            render_report(&replayed.report),
            render_report(&converged.artifacts.report),
            "{name}: replayed audit of the converged trace must be bit-identical"
        );
        assert_eq!(replayed.summary, converged.artifacts.summary, "{name}");
    }
}

#[test]
fn strategy_override_matches_the_strategic_run_everywhere() {
    // `--strategy` on a static base and a strategic catalog entry are
    // the same machinery: run(), simulate() and run_converged() all
    // route through the converge loop and agree on the trace.
    let mut cfg = catalog::get("baseline").unwrap();
    cfg.rounds = 8;
    let pipeline = || {
        Pipeline::new()
            .scenario(cfg.clone())
            .strategy_name("price_undercut")
            .unwrap()
    };
    let converged = pipeline().run_converged().unwrap();
    let ran = pipeline().run().unwrap();
    let simulated = pipeline().simulate().unwrap();
    assert_eq!(
        jsonl(&converged.artifacts.trace),
        jsonl(&ran.baseline.trace)
    );
    assert_eq!(jsonl(&converged.artifacts.trace), jsonl(&simulated));
}

#[test]
fn divergence_and_unknown_strategies_are_named_errors() {
    let mut cfg = catalog::get("reform_rush").unwrap();
    cfg.rounds = 8;
    let err = Pipeline::new()
        .scenario(cfg)
        .converge_options(ConvergeOptions {
            tolerance: 1e-12,
            max_iterations: 2,
            gain: 0.5,
        })
        .run_converged()
        .unwrap_err();
    match &err {
        FaircrowdError::Diverged { message } => {
            assert!(message.contains("2 iteration"), "{message}");
            assert!(message.contains("reputation_temporal"), "{message}");
        }
        other => panic!("expected Diverged, got {other:?}"),
    }
    let err = Pipeline::new().strategy_name("galaxy_brain").unwrap_err();
    match err {
        FaircrowdError::UnknownStrategy { name, available } => {
            assert_eq!(name, "galaxy_brain");
            assert!(available.contains(&"super_turker".to_owned()));
        }
        other => panic!("expected UnknownStrategy, got {other:?}"),
    }
}
