//! Soundness of repair normalisation: a policy and its
//! [`PolicyChoice::normalized`] form simulate byte-identical traces.
//!
//! The pipeline simulates the normalised policy of every config, and the
//! sweep lets a cell whose repair normalises away share its base cell's
//! run, so each rule must hold wherever it is applied. This suite
//! stacks the exposure wrappers over every registry policy and every
//! catalog scenario's own policy, and for every stack that normalises
//! to something else simulates both forms (strategic scenarios are
//! converged) and compares their JSONL bytes. A rule applied where it
//! does not hold — say `kos` declared open — fails here.

use faircrowd::core::persist::{self, TraceFormat};
use faircrowd::prelude::*;
use faircrowd::sim::{catalog, ConvergeOptions, StrategyChoice};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Rounds are capped so the whole catalog fits a debug test run.
const ROUNDS: u32 = 12;

/// Stacks of wrappers, innermost first, as the `enforce` axis spells
/// them (`None` is `parity`, `Some(n)` is `floor:n`): each rule applies
/// to at least one of them over every base it covers, and the last one
/// (a floor over a lower floor) must not collapse. The empty stack
/// catches a scenario whose own policy normalises.
const STACKS: [&[Option<usize>]; 7] = [
    &[],
    &[None],
    &[Some(8)],
    &[None, Some(8)],
    &[None, None],
    &[Some(8), Some(4)],
    &[Some(4), Some(8)],
];

/// Strategic scenarios converge every form, so they take the single
/// wrappers only: over the registry's own `parity` and `floor` these
/// still apply every rule, and composition is covered by the static
/// scenarios.
const STRATEGIC_STACKS: usize = 3;

fn wrap(mut policy: PolicyChoice, stack: &[Option<usize>]) -> PolicyChoice {
    for wrapper in stack {
        policy = match wrapper {
            None => PolicyChoice::ParityOver(Box::new(policy)),
            Some(min) => PolicyChoice::FloorOver(Box::new(policy), *min),
        };
    }
    policy
}

/// The JSONL bytes of `config`'s trace, converged when strategic.
fn trace_bytes(config: ScenarioConfig) -> String {
    let trace = if config.strategy == StrategyChoice::Static {
        faircrowd::sim::run(config)
    } else {
        faircrowd::sim::converge::run(config, &ConvergeOptions::default())
            .expect("catalog scenarios converge")
            .trace
    };
    persist::encode(&trace, TraceFormat::Jsonl)
}

/// Every distinct staged policy of one scenario that normalises to
/// something else, grouped by the normalised policy.
fn normalised_cells(config: &ScenarioConfig) -> Vec<(PolicyChoice, Vec<PolicyChoice>)> {
    let stacks = match config.strategy {
        StrategyChoice::Static => &STACKS[..],
        _ => &STACKS[..STRATEGIC_STACKS],
    };
    let mut bases: Vec<PolicyChoice> = faircrowd::assign::registry::NAMES
        .iter()
        .map(|name| PolicyChoice::by_name(name).unwrap())
        .collect();
    if !bases.contains(&config.policy) {
        bases.push(config.policy.clone());
    }
    let mut cells: Vec<(PolicyChoice, Vec<PolicyChoice>)> = Vec::new();
    for base in &bases {
        for stack in stacks {
            let staged = wrap(base.clone(), stack);
            let normalized = staged.normalized();
            if normalized == staged {
                continue;
            }
            match cells.iter_mut().find(|(market, _)| *market == normalized) {
                Some((_, staged_forms)) if staged_forms.contains(&staged) => {}
                Some((_, staged_forms)) => staged_forms.push(staged),
                None => cells.push((normalized, vec![staged])),
            }
        }
    }
    cells
}

/// Simulate every normalised cell of scenario `name` both ways: the
/// number of staged forms compared, and a line per one that drifted.
fn compare_scenario(name: &str) -> (usize, Vec<String>) {
    let mut config = catalog::get(name).unwrap();
    config.set_rounds(config.rounds.min(ROUNDS));
    let (mut compared, mut drifted) = (0, Vec::new());
    for (market, staged_forms) in normalised_cells(&config) {
        let want = trace_bytes(ScenarioConfig {
            policy: market.clone(),
            ..config.clone()
        });
        for staged in staged_forms {
            compared += 1;
            let got = trace_bytes(ScenarioConfig {
                policy: staged.clone(),
                ..config.clone()
            });
            if got != want {
                drifted.push(format!(
                    "{name}: {} simulates differently from {}",
                    staged.label(),
                    market.label()
                ));
            }
        }
    }
    (compared, drifted)
}

#[test]
fn normalised_policies_simulate_byte_identical_traces() {
    // Scenarios run on two threads: the strategic ones converge every
    // form, which is most of the suite's time.
    let next = AtomicUsize::new(0);
    let results = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                while let Some(name) = catalog::NAMES.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let result = compare_scenario(name);
                    results.lock().unwrap().push(result);
                }
            });
        }
    });
    let results = results.into_inner().unwrap();
    let compared: usize = results.iter().map(|(n, _)| n).sum();
    let drifted: Vec<String> = results.into_iter().flat_map(|(_, d)| d).collect();
    assert!(
        drifted.is_empty(),
        "normalisation changed {} of {compared} trace(s):\n{}",
        drifted.len(),
        drifted.join("\n")
    );
    // Per static scenario: 4 open bases × 6 wrapped stacks; parity over
    // parity and floor:4 over floor:8 over each of the 4 need-to-know
    // bases; and 3 stacks over `parity`, 4 over `floor`, that are not
    // staged already (parity over `parity` is parity twice over
    // requester-centric). `transparent_utopia`'s own parity over
    // self-selection adds 4 more stacks. Per strategic scenario: 4 open
    // bases × 2, and one stack each over `parity` and `floor`.
    let strategic = catalog::STRATEGIC_NAMES.len();
    let statics = catalog::NAMES.len() - strategic;
    assert_eq!(
        compared,
        statics * (4 * 6 + 4 * 2 + 3 + 4) + 4 + strategic * (4 * 2 + 2)
    );
}

#[test]
fn wrappers_over_need_to_know_policies_are_kept() {
    for name in [
        "requester_centric",
        "online_greedy",
        "kos",
        "budget_diverse",
    ] {
        let base = PolicyChoice::by_name(name).unwrap();
        for stack in [[None], [Some(8)]] {
            let staged = wrap(base.clone(), &stack);
            assert_eq!(staged.normalized(), staged, "{}", staged.label());
        }
    }
    // Parity over parity and the higher floor collapse; a lower inner
    // floor does not.
    let rc = || Box::new(PolicyChoice::RequesterCentric);
    let floor = |min| PolicyChoice::FloorOver(rc(), min);
    assert_eq!(
        PolicyChoice::FloorOver(Box::new(floor(8)), 4).normalized(),
        floor(8)
    );
    assert_eq!(
        PolicyChoice::FloorOver(Box::new(floor(4)), 8).normalized(),
        PolicyChoice::FloorOver(Box::new(floor(4)), 8)
    );
    assert_eq!(
        PolicyChoice::ParityOver(Box::new(PolicyChoice::ParityOver(rc()))).normalized(),
        PolicyChoice::ParityOver(rc())
    );
}
