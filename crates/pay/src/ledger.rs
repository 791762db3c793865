//! The payment ledger.
//!
//! Every monetary movement on the platform flows through an append-only
//! ledger: escrowed task rewards, payments, bonuses, and the approval
//! pipeline with its auto-approval deadline (the "time until automatic
//! approval" that worker-made scripts disclose on AMT, per §2.2). The
//! ledger is exact integer money and conserves value by construction —
//! the property test in this module is the accountant.

use faircrowd_model::ids::{RequesterId, SubmissionId, WorkerId};
use faircrowd_model::money::Credits;
use faircrowd_model::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One ledger movement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) enum LedgerEntry {
    /// A requester funded a payment to a worker for a submission.
    Payment {
        /// Paying requester.
        requester: RequesterId,
        /// Paid worker.
        worker: WorkerId,
        /// The paid submission.
        submission: SubmissionId,
        /// Amount.
        amount: Credits,
        /// When.
        time: SimTime,
    },
    /// A bonus payment outside the per-submission flow.
    Bonus {
        /// Paying requester.
        requester: RequesterId,
        /// Paid worker.
        worker: WorkerId,
        /// Amount.
        amount: Credits,
        /// When.
        time: SimTime,
    },
}

impl LedgerEntry {
    /// The amount moved.
    pub(crate) fn amount(&self) -> Credits {
        match self {
            LedgerEntry::Payment { amount, .. } | LedgerEntry::Bonus { amount, .. } => *amount,
        }
    }
}

/// A submission awaiting an approval decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PendingDecision {
    /// The submission.
    pub(crate) submission: SubmissionId,
    /// Who submitted.
    pub(crate) worker: WorkerId,
    /// Which requester owes the decision.
    pub(crate) requester: RequesterId,
    /// When the work arrived.
    pub(crate) submitted_at: SimTime,
    /// When the platform will auto-approve absent a decision.
    pub(crate) auto_approve_at: SimTime,
}

/// Append-only payment ledger with an approval pipeline.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Ledger {
    entries: Vec<LedgerEntry>,
    pending: BTreeMap<SubmissionId, PendingDecision>,
    worker_balance: BTreeMap<WorkerId, Credits>,
    requester_spend: BTreeMap<RequesterId, Credits>,
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enter a submission into the approval pipeline.
    pub fn submit(
        &mut self,
        submission: SubmissionId,
        worker: WorkerId,
        requester: RequesterId,
        submitted_at: SimTime,
        auto_approve_after: SimDuration,
    ) {
        let prior = self.pending.insert(
            submission,
            PendingDecision {
                submission,
                worker,
                requester,
                submitted_at,
                auto_approve_at: submitted_at + auto_approve_after,
            },
        );
        debug_assert!(prior.is_none(), "submission {submission} entered twice");
    }

    /// Resolve a pending decision (approve or reject), returning the
    /// pending record. Paying is a separate step so rejected work can
    /// still be compensated by enforcement middleware.
    pub fn resolve(&mut self, submission: SubmissionId) -> Option<PendingDecision> {
        self.pending.remove(&submission)
    }

    /// Record a payment for a submission.
    pub fn pay(
        &mut self,
        requester: RequesterId,
        worker: WorkerId,
        submission: SubmissionId,
        amount: Credits,
        time: SimTime,
    ) {
        debug_assert!(!amount.is_zero() || amount == Credits::ZERO);
        assert!(
            amount.millicents() >= 0,
            "payments cannot be negative: {amount}"
        );
        if amount.is_zero() {
            return; // zero payments carry no information and no money
        }
        self.entries.push(LedgerEntry::Payment {
            requester,
            worker,
            submission,
            amount,
            time,
        });
        *self.worker_balance.entry(worker).or_insert(Credits::ZERO) += amount;
        *self
            .requester_spend
            .entry(requester)
            .or_insert(Credits::ZERO) += amount;
    }

    /// Record a bonus payment.
    pub fn pay_bonus(
        &mut self,
        requester: RequesterId,
        worker: WorkerId,
        amount: Credits,
        time: SimTime,
    ) {
        assert!(amount.millicents() >= 0, "bonuses cannot be negative");
        if amount.is_zero() {
            return;
        }
        self.entries.push(LedgerEntry::Bonus {
            requester,
            worker,
            amount,
            time,
        });
        *self.worker_balance.entry(worker).or_insert(Credits::ZERO) += amount;
        *self
            .requester_spend
            .entry(requester)
            .or_insert(Credits::ZERO) += amount;
    }

    /// Conservation invariant: total worker earnings equal total requester
    /// spend equal the sum of entries. A violation means the ledger code
    /// itself is broken — callers may assert on this after any batch.
    pub fn conserves(&self) -> bool {
        let entry_total: Credits = self.entries.iter().map(|e| e.amount()).sum();
        let worker_total: Credits = self.worker_balance.values().copied().sum();
        let requester_total: Credits = self.requester_spend.values().copied().sum();
        entry_total == worker_total && worker_total == requester_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(i: u32) -> WorkerId {
        WorkerId::new(i)
    }
    fn r(i: u32) -> RequesterId {
        RequesterId::new(i)
    }
    fn s(i: u32) -> SubmissionId {
        SubmissionId::new(i)
    }

    /// A worker's total earnings.
    pub(super) fn balance(l: &Ledger, worker: WorkerId) -> Credits {
        l.worker_balance
            .get(&worker)
            .copied()
            .unwrap_or(Credits::ZERO)
    }

    #[test]
    fn submit_resolve_pipeline() {
        let mut l = Ledger::new();
        l.submit(
            s(0),
            w(0),
            r(0),
            SimTime::from_secs(100),
            SimDuration::from_hours(1),
        );
        assert_eq!(l.pending.len(), 1);
        let p = l.resolve(s(0)).unwrap();
        assert_eq!(p.worker, w(0));
        assert!(l.resolve(s(0)).is_none(), "already resolved");
        assert!(l.pending.is_empty());
    }

    #[test]
    fn payments_update_balances() {
        let mut l = Ledger::new();
        l.pay(r(0), w(0), s(0), Credits::from_cents(10), SimTime::ZERO);
        l.pay(r(0), w(1), s(1), Credits::from_cents(5), SimTime::ZERO);
        l.pay_bonus(r(1), w(0), Credits::from_cents(3), SimTime::ZERO);
        assert_eq!(balance(&l, w(0)), Credits::from_cents(13));
        assert_eq!(balance(&l, w(1)), Credits::from_cents(5));
        assert_eq!(l.requester_spend[&r(0)], Credits::from_cents(15));
        assert_eq!(l.requester_spend[&r(1)], Credits::from_cents(3));
        assert_eq!(l.entries.len(), 3);
        assert!(l.conserves());
    }

    #[test]
    fn zero_payments_are_dropped() {
        let mut l = Ledger::new();
        l.pay(r(0), w(0), s(0), Credits::ZERO, SimTime::ZERO);
        l.pay_bonus(r(0), w(0), Credits::ZERO, SimTime::ZERO);
        assert!(l.entries.is_empty());
        assert_eq!(balance(&l, w(0)), Credits::ZERO);
        assert!(l.conserves());
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_payment_rejected() {
        let mut l = Ledger::new();
        l.pay(r(0), w(0), s(0), Credits::from_cents(-5), SimTime::ZERO);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Conservation holds for any sequence of payments/bonuses.
        #[test]
        fn ledger_always_conserves(
            ops in proptest::collection::vec(
                (0u32..5, 0u32..5, 0u32..100, 0i64..10_000, proptest::bool::ANY),
                0..200,
            )
        ) {
            let mut l = Ledger::new();
            for (req, wkr, sub, amount, is_bonus) in ops {
                let amount = Credits::from_millicents(amount);
                if is_bonus {
                    l.pay_bonus(RequesterId::new(req), WorkerId::new(wkr), amount, SimTime::ZERO);
                } else {
                    l.pay(
                        RequesterId::new(req),
                        WorkerId::new(wkr),
                        SubmissionId::new(sub),
                        amount,
                        SimTime::ZERO,
                    );
                }
                prop_assert!(l.conserves());
            }
        }

        /// Worker balances are exactly the sum of their own entries.
        #[test]
        fn balances_match_entry_sums(
            ops in proptest::collection::vec((0u32..4, 1i64..5_000), 1..100)
        ) {
            let mut l = Ledger::new();
            for (i, (wkr, amount)) in ops.iter().enumerate() {
                l.pay(
                    RequesterId::new(0),
                    WorkerId::new(*wkr),
                    SubmissionId::new(i as u32),
                    Credits::from_millicents(*amount),
                    SimTime::ZERO,
                );
            }
            for wkr in 0u32..4 {
                let expect: i64 = ops
                    .iter()
                    .filter(|(w, _)| *w == wkr)
                    .map(|(_, a)| *a)
                    .sum();
                prop_assert_eq!(tests::balance(&l, WorkerId::new(wkr)).millicents(), expect);
            }
        }
    }
}
