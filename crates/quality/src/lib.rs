//! # faircrowd-quality
//!
//! Truth inference and malicious-worker detection.
//!
//! Axiom 4 of the paper states that *"requesters must be able to detect
//! workers behaving maliciously during task completion"*, motivated by
//! Vuurens et al.'s observation that nearly 40% of the answers they
//! received from AMT were from malicious users (§2.1). This crate is the
//! substrate behind that axiom:
//!
//! * [`answers`] — the answer matrix shared by every algorithm;
//! * [`aggregate`] — the string-keyed aggregator registry (`majority`,
//!   `weighted_majority`, `parity_constrained`) the sweep and frontier
//!   engines select consensus methods from;
//! * [`majority`] — (weighted) majority-vote aggregation;
//! * [`dawid_skene`] — EM over worker confusion matrices (Dawid–Skene
//!   style truth inference), the classic quality-estimation algorithm;
//! * [`kos`] — Karger–Oh–Shah iterative message-passing decoding for
//!   binary tasks (the inference half of the budget-optimal scheme the
//!   paper cites as \[11\]);
//! * [`gold`] — gold/honeypot question screening;
//! * [`spam`] — Vuurens-style agreement- and behaviour-based spam scoring
//!   with the spammer taxonomy used by the simulator;
//! * [`metrics`] — precision/recall/F1 and label accuracy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod answers;
pub mod dawid_skene;
pub mod gold;
pub mod kos;
pub mod majority;
pub mod metrics;
pub mod spam;

pub use aggregate::{parity_constrained_vote, parity_gap, AggregateContext, AggregatorChoice};
pub use answers::{Answer, AnswerSet};
pub use dawid_skene::{DawidSkene, DawidSkeneResult};
pub use gold::GoldSet;
pub use majority::{majority_vote, weighted_majority_vote};
pub use spam::{SpamDetector, SpamScore, WorkerArchetype};
