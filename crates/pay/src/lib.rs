//! # faircrowd-pay
//!
//! Worker compensation: the substrate behind **Axiom 3** ("given two
//! distinct workers who contributed to the same task, if their
//! contributions are similar, they should receive the same reward") and
//! the discriminatory-compensation scenarios of §3.1.1: wrongful
//! rejection, reneged bonuses, and unequal pay for equal work in
//! collaborative tasks.
//!
//! * [`scheme`] — pluggable compensation schemes: fixed price,
//!   quality-based pricing (after Wang–Ipeirotis–Provost, cited as \[21\]),
//!   bonus schemes that may be honoured or reneged, and collaborative
//!   equal/proportional splits;
//! * [`wage`] — effective-hourly-wage computation and wage-inequality
//!   statistics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scheme;
pub mod wage;

pub use scheme::{
    split_equal, split_proportional, BonusPolicy, CompensationScheme, FixedPrice, PayContext,
    QualityBased,
};
pub use wage::{hourly_wage, WageStats};
