//! # faircrowd-assign
//!
//! Task-assignment policies and the matching machinery beneath them.
//!
//! §3.1.1 of the paper frames the fairness question: self-appointment
//! "could be characterised as fair because workers have access to the same
//! set of tasks", while optimising algorithms "can be discriminatory" —
//! requester-centric assignment maximises requester gain at workers'
//! expense, worker-centric assignment favours workers. §4.2 sets the
//! agenda this crate serves: *review existing algorithms for task
//! assignment … to assess their discriminatory power*.
//!
//! Every policy implements [`AssignmentPolicy`] and returns both an
//! assignment and the **visibility sets** (which tasks each worker was
//! shown) — the object Axioms 1–2 quantify over. A visibility set is a
//! bit row of task ids ([`faircrowd_model::arena::IdSet`]), and
//! qualification is computed once per round into the same rows
//! ([`Qualification`]), shared by a policy and the wrapper around it.
//!
//! Policies:
//! * [`SelfSelection`] — post-and-browse (the AMT/CrowdFlower default);
//! * [`RoundRobin`] — equitable rotation;
//! * [`RequesterCentric`] — greedy requester-utility maximisation;
//! * [`OnlineMatching`] — Ho–Vaughan-style online assignment (cited as \[8\]);
//! * [`WorkerCentric`] — optimal matching on worker preference;
//! * [`KosAllocation`] — Karger–Oh–Shah (l,r)-regular allocation (cited as \[11\]);
//! * [`BudgetDiverse`] — budget- and diversity-constrained selection
//!   over declared worker groups (Goel–Faltings);
//! * [`FairDelivery`] — fair-allocation utility balancing (Basık et al.);
//! * [`ExposureParity`] and [`ExposureFloor`] — enforcement wrappers
//!   that repair a base policy's Axiom-1 violations.
//!
//! The [`registry`] maps string names (`"round_robin"`, `"kos"`, …) to
//! policy instances so CLIs, benches and sweeps select any of the ten
//! policies by name.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod budget_diverse;
pub(crate) mod fair;
pub(crate) mod fair_delivery;
pub(crate) mod kos;
pub(crate) mod mcmf;
pub(crate) mod online_matching;
pub mod policy;
pub mod registry;
pub(crate) mod requester_centric;
pub(crate) mod round_robin;
pub(crate) mod self_selection;
pub(crate) mod worker_centric;

pub use budget_diverse::{select_budget_diverse, BudgetDiverse, Candidate};
pub use fair::{ExposureFloor, ExposureParity};
pub use fair_delivery::FairDelivery;
pub use kos::KosAllocation;
pub use online_matching::OnlineMatching;
pub use policy::{
    AssignInput, AssignmentOutcome, AssignmentPolicy, Qualification, TaskView, WorkerView,
};
pub use requester_centric::RequesterCentric;
pub use round_robin::RoundRobin;
pub use self_selection::SelfSelection;
pub use worker_centric::WorkerCentric;
