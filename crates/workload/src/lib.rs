//! # osr-workload — composable workload scenarios and adversaries
//!
//! Everything the experiment harness feeds to schedulers:
//!
//! * [`scenario`] — the composable scenario framework: an
//!   [`ArrivalProcess`] trait (Poisson, MMPP-style bursty on/off,
//!   deterministic batch pileups, trace replay) crossed with a
//!   [`SizeModel`] trait (uniform, exponential, bounded-Pareto heavy
//!   tail, bimodal) and a [`MachineModel`] trait (identical, related
//!   speeds, iid unrelated, restricted assignment, rack-affinity sets
//!   with everywhere-ineligible jobs). The closed `Copy` spec subset
//!   ([`ArrivalSpec`] × [`SizeSpec`] × [`MachineSpec`]) is bundled into
//!   [`Scenario`] and addressable by name (`"mmpp-pareto-affinity"`,
//!   optionally with an elastic-pool churn segment:
//!   `"mmpp-pareto-affinity-churn:0.2"` — see [`ChurnSpec`]; grammar
//!   in `README.md`) — all seeded and deterministic, with capacity
//!   plans drawn from a separate seed stream so churn never perturbs
//!   the instance bytes;
//! * [`gen`] — the legacy-shaped wrappers ([`FlowWorkload`] — now an
//!   alias of [`Scenario`] — and [`EnergyWorkload`] for §4 deadline
//!   slack);
//! * [`adversarial`] — the constructions behind the paper's lower
//!   bounds: the Lemma 1 burst trap for immediate-rejection policies
//!   (`Ω(√Δ)`), the Lemma 2 adaptive deadline chain for energy
//!   minimization (`(α/9)^α`), and the long-job trap that separates
//!   rejection-capable schedulers from no-rejection greedy baselines.
//!
//! All generators produce plain [`osr_model::Instance`] values (which
//! precompute each job's `p̂` and eligibility mask at build time — see
//! `osr_model::Job::p_hat`); the adaptive adversaries interact with a
//! policy through narrow callback interfaces so this crate depends only
//! on `osr-model`.

#![warn(missing_docs)]

pub mod adversarial;
pub mod gen;
pub mod scenario;
pub mod trace;

pub use gen::{EnergyWorkload, FlowWorkload};
pub use scenario::{
    generate_energy_with, generate_with, AffinityMachines, AllAtOnceArrivals, ArrivalProcess,
    ArrivalSpec, BatchArrivals, BimodalSize, BoundedParetoSize, BurstyArrivals, ChurnSpec,
    ExponentialSize, IdenticalMachines, MachineModel, MachineSpec, MmppArrivals, PoissonArrivals,
    RelatedSpeedMachines, ReplayArrivals, RestrictedMachines, Scenario, SizeModel, SizeSpec,
    UniformSize, UnrelatedMachines, WeightSpec,
};
pub use trace::{parse_failure_trace, serve_script, ServeScript, TraceImport};
