//! Core library of the balls-into-bins reproduction: the `adaptive` and
//! `threshold` protocols of Berenbrink, Khodamoradi, Sauerwald & Stauffer
//! (SPAA 2013), every baseline they are compared against, and the load
//! structures, potential functions and run harness underneath.
//!
//! # The paper in one paragraph
//!
//! `m` balls are placed into `n` bins by repeated uniform sampling. The
//! **threshold** protocol (Czumaj–Stemann) re-samples until it finds a bin
//! with load `< m/n + 1`; the paper's new **adaptive** protocol re-samples
//! until the load is `< i/n + 1` where `i` is the ball's index, so the
//! number of balls need not be known in advance. Both achieve the almost
//! optimal maximum load `⌈m/n⌉ + 1` with only `O(m)` total samples
//! (Theorems 3.1 and 4.1), and `adaptive` additionally keeps the load
//! vector *smooth*: max−min gap `O(log n)` (Corollary 3.5) versus
//! polynomial in `n` for `threshold` at `m = n²` (Lemma 4.2).
//!
//! # Crate layout
//!
//! * [`bins`] — plain load vector and histogram.
//! * [`partitioned`] — loads plus per-level counts, with O(1) placement
//!   and O(1) "how many bins are below a threshold" queries.
//! * [`sampler`] — the faithful per-ball retry loop (Figures 1 and 2),
//!   the one per-ball engine.
//! * [`level_batched`] — the second engine: a run whose threshold never
//!   changes placed with binomial level splits, exact on final loads;
//!   every other run under its name is the faithful loop.
//! * [`histogram`] — the third engine: the bin dimension collapsed to
//!   the occupancy histogram `counts[load]`, rounds costing
//!   `O(#distinct loads)` independent of `n`; also accelerates
//!   `one-choice` and `greedy[d]` through their CDF landing laws.
//! * [`potential`] — the quadratic Ψ and exponential Φ potentials and gap
//!   metrics from Section 2.
//! * [`protocol`] — the [`protocol::Protocol`] trait, run configuration,
//!   outcome record and observers.
//! * [`protocols`] — `adaptive`, `threshold` and all Table 1 baselines:
//!   one-choice, `greedy[d]`, `left[d]`, `(d,k)`-memory.
//! * [`run`] — seeding and replication helpers.
//!
//! # Quickstart
//!
//! ```
//! use bib_core::prelude::*;
//!
//! let cfg = RunConfig::new(1_000, 10_000);      // n bins, m balls
//! let outcome = run_protocol(&Adaptive::paper(), &cfg, 42);
//! assert_eq!(outcome.total_balls(), 10_000);
//! // The defining guarantee: max load ≤ ⌈m/n⌉ + 1.
//! assert!(outcome.max_load() as u64 <= 10 + 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batched;
pub mod bins;
pub mod choices;
pub mod error;
pub mod faults;
pub mod histogram;
pub mod level_batched;
pub mod loads;
pub mod partitioned;
pub mod poissonized;
pub mod potential;
pub mod protocol;
pub mod protocols;
pub mod run;
pub mod sampler;
pub mod scenario;
pub mod stream;
pub mod weighted;

/// Convenient glob-import surface for examples and downstream crates.
pub mod prelude {
    pub use crate::batched::BatchedAdaptive;
    pub use crate::bins::LoadVector;
    pub use crate::error::ProtocolError;
    pub use crate::faults::{FaultEvent, FaultKind, FaultPlan};
    pub use crate::histogram::{HistogramSchedule, OccupancyHistogram};
    pub use crate::level_batched::ThresholdSchedule;
    pub use crate::loads::Loads;
    pub use crate::partitioned::PartitionedBins;
    pub use crate::potential::{exponential_potential, gap, quadratic_potential};
    pub use crate::protocol::{
        DynProtocol, Engine, NullObserver, Observer, Outcome, Protocol, RunConfig,
    };
    pub use crate::protocols::{
        Adaptive, GreedyD, LeftD, Memory, OneChoice, OnePlusBeta, Threshold, ThresholdSlack,
        TieBreak,
    };
    pub use crate::run::{run_protocol, run_replicates};
    pub use crate::scenario::{scenario_protocol, Family, Scenario, WeightedSchedule, Workload};
    pub use crate::stream::{
        serve, LatencyTail, RetryPolicy, StreamProtocol, StreamReport, StreamSpec, TickStats,
    };
    pub use crate::weighted::{WeightedAdaptive, WeightedOneChoice};
}
