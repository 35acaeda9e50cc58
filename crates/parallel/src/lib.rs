//! Parallel substrate and parallel allocation protocols.
//!
//! Two distinct kinds of "parallel" live here, and they must not be
//! confused:
//!
//! 1. **Parallel execution of independent simulations** ([`executor`],
//!    [`replicate`]). The paper's Figure 3 averages over 100 runs; the
//!    executor fans replicates out over OS threads while the seed
//!    discipline of `bib-core::run` keeps every replicate's stream
//!    independent of scheduling, so results are bit-identical whether run
//!    on 1 thread or 64.
//! 2. **Parallel allocation *protocols*** ([`protocols`]): round-based
//!    processes in which all unplaced balls act simultaneously — the
//!    Adler et al. collision protocol and a Lenzen–Wattenhofer-style
//!    bounded-load protocol, the related work the paper's Table 1
//!    positions against. Since the scenario-layer refactor these are
//!    ordinary `bib_core` [`Protocol`](bib_core::protocol::Protocol)s
//!    returning the unified outcome record (rounds and messages live in
//!    `Outcome::scenario`), so [`replicate_outcomes`] replicates them
//!    exactly like the sequential schemes. Every run of one of them is
//!    a single-threaded process: threads only ever spread independent
//!    replicates, never the balls of one run, so `--threads` cannot
//!    change which stochastic process runs.
//!
//! The executor is deliberately small (scoped threads + an atomic work
//! index + a `std::sync::mpsc` channel) rather than a dependency on a
//! full work-stealing runtime: the workload is embarrassingly parallel
//! batches of equal-cost tasks, which self-scheduling handles optimally.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod executor;
pub mod protocols;
pub mod replicate;

pub use executor::{available_threads, par_map};
pub use replicate::{replicate_outcomes, ReplicateSpec};
