//! `balls-into-bins` — a reproduction of *Balls-into-Bins with Nearly
//! Optimal Load Distribution* (Berenbrink, Khodamoradi, Sauerwald &
//! Stauffer, SPAA 2013).
//!
//! This facade crate re-exports the workspace's public surface:
//!
//! * [`core`] — the `adaptive` and `threshold` protocols, all baselines,
//!   load structures, potentials and the run harness;
//! * [`rng`] — deterministic PRNGs, seeding and samplers;
//! * [`analysis`] — exact distributions, concentration bounds, the
//!   paper's numeric constants and summary statistics;
//! * [`parallel`] — parallel replication and round-based parallel
//!   protocols;
//! * [`reloc`] — reallocation schemes (CRS self-balancing, cuckoo
//!   hashing).
//!
//! See the `examples/` directory for runnable walkthroughs and the
//! `bib-bench` crate for the per-table/figure experiment binaries.
//!
//! # Example
//!
//! ```
//! use balls_into_bins::core::prelude::*;
//!
//! // Allocate one million balls into ten thousand bins without knowing
//! // m in advance, with the paper's faithful retry loop.
//! let cfg = RunConfig::new(10_000, 1_000_000).with_engine(Engine::Faithful);
//! let out = run_protocol(&Adaptive::paper(), &cfg, 7);
//! assert!(out.max_load() as u64 <= cfg.max_load_bound());
//! assert!(out.time_ratio() < 3.0); // Theorem 3.1: O(m) samples
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bib_analysis as analysis;
pub use bib_core as core;
pub use bib_parallel as parallel;
pub use bib_reloc as reloc;
pub use bib_rng as rng;
