//! Shared machinery of the **round-occupancy engine** — the parallel
//! family's `Engine::Histogram` path.
//!
//! The faithful round protocols pay `O(contacts)` per round: every
//! unplaced ball draws its contact bins one at a time and the per-bin
//! request structure is materialized. But the protocols are *symmetric*:
//! bins with equal load are exchangeable, unplaced balls carry no state
//! (collision, bounded-load) or only state the engine re-draws
//! (parallel-greedy's committed candidates), so a round is determined in
//! distribution by the **multiplicity profile** — the number of bins
//! receiving exactly `k` requests — plus how those bins spread over the
//! occupancy classes. Both are drawn in `O(max multiplicity + #classes)`
//! with the primitives `bib-core::histogram` exposes
//! ([`occupancy_profile`], [`block_composition`], [`hypergeometric`],
//! [`distinct_hit_count`]):
//! per-round cost becomes independent of `n` and of the contact count.
//! On the no-observer path even the final identity reconstruction is
//! *skipped*: the outcome is a lazy [`bib_core::loads::Loads`] carrying
//! the histogram plus a reconstruction seed, so no `O(n)` pass runs
//! unless a caller later demands per-bin loads.
//!
//! What each protocol's engine preserves is documented on its
//! `allocate`; the shared contract: *rounds* and *messages* are
//! accumulated by the same counting rules as the faithful path, final
//! loads — if demanded — are reconstructed through a uniform random
//! assignment (the faithful law is exchangeable over bin identities),
//! stage traces fire once per round through one up-front permutation,
//! and `Observer::on_ball` never fires (it never fires for round
//! protocols anyway — balls act simultaneously).
//!
//! # Engine resolution
//!
//! The parallel family has exactly two concrete paths, so the engine
//! request in `RunConfig` resolves by a fixed documented rule
//! ([`resolve_round_engine`]): `Histogram` runs the round-occupancy
//! engine, `Auto` resolves through [`Engine::auto_scheduled`], and
//! every other request — `LevelBatched` included — runs the faithful
//! per-contact rounds. `LevelBatched` promises exact final loads, and
//! the faithful rounds are the family's only path that keeps that
//! promise: the round-occupancy engine's large rounds are exact only up
//! to the moment-matched regimes of `split_binomial` (variance above 4)
//! and [`hypergeometric`] (above 8 draws), plus the approximations each
//! protocol documents on its `allocate`. No request is silently
//! ignored.
//!
//! [`occupancy_profile`]: bib_core::histogram::occupancy_profile
//! [`block_composition`]: bib_core::histogram::block_composition
//! [`hypergeometric`]: bib_core::histogram::hypergeometric
//! [`distinct_hit_count`]: bib_core::histogram::distinct_hit_count
//! [`OccupancyHistogram::shuffled_loads`]: bib_core::histogram::OccupancyHistogram::shuffled_loads
//! [`Engine::auto_scheduled`]: bib_core::protocol::Engine::auto_scheduled

use bib_core::histogram::{materialize, random_permutation, OccupancyHistogram};
use bib_core::loads::Loads;
use bib_core::protocol::{Engine, Observer};
use bib_rng::Rng64;

/// Resolves the engine request for a round protocol: the family's fixed
/// two-path rule (see the module docs). Returns `Faithful` or
/// `Histogram`.
pub(crate) fn resolve_round_engine(engine: Engine, n: usize, m: u64) -> Engine {
    match engine {
        Engine::Auto => Engine::auto_scheduled(n, m),
        Engine::Histogram => Engine::Histogram,
        Engine::Faithful | Engine::LevelBatched => Engine::Faithful,
    }
}

/// Snapshots the occupancy classes with load below `below` (`None`:
/// every class) into `classes`, ascending, and returns their bins: the
/// pool from which a round spreads its bin groups without replacement
/// ([`block_composition`], which needs exactly this total).
///
/// [`block_composition`]: bib_core::histogram::block_composition
pub(crate) fn snapshot_classes(
    hist: &OccupancyHistogram,
    below: Option<u32>,
    classes: &mut Vec<(u32, u64)>,
) -> u64 {
    classes.clear();
    classes.extend(
        hist.levels()
            .take_while(|&(l, _)| below.is_none_or(|t| l < t)),
    );
    classes.iter().map(|&(_, c)| c).sum()
}

/// Stage-trace plumbing for the round engines: drivers that run with a
/// trace-consuming observer draw one permutation up front and
/// materialize the histogram through it at every round end, so the
/// synthetic bin identities are consistent across the trace and the
/// final loads. Trace-free runs skip the permutation entirely and
/// reconstruct once at the end with the cache-friendly sequential
/// assignment.
pub(crate) struct RoundTrace {
    perm: Option<Vec<u32>>,
}

impl RoundTrace {
    /// Draws the permutation iff the observer consumes stage ends.
    pub(crate) fn new<R, O>(n: usize, rng: &mut R, obs: &O) -> Self
    where
        R: Rng64 + ?Sized,
        O: Observer + ?Sized,
    {
        Self {
            perm: obs.wants_stage_ends().then(|| random_permutation(n, rng)),
        }
    }

    /// Reports the end of round `round` with `placed` balls down.
    pub(crate) fn stage_end<O: Observer + ?Sized>(
        &self,
        obs: &mut O,
        round: u32,
        hist: &OccupancyHistogram,
        placed: u64,
    ) {
        if let Some(perm) = &self.perm {
            obs.on_stage_end(round as u64, &materialize(hist, perm), placed);
        }
    }

    /// Final loads: through the trace permutation when one exists (so
    /// the last trace frame and the outcome agree — dense-born), else a
    /// *virtual* [`Loads`]: the histogram plus one reconstruction seed,
    /// deferring the `O(n)` assignment (sharded over threads at large
    /// `n`, see [`bib_core::histogram::sharded_shuffled_loads`]) until
    /// someone actually asks for per-bin loads.
    pub(crate) fn finish<R: Rng64 + ?Sized>(
        &self,
        hist: &OccupancyHistogram,
        rng: &mut R,
    ) -> Loads {
        match &self.perm {
            Some(perm) => Loads::from_vec(materialize(hist, perm)),
            None => Loads::from_histogram(hist.clone(), rng.next_u64()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bib_core::histogram::block_composition;
    use bib_rng::SplitMix64;

    #[test]
    fn resolve_covers_every_request() {
        // Aliases are fixed and documented; Auto resolves by size.
        assert_eq!(
            resolve_round_engine(Engine::Faithful, 8, 8),
            Engine::Faithful
        );
        assert_eq!(
            resolve_round_engine(Engine::Histogram, 8, 8),
            Engine::Histogram
        );
        assert_eq!(
            resolve_round_engine(Engine::LevelBatched, 8, 8),
            Engine::Faithful
        );
        assert_eq!(resolve_round_engine(Engine::Auto, 8, 8), Engine::Faithful);
        assert_eq!(
            resolve_round_engine(Engine::Auto, 1 << 20, 1 << 20),
            Engine::Histogram
        );
    }

    #[test]
    fn assign_conserves_bins_across_paths() {
        // The engines' group assignment: groups below and above the
        // exact hypergeometric cutoff, spread over a multi-level pool.
        for group in [1u64, 5, 8, 9, 100, 900] {
            let mut hist = OccupancyHistogram::new(1000);
            hist.promote(0, 400, 1);
            hist.promote(0, 100, 2);
            let mut classes = Vec::new();
            let pool = snapshot_classes(&hist, None, &mut classes);
            let mut rng = SplitMix64::new(group);
            let mut seen = 0u64;
            block_composition(&mut classes, pool, group, &mut rng, |_, _, c| seen += c);
            assert_eq!(seen, group, "group {group}");
            assert_eq!(classes.iter().map(|&(_, c)| c).sum::<u64>(), 1000 - group);
        }
    }

    #[test]
    fn snapshot_respects_the_open_bound() {
        let mut hist = OccupancyHistogram::new(10);
        hist.promote(0, 4, 1);
        hist.promote(0, 2, 3);
        let mut classes = Vec::new();
        assert_eq!(snapshot_classes(&hist, Some(3), &mut classes), 8); // loads 0 and 1 only
        assert_eq!(classes, [(0, 4), (1, 4)]);
        assert_eq!(snapshot_classes(&hist, None, &mut classes), 10);
    }

    #[test]
    fn assign_is_uniform_over_the_pool() {
        // Two equal classes: a single assigned bin lands in either with
        // probability 1/2.
        let mut rng = SplitMix64::new(7);
        let mut low = 0u64;
        for _ in 0..4000 {
            let mut hist = OccupancyHistogram::new(100);
            hist.promote(0, 50, 1);
            let mut classes = Vec::new();
            let pool = snapshot_classes(&hist, None, &mut classes);
            block_composition(&mut classes, pool, 1, &mut rng, |_, l, c| {
                if l == 0 {
                    low += c;
                }
            });
        }
        assert!((1700..=2300).contains(&low), "low-class picks: {low}");
    }
}
