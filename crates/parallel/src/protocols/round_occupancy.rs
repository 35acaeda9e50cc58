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
//! ([`occupancy_profile`], [`hypergeometric`], [`distinct_hit_count`]):
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
//! promise (the round-occupancy engine's large rounds draw a
//! moment-matched multiplicity profile). No request is silently ignored.
//!
//! [`occupancy_profile`]: bib_core::histogram::occupancy_profile
//! [`hypergeometric`]: bib_core::histogram::hypergeometric
//! [`distinct_hit_count`]: bib_core::histogram::distinct_hit_count
//! [`OccupancyHistogram::shuffled_loads`]: bib_core::histogram::OccupancyHistogram::shuffled_loads
//! [`Engine::auto_scheduled`]: bib_core::protocol::Engine::auto_scheduled

use bib_core::histogram::{block_composition, materialize, random_permutation, OccupancyHistogram};
use bib_core::loads::Loads;
use bib_core::protocol::{Engine, Observer};
use bib_rng::{Rng64, RngExt};

/// Groups of at most this many bins are assigned to their occupancy
/// classes one exact uniform pick at a time; larger groups run the
/// hypergeometric chain (mirrors the sequential engine's
/// `PER_HIT_SPLIT`).
const EXACT_GROUP: u64 = 8;

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

/// A frozen snapshot of the occupancy classes at round start, consumed
/// as groups of bins are assigned to classes *without replacement*
/// (different multiplicity groups of one round are disjoint bin sets,
/// so each group's class split conditions on everything already
/// assigned).
pub(crate) struct LevelSlots {
    /// `(load, unassigned bins)` in ascending load order.
    levels: Vec<(u32, u64)>,
    /// Total unassigned bins across all levels.
    total: u64,
}

impl LevelSlots {
    /// Snapshots the classes with load `< below` (`None` = every
    /// class), reusing `buf` for the level storage.
    pub(crate) fn snapshot(
        hist: &OccupancyHistogram,
        below: Option<u32>,
        mut buf: Vec<(u32, u64)>,
    ) -> Self {
        buf.clear();
        let mut total = 0u64;
        for (l, c) in hist.levels() {
            if below.is_some_and(|t| l >= t) {
                break; // levels are ascending
            }
            buf.push((l, c));
            total += c;
        }
        Self { levels: buf, total }
    }

    /// Bins not yet assigned this round.
    pub(crate) fn remaining(&self) -> u64 {
        self.total
    }

    /// Recovers the level buffer for reuse in the next round.
    pub(crate) fn into_buf(self) -> Vec<(u32, u64)> {
        self.levels
    }

    /// Assigns `group` bins to classes without replacement, calling
    /// `f(load, count)` once per receiving class. Exact sequential
    /// picks for small groups; a hypergeometric chain (exact mean and
    /// finite-population variance, clamped to the feasible support so
    /// the chain surely completes) for large ones.
    pub(crate) fn assign<R, F>(&mut self, group: u64, rng: &mut R, mut f: F)
    where
        R: Rng64 + ?Sized,
        F: FnMut(u32, u64),
    {
        debug_assert!(group <= self.total, "assign: group exceeds the pool");
        if group == 0 {
            return;
        }
        let live = self.levels.iter().filter(|&&(_, c)| c > 0).count();
        if live == 1 {
            let (l, c) = self
                .levels
                .iter_mut()
                .find(|&&mut (_, c)| c > 0)
                .expect("live == 1");
            f(*l, group);
            *c -= group;
            self.total -= group;
            return;
        }
        if group <= EXACT_GROUP {
            for _ in 0..group {
                let mut r = rng.range_u64(self.total);
                for &mut (l, ref mut c) in self.levels.iter_mut() {
                    if r < *c {
                        f(l, 1);
                        *c -= 1;
                        break;
                    }
                    r -= *c;
                }
                self.total -= 1;
            }
            return;
        }
        // Large groups run the shared conditional-hypergeometric chain.
        block_composition(&mut self.levels, self.total, group, rng, |_, l, t| f(l, t));
        self.total -= group;
    }
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
        // Small (exact) and large (chain) groups, multi-level pools.
        for group in [1u64, 5, 8, 9, 100, 900] {
            let mut hist = OccupancyHistogram::new(1000);
            hist.promote(0, 400, 1);
            hist.promote(0, 100, 2);
            let mut rng = SplitMix64::new(group);
            let mut slots = LevelSlots::snapshot(&hist, None, Vec::new());
            assert_eq!(slots.remaining(), 1000);
            let mut seen = 0u64;
            slots.assign(group, &mut rng, |_, c| seen += c);
            assert_eq!(seen, group, "group {group}");
            assert_eq!(slots.remaining(), 1000 - group);
        }
    }

    #[test]
    fn snapshot_respects_the_open_bound() {
        let mut hist = OccupancyHistogram::new(10);
        hist.promote(0, 4, 1);
        hist.promote(0, 2, 3);
        let slots = LevelSlots::snapshot(&hist, Some(3), Vec::new());
        assert_eq!(slots.remaining(), 8); // loads 0 and 1 only
        let all = LevelSlots::snapshot(&hist, None, Vec::new());
        assert_eq!(all.remaining(), 10);
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
            let mut slots = LevelSlots::snapshot(&hist, None, Vec::new());
            slots.assign(1, &mut rng, |l, c| {
                if l == 0 {
                    low += c;
                }
            });
        }
        assert!((1700..=2300).contains(&low), "low-class picks: {low}");
    }
}
