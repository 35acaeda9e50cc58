//! Round-restricted parallel `greedy[d]` (Adler, Chakrabarti,
//! Mitzenmacher & Rasmussen [1]).
//!
//! The [1] model: each ball commits to `d` uniform candidate bins up
//! front; communication proceeds in `r` synchronous rounds, after which
//! *every ball must be placed* in one of its candidates. Their lower
//! bound says max load `Ω((log n / log log n)^{1/r})` for constant
//! rounds; more rounds ⇒ better balance.
//!
//! We implement the natural committed-candidates process:
//!
//! * rounds 1 … r−1: every unplaced ball asks its currently
//!   least-loaded candidate (by the *confirmed* loads it has heard);
//!   each bin admits at most `q_r` new balls per round (FIFO over a
//!   random permutation) and rejects the rest;
//! * final round: every still-unplaced ball is force-placed into its
//!   least-loaded candidate (everyone must land).
//!
//! With `d = 2` and a handful of rounds the max load lands in the
//! `O(√(log n / log log n))`-ish band between one-round (= `d`-choice
//! collision) and unrestricted `greedy[2]`.

use super::round_occupancy::{resolve_round_engine, RoundTrace};
use bib_core::histogram::{
    occupancy_profile, split_binomial, split_binomial_counts, OccupancyHistogram, OccupancyProfile,
};
use bib_core::protocol::{Engine, Observer, Outcome, Protocol, RunConfig};
use bib_core::scenario::Scenario;
use bib_rng::{Rng64, RngExt};
use std::collections::BTreeMap;

/// The round-restricted parallel greedy protocol.
#[derive(Debug, Clone, Copy)]
pub struct ParallelGreedy {
    d: u32,
    rounds: u32,
    per_round: u32,
}

impl ParallelGreedy {
    /// `d ≥ 1` candidates per ball, `rounds ≥ 1` communication rounds,
    /// and at most `per_round ≥ 1` admissions per bin per round.
    pub fn new(d: u32, rounds: u32, per_round: u32) -> Self {
        assert!(d >= 1, "need at least one candidate");
        assert!(rounds >= 1, "need at least one round");
        assert!(
            per_round >= 1,
            "bins must admit at least one ball per round"
        );
        Self {
            d,
            rounds,
            per_round,
        }
    }

    /// Candidates per ball.
    pub fn d(&self) -> u32 {
        self.d
    }

    /// Round budget.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Convenience entry point mirroring the sequential protocols'
    /// shape: runs `m` balls into `n` bins with no observer.
    pub fn run<R: Rng64 + ?Sized>(&self, n: usize, m: u64, rng: &mut R) -> Outcome {
        self.allocate(
            &RunConfig::new(n, m),
            rng,
            &mut bib_core::protocol::NullObserver,
        )
    }
}

impl Protocol for ParallelGreedy {
    fn name(&self) -> String {
        format!(
            "parallel-greedy(d={},r={},q={})",
            self.d, self.rounds, self.per_round
        )
    }

    /// Runs the process; all `m` balls are placed by construction.
    ///
    /// The engine in `cfg` resolves by the parallel family's fixed rule
    /// (see [`super`]): `Histogram` runs the round-occupancy engine,
    /// `Auto` the measured cutoff [`Engine::auto_scheduled`], anything
    /// else the per-contact rounds.
    fn allocate<R, O>(&self, cfg: &RunConfig, rng: &mut R, obs: &mut O) -> Outcome
    where
        R: Rng64 + ?Sized,
        O: Observer + ?Sized,
    {
        match resolve_round_engine(cfg.engine, cfg.n, cfg.m) {
            Engine::Histogram => self.allocate_round_occupancy(cfg, rng, obs),
            _ => self.allocate_faithful(cfg, rng, obs),
        }
    }
}

impl ParallelGreedy {
    /// The faithful committed-candidates path. Requester lists are
    /// cleared through the touched-bin list and the placement flags are
    /// allocated once (a placed ball never returns), so per-round cost
    /// is `O(unplaced)`, not `O(n)`.
    fn allocate_faithful<R, O>(&self, cfg: &RunConfig, rng: &mut R, obs: &mut O) -> Outcome
    where
        R: Rng64 + ?Sized,
        O: Observer + ?Sized,
    {
        let (n, m) = (cfg.n, cfg.m);
        assert!(n > 0, "need at least one bin");
        assert!(m <= u32::MAX as u64, "ball ids are u32");
        let want_stages = obs.wants_stage_ends();
        let d = self.d as usize;
        // Committed candidates, ball-major.
        let mut candidates: Vec<u32> = Vec::with_capacity(m as usize * d);
        for _ in 0..m {
            for _ in 0..d {
                candidates.push(rng.range_usize(n) as u32);
            }
        }
        let mut loads = vec![0u32; n];
        let mut unplaced: Vec<u32> = (0..m as u32).collect();
        let mut messages = 0u64;
        // Per-bin requester lists plus the bins touched this round, both
        // reused: only touched lists are read and cleared.
        let mut requests: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut touched: Vec<u32> = Vec::new();
        // Placement flags by ball id, allocated once for the whole run.
        let mut placed: Vec<bool> = vec![false; m as usize];
        let mut rounds_used = 0u32;

        let best_candidate = |ball: u32, loads: &[u32]| -> u32 {
            let cs = &candidates[ball as usize * d..(ball as usize + 1) * d];
            *cs.iter()
                .min_by_key(|&&b| loads[b as usize])
                .expect("d ≥ 1")
        };

        // Negotiation rounds (all but the last).
        for _ in 1..self.rounds {
            if unplaced.is_empty() {
                break;
            }
            rounds_used += 1;
            for &ball in &unplaced {
                let b = best_candidate(ball, &loads);
                if requests[b as usize].is_empty() {
                    touched.push(b);
                }
                requests[b as usize].push(ball);
                messages += 1;
            }
            for &bin in &touched {
                let reqs = &mut requests[bin as usize];
                // Admit a uniformly random subset of size ≤ per_round.
                rng.shuffle(reqs);
                for &ball in reqs.iter().take(self.per_round as usize) {
                    loads[bin as usize] += 1;
                    placed[ball as usize] = true;
                    messages += 1; // accept
                }
                reqs.clear();
            }
            touched.clear();
            unplaced.retain(|&b| !placed[b as usize]);
            if want_stages {
                obs.on_stage_end(rounds_used as u64, &loads, m - unplaced.len() as u64);
            }
        }

        // Final forced round — synchronous: every ball decides against
        // the loads as of the round start (no sequential information
        // advantage).
        if !unplaced.is_empty() {
            rounds_used += 1;
            let snapshot = loads.clone();
            for &ball in &unplaced {
                let b = best_candidate(ball, &snapshot);
                loads[b as usize] += 1;
                messages += 2; // request + forced accept
            }
            unplaced.clear();
            if want_stages {
                obs.on_stage_end(rounds_used as u64, &loads, m);
            }
        }

        Outcome {
            protocol: self.name(),
            n,
            m,
            total_samples: messages,
            // The worst-off ball sent one request per round it survived;
            // some ball survives to the last used round.
            max_samples_per_ball: if m > 0 { rounds_used as u64 } else { 0 },
            loads: loads.into(),
            scenario: Scenario::rounds(rounds_used, messages),
        }
    }

    /// The round-occupancy path: the **pinned-cohort** model over
    /// histogram state.
    ///
    /// A ball's request target — the least loaded of its `d` committed
    /// candidates — is resolved through the minimum of uniform *ranks*
    /// over the load-sorted bins, and the per-ball candidate memory the
    /// histogram cannot carry is approximated by one load-bearing piece
    /// of structure: every rejected ball stays **pinned** to the bin
    /// that rejected it. State is the global occupancy histogram plus
    /// cells `(load ℓ, s pinned survivors) → bins`; a round proceeds as
    ///
    /// 1. **defection** — each pinned ball abandons its pin iff the
    ///    minimum of `d−1` conditioned candidate ranks lands strictly
    ///    below its pin's class (the pin wins ties, as the faithful
    ///    tie-break does; the candidates are drawn from bins of load
    ///    `≥ ℓ − q`, because surviving a contested bin means the ball's
    ///    last decision preferred the pin at load `ℓ − q` over them),
    ///    resolved per cell with an exact binomial-pmf chain over
    ///    per-bin defector counts;
    /// 2. **fresh requests** — free balls split over the classes by the
    ///    min-of-`d` CDF chain (`P(min rank ∈ [a, a+c)) = ((n−a)/n)^d −
    ///    ((n−a−c)/n)^d`), defectors by the min-of-`d−1` chain
    ///    truncated to classes below their old pin; within a class the
    ///    intake splits over pinned cells and unpinned bins by bin
    ///    count, and per-bin multiplicities come from
    ///    [`occupancy_profile`];
    /// 3. **admission** — a bin with `s` pinned and `f` fresh
    ///    requesters admits `min(s + f, per_round)` (everything in the
    ///    forced final round), its load grows by that many, and the
    ///    remainder stays pinned to it at its new load.
    ///
    /// Classes are processed in descending load order so mid-round
    /// promotions never land in a class still awaiting its intake.
    ///
    /// What is exact: round 1 (all candidates exchangeable), the whole
    /// `rounds ≤ 2` process (survivors' non-chosen candidates really
    /// are fresh uniform bins — this is what reproduces the faithful
    /// pile-up of rejected cohorts on contested bins), and every draw
    /// below the profile/split thresholds. Deeper rounds re-draw the
    /// `d−1` non-pinned candidates each round instead of remembering
    /// them; the residual error is bounded by the equivalence suite.
    fn allocate_round_occupancy<R, O>(&self, cfg: &RunConfig, rng: &mut R, obs: &mut O) -> Outcome
    where
        R: Rng64 + ?Sized,
        O: Observer + ?Sized,
    {
        let (n, m) = (cfg.n, cfg.m);
        assert!(n > 0, "need at least one bin");
        assert!(m <= u32::MAX as u64, "ball ids are u32");
        let mut hist = OccupancyHistogram::new(n);
        let trace = RoundTrace::new(n, rng, obs);
        let mut messages = 0u64;
        let mut rounds_used = 0u32;
        // Pinned cells: (load, survivors) → bins. BTreeMap so the
        // iteration order — and with it the rng stream — is
        // deterministic.
        let mut pinned: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        let mut free = m;
        let mut profile = OccupancyProfile::default();

        for round in 1..=self.rounds {
            let pinned_balls: u64 = pinned.iter().map(|(&(_, s), &b)| s as u64 * b).sum();
            let unplaced = free + pinned_balls;
            if unplaced == 0 {
                break;
            }
            rounds_used += 1;
            let forced = round == self.rounds;
            messages += if forced { 2 * unplaced } else { unplaced };
            let placed =
                self.engine_round(&mut hist, &mut pinned, &mut free, forced, &mut profile, rng);
            if !forced {
                messages += placed; // accepts
            }
            trace.stage_end(obs, rounds_used, &hist, m - (unplaced - placed));
        }

        Outcome {
            protocol: self.name(),
            n,
            m,
            total_samples: messages,
            max_samples_per_ball: if m > 0 { rounds_used as u64 } else { 0 },
            loads: trace.finish(&hist, rng),
            scenario: Scenario::rounds(rounds_used, messages),
        }
    }

    /// One engine round over `(hist, pinned, free)`. Returns the number
    /// of balls placed; on a forced round that is every unplaced ball.
    fn engine_round<R: Rng64 + ?Sized>(
        &self,
        hist: &mut OccupancyHistogram,
        pinned: &mut BTreeMap<(u32, u32), u64>,
        free: &mut u64,
        forced: bool,
        profile: &mut OccupancyProfile,
        rng: &mut R,
    ) -> u64 {
        let n = hist.n();
        // Frozen round-start classes with rank prefixes.
        let classes: Vec<(u32, u64, u64)> = {
            let mut rank = 0u64;
            hist.levels()
                .map(|(l, c)| {
                    let entry = (l, c, rank);
                    rank += c;
                    entry
                })
                .collect()
        };
        let below_of = |load: u32| -> u64 {
            classes
                .iter()
                .take_while(|&&(l, _, _)| l < load)
                .map(|&(_, c, _)| c)
                .sum()
        };

        // 1. Defections (no-op for d = 1: there is no fresh candidate).
        // A surviving cohort's bin admitted exactly `per_round` at its
        // last contested round, so the ball's last decision saw its pin
        // at load `ℓ − q` — and chose it, which conditions the `d−1`
        // other candidates to bins of load ≥ `ℓ − q` (loads only grow,
        // so that floor still holds now). The ball defects iff the
        // least of those conditioned candidates now sits strictly below
        // `ℓ`; defectors are grouped by `(floor, ceiling)` because
        // their target law is the min-of-(d−1) restricted to that band.
        let mut defectors: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        if self.d > 1 {
            let old = std::mem::take(pinned);
            for ((l, s), b) in old {
                let floor = l.saturating_sub(self.per_round);
                let den = n - below_of(floor);
                let band = below_of(l) - below_of(floor);
                let p = if den == 0 {
                    0.0
                } else {
                    1.0 - (1.0 - band as f64 / den as f64).powf(self.d as f64 - 1.0)
                };
                if p <= 0.0 {
                    *pinned.entry((l, s)).or_insert(0) += b;
                    continue;
                }
                // Distribute the cell's bins over per-bin defector
                // counts k ~ Binomial(s, p).
                split_binomial_counts(b, s, p, rng, |k, nk| {
                    if k > 0 {
                        *defectors.entry((floor, l)).or_insert(0) += u64::from(k) * nk;
                    }
                    if k < s {
                        *pinned.entry((l, s - k)).or_insert(0) += nk;
                    }
                    // k == s: the bin lost every survivor — it is a
                    // plain unpinned bin again, no cell to keep.
                });
            }
        }

        // 2. Fresh requests → per-class intake. Free balls follow the
        // min-of-d law over every class; defectors the min-of-(d−1)
        // law over the `[floor, ∞)` band, truncated strictly below
        // their old pin. The min-rank probability over a band of `den`
        // bins whose ranks start at `base`:
        // `P(min ∈ [a, a+c)) = ((den−(a−base))/den)^d −
        // ((den−(a+c−base))/den)^d`.
        let mut intake = vec![0u64; classes.len()];
        let mut split_group =
            |count: u64, lo: usize, hi: usize, base: u64, den: u64, d: f64, rng: &mut R| {
                let denf = den as f64;
                let min_prob = |a: u64, c: u64| -> f64 {
                    ((denf - (a - base) as f64) / denf).powf(d)
                        - ((denf - (a + c - base) as f64) / denf).powf(d)
                };
                // Conditional binomial chain over classes[lo..hi].
                let mut rem = count;
                let mut tail: f64 = classes[lo..hi]
                    .iter()
                    .map(|&(_, c, a)| min_prob(a, c))
                    .sum();
                for (i, &(_, c, a)) in classes[lo..hi].iter().enumerate() {
                    if rem == 0 {
                        break;
                    }
                    let p = min_prob(a, c);
                    let h = if lo + i + 1 == hi {
                        rem
                    } else {
                        let frac = if tail > 0.0 {
                            (p / tail).clamp(0.0, 1.0)
                        } else {
                            1.0
                        };
                        split_binomial(rem, frac, rng)
                    };
                    intake[lo + i] += h;
                    rem -= h;
                    tail -= p;
                }
            };
        if *free > 0 {
            split_group(*free, 0, classes.len(), 0, n, self.d as f64, rng);
            *free = 0;
        }
        for (&(floor, l), &count) in defectors.iter() {
            let lo = classes.partition_point(|&(cl, _, _)| cl < floor);
            let hi = classes.partition_point(|&(cl, _, _)| cl < l);
            debug_assert!(hi > lo, "defector with nothing below its pin");
            let base = below_of(floor);
            split_group(count, lo, hi, base, n - base, self.d as f64 - 1.0, rng);
        }

        // 3. Resolve admissions per class, descending load (promotions
        // only move bins upward, past every class still awaiting its
        // intake). Pinned cells request their own bin even with no
        // fresh intake, so every surviving cell is visited.
        let admit_cap = if forced {
            u64::MAX
        } else {
            self.per_round as u64
        };
        let mut placed = 0u64;
        let old_pinned = std::mem::take(pinned);
        for i in (0..classes.len()).rev() {
            let (l, c, _) = classes[i];
            let mut h = intake[i];
            // Cells of this class, with their bin counts frozen.
            let class_cells: Vec<(u32, u64)> = old_pinned
                .range((l, 0)..(l, u32::MAX))
                .map(|(&(_, s), &b)| (s, b))
                .collect();
            let pinned_bins: u64 = class_cells.iter().map(|&(_, b)| b).sum();
            debug_assert!(pinned_bins <= c);
            // Split the fresh intake over the class's subgroups by bin
            // count (requests are uniform within the class).
            let mut bins_rem = c;
            for (s, b) in class_cells {
                let f_cell = if bins_rem == b {
                    h
                } else {
                    split_binomial(h, b as f64 / bins_rem as f64, rng)
                };
                bins_rem -= b;
                h -= f_cell;
                // Per-bin fresh multiplicities over the cell's bins; a
                // bin with s pinned and f fresh admits min(s+f, cap).
                occupancy_profile(b, f_cell, profile, rng);
                for &(f, nf_bins) in profile.cells() {
                    let req = u64::from(s) + u64::from(f);
                    let adm = req.min(admit_cap);
                    if adm > 0 {
                        hist.promote(l, nf_bins, adm as u32);
                        placed += adm * nf_bins;
                    }
                    let survivors = req - adm;
                    if survivors > 0 {
                        *pinned
                            .entry((l + adm as u32, survivors as u32))
                            .or_insert(0) += nf_bins;
                    }
                }
            }
            // Unpinned remainder of the class.
            if h > 0 {
                occupancy_profile(bins_rem, h, profile, rng);
                for &(f, nf_bins) in profile.cells().iter().filter(|&&(f, _)| f > 0) {
                    let adm = u64::from(f).min(admit_cap);
                    hist.promote(l, nf_bins, adm as u32);
                    placed += adm * nf_bins;
                    let survivors = u64::from(f) - adm;
                    if survivors > 0 {
                        *pinned
                            .entry((l + adm as u32, survivors as u32))
                            .or_insert(0) += nf_bins;
                    }
                }
            }
        }
        placed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bib_rng::SplitMix64;

    #[test]
    fn places_everything_within_round_budget() {
        let mut rng = SplitMix64::new(1);
        let out = ParallelGreedy::new(2, 3, 1).run(512, 512, &mut rng);
        out.validate();
        assert!(out.rounds() <= 3);
    }

    #[test]
    fn single_round_is_pure_commitment() {
        // r = 1: every ball force-places into its least-loaded candidate
        // as seen at time zero (all-zero loads) — i.e. its first choice
        // tie-broken by the min operator; load can pile up.
        let mut rng = SplitMix64::new(2);
        let out = ParallelGreedy::new(2, 1, 1).run(256, 256, &mut rng);
        out.validate();
        assert_eq!(out.rounds(), 1);
    }

    #[test]
    fn more_rounds_never_hurt_much() {
        let n = 1 << 14;
        let maxload = |rounds: u32, seed: u64| -> u32 {
            let mut rng = SplitMix64::new(seed);
            ParallelGreedy::new(2, rounds, 1)
                .run(n, n as u64, &mut rng)
                .max_load()
        };
        // Average over a few seeds to damp noise.
        let avg =
            |rounds: u32| -> f64 { (0..5).map(|s| maxload(rounds, s) as f64).sum::<f64>() / 5.0 };
        let r1 = avg(1);
        let r3 = avg(3);
        let r6 = avg(6);
        assert!(r3 <= r1, "3 rounds ({r3}) worse than 1 ({r1})");
        assert!(r6 <= r3 + 0.5, "6 rounds ({r6}) worse than 3 ({r3})");
    }

    #[test]
    fn messages_bounded_by_rounds_times_m() {
        let mut rng = SplitMix64::new(3);
        let out = ParallelGreedy::new(2, 4, 1).run(1024, 1024, &mut rng);
        assert!(out.messages() <= 2 * 4 * 1024);
    }

    #[test]
    fn zero_balls() {
        let mut rng = SplitMix64::new(4);
        let out = ParallelGreedy::new(3, 2, 1).run(8, 0, &mut rng);
        out.validate();
        assert_eq!(out.rounds(), 0);
        assert_eq!(out.messages(), 0);
    }

    #[test]
    #[should_panic]
    fn zero_rounds_rejected() {
        ParallelGreedy::new(2, 0, 1);
    }
}
