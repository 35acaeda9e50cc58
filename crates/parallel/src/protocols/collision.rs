//! Collision-style parallel allocation (Adler, Chakrabarti,
//! Mitzenmacher & Rasmussen [1] flavour).
//!
//! Round structure: every unplaced ball contacts one uniformly random
//! bin; a bin *accepts all* its requesters in this round if they number
//! at most `c` (the collision threshold), otherwise it rejects them all.
//! Accepted balls are placed; rejected balls retry next round. For
//! `m = n` and constant `c` the expected number of unplaced balls drops
//! doubly exponentially, giving `O(log log n)` rounds.

use super::round_occupancy::{resolve_round_engine, snapshot_classes, RoundTrace};
use bib_core::histogram::{
    block_composition, occupancy_profile, OccupancyHistogram, OccupancyProfile,
};
use bib_core::protocol::{Engine, Observer, Outcome, Protocol, RunConfig};
use bib_core::scenario::Scenario;
use bib_rng::{Rng64, RngExt};

/// The collision protocol.
///
/// Degenerate inputs can livelock the pure protocol (e.g. `n = 1`,
/// `m = 2`, `c = 1`: both balls collide in the only bin forever). After
/// [`Collision::STALL_LIMIT`] consecutive rounds with no placement the
/// implementation falls back to one-choice placement for the remaining
/// balls — a documented deviation that only fires outside the `m ≤ n`
/// regime the protocol is designed for.
#[derive(Debug, Clone, Copy)]
pub struct Collision {
    c: u32,
    max_rounds: u32,
}

impl Collision {
    /// Collision threshold `c ≥ 1`.
    pub fn new(c: u32) -> Self {
        assert!(c >= 1, "collision threshold must be ≥ 1");
        Self { c, max_rounds: 256 }
    }

    /// The collision threshold.
    pub fn c(&self) -> u32 {
        self.c
    }

    /// Consecutive zero-progress rounds tolerated before the one-choice
    /// fallback kicks in.
    pub const STALL_LIMIT: u32 = 8;

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

impl Protocol for Collision {
    fn name(&self) -> String {
        format!("collision(c={})", self.c)
    }

    /// Runs the process to completion; panics only if the safety round
    /// cap (256) is hit, which indicates a bug.
    ///
    /// The engine in `cfg` resolves by the parallel family's fixed rule
    /// (see [`super`]): `Histogram` runs the round-occupancy engine,
    /// `Auto` the measured cutoff [`Engine::auto_scheduled`], anything
    /// else the per-contact rounds. The round-occupancy path is *exact* as a
    /// lumped chain — acceptance depends only on a bin's request
    /// multiplicity, never on its load, so the occupancy histogram is a
    /// sufficient statistic — up to the two moment-matched sampler
    /// regimes of its draws: `split_binomial` above variance 4 and
    /// `hypergeometric` above 8 draws (see [`occupancy_profile`]).
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

impl Collision {
    /// The faithful per-contact path: every unplaced ball draws its bin
    /// each round. Per-round cost is `O(unplaced)` — touched bins are
    /// tracked so neither the requester-count reset nor the acceptance
    /// scan ever walks the full `O(n)` bin array (late rounds have a
    /// handful of stragglers).
    fn allocate_faithful<R, O>(&self, cfg: &RunConfig, rng: &mut R, obs: &mut O) -> Outcome
    where
        R: Rng64 + ?Sized,
        O: Observer + ?Sized,
    {
        let (n, m) = (cfg.n, cfg.m);
        assert!(n > 0, "need at least one bin");
        let want_stages = obs.wants_stage_ends();
        let mut loads = vec![0u32; n];
        let mut unplaced = m;
        let mut messages = 0u64;
        let mut rounds = 0u32;
        // Per-bin requester counts plus the bins touched this round,
        // both reused: only touched entries are read and reset.
        let mut counts = vec![0u32; n];
        let mut touched: Vec<u32> = Vec::new();
        // Ball ids are interchangeable here (no per-ball state), so we
        // track only the count and re-sample contacts per round.
        let mut stalled = 0u32;
        while unplaced > 0 {
            rounds += 1;
            assert!(
                rounds <= self.max_rounds,
                "collision protocol failed to converge in {} rounds",
                self.max_rounds
            );
            // Dense rounds (most bins touched) resolve with one fused
            // sequential scan-and-clear; sparse rounds (late stragglers)
            // gather only the touched bins, so no round pays `O(n)` for
            // a handful of contacts.
            let dense = unplaced >= n as u64 / 64;
            if dense {
                for _ in 0..unplaced {
                    counts[rng.range_usize(n)] += 1;
                    messages += 1;
                }
            } else {
                for _ in 0..unplaced {
                    let b = rng.range_usize(n);
                    if counts[b] == 0 {
                        touched.push(b as u32);
                    }
                    counts[b] += 1;
                    messages += 1;
                }
            }
            let mut placed_this_round = 0u64;
            if dense {
                for (bin, c) in counts.iter_mut().enumerate() {
                    let cv = *c;
                    if cv == 0 {
                        continue;
                    }
                    *c = 0;
                    if cv <= self.c {
                        loads[bin] += cv;
                        placed_this_round += cv as u64;
                        messages += cv as u64; // accept messages
                    }
                }
            } else {
                for &bin in &touched {
                    let c = counts[bin as usize];
                    counts[bin as usize] = 0;
                    if c <= self.c {
                        loads[bin as usize] += c;
                        placed_this_round += c as u64;
                        messages += c as u64; // accept messages
                    }
                }
                touched.clear();
            }
            unplaced -= placed_this_round;
            if placed_this_round == 0 {
                stalled += 1;
                if stalled >= Self::STALL_LIMIT {
                    // Livelock (only possible far outside the m ≤ n design
                    // regime): finish with one-choice placements in one
                    // extra round.
                    rounds += 1;
                    for _ in 0..unplaced {
                        loads[rng.range_usize(n)] += 1;
                        messages += 2; // request + forced accept
                    }
                    unplaced = 0;
                }
            } else {
                stalled = 0;
            }
            if want_stages {
                obs.on_stage_end(rounds as u64, &loads, m - unplaced);
            }
        }
        Outcome {
            protocol: self.name(),
            n,
            m,
            total_samples: messages,
            // Balls are interchangeable: the worst-off ball contacted a
            // bin once in every round (exact — some ball survives to
            // the last placing round).
            max_samples_per_ball: if m > 0 { rounds as u64 } else { 0 },
            loads: loads.into(),
            scenario: Scenario::rounds(rounds, messages),
        }
    }

    /// The round-occupancy path: a round draws the multiplicity profile
    /// of `unplaced` contacts over the `n` bins
    /// ([`occupancy_profile`]), accepts the whole multiplicity classes
    /// with `k ≤ c` and spreads each class's bins over the occupancy
    /// classes without replacement ([`accept_groups`]) — `O(max
    /// multiplicity + #classes)` per round, independent of `n` and
    /// `unplaced`. Rounds, messages, the stall fallback and the
    /// max-contacts accounting follow the faithful path's rules
    /// exactly.
    fn allocate_round_occupancy<R, O>(&self, cfg: &RunConfig, rng: &mut R, obs: &mut O) -> Outcome
    where
        R: Rng64 + ?Sized,
        O: Observer + ?Sized,
    {
        let (n, m) = (cfg.n, cfg.m);
        assert!(n > 0, "need at least one bin");
        let mut hist = OccupancyHistogram::new(n);
        let trace = RoundTrace::new(n, rng, obs);
        let mut unplaced = m;
        let mut messages = 0u64;
        let mut rounds = 0u32;
        let mut stalled = 0u32;
        let mut profile = OccupancyProfile::default();
        let mut classes: Vec<(u32, u64)> = Vec::new();
        while unplaced > 0 {
            rounds += 1;
            assert!(
                rounds <= self.max_rounds,
                "collision protocol failed to converge in {} rounds",
                self.max_rounds
            );
            messages += unplaced;
            occupancy_profile(n as u64, unplaced, &mut profile, rng);
            let placed_this_round = accept_groups(&mut hist, &profile, self.c, &mut classes, rng);
            messages += placed_this_round; // accept messages
            unplaced -= placed_this_round;
            if placed_this_round == 0 {
                stalled += 1;
                if stalled >= Self::STALL_LIMIT {
                    // Livelock fallback, mirroring the faithful path:
                    // one-choice placements in one extra round — an
                    // unconditional throw, accepted at any
                    // multiplicity.
                    rounds += 1;
                    occupancy_profile(n as u64, unplaced, &mut profile, rng);
                    accept_groups(&mut hist, &profile, u32::MAX, &mut classes, rng);
                    messages += 2 * unplaced; // request + forced accept
                    unplaced = 0;
                }
            } else {
                stalled = 0;
            }
            trace.stage_end(obs, rounds, &hist, m - unplaced);
        }
        Outcome {
            protocol: self.name(),
            n,
            m,
            total_samples: messages,
            max_samples_per_ball: if m > 0 { rounds as u64 } else { 0 },
            loads: trace.finish(&hist, rng),
            scenario: Scenario::rounds(rounds, messages),
        }
    }
}

/// Places the requesters of every bin that receives at most `accept`
/// of them: each accepted multiplicity group `(j, bins)` of `profile` is
/// a uniform bin set, disjoint from the other groups, so it spreads over
/// the round-start `classes` without replacement
/// ([`block_composition`]) and every share is promoted by `j`. Groups
/// come in ascending `j`, so the rejected ones all follow the accepted
/// ones and need no classes. Returns the balls placed.
fn accept_groups<R: Rng64 + ?Sized>(
    hist: &mut OccupancyHistogram,
    profile: &OccupancyProfile,
    accept: u32,
    classes: &mut Vec<(u32, u64)>,
    rng: &mut R,
) -> u64 {
    let mut remaining = snapshot_classes(hist, None, classes);
    let mut placed = 0u64;
    for &(j, bins) in profile.cells().iter().filter(|&&(j, _)| j > 0) {
        if j > accept {
            break;
        }
        block_composition(classes, remaining, bins, rng, |_, l, c| {
            hist.promote(l, c, j)
        });
        remaining -= bins;
        placed += u64::from(j) * bins;
    }
    placed
}

#[cfg(test)]
mod tests {
    use super::*;
    use bib_rng::SplitMix64;

    #[test]
    fn terminates_and_conserves_mass() {
        for seed in 0..5u64 {
            let mut rng = SplitMix64::new(seed);
            let out = Collision::new(1).run(512, 512, &mut rng);
            out.validate();
            assert!(out.rounds() >= 1);
        }
    }

    #[test]
    fn rounds_are_log_log_ish() {
        // With c = 1 and m = n, rounds should stay in the single digits
        // well past n = 10⁵ (log log n ≈ 4).
        let mut rng = SplitMix64::new(6);
        let out = Collision::new(1).run(1 << 17, 1 << 17, &mut rng);
        assert!(out.rounds() <= 15, "rounds {}", out.rounds());
    }

    #[test]
    fn larger_threshold_fewer_rounds() {
        let mut r1 = SplitMix64::new(7);
        let mut r2 = SplitMix64::new(7);
        let tight = Collision::new(1).run(1 << 14, 1 << 14, &mut r1);
        let loose = Collision::new(4).run(1 << 14, 1 << 14, &mut r2);
        assert!(
            loose.rounds() <= tight.rounds(),
            "{} vs {}",
            loose.rounds(),
            tight.rounds()
        );
    }

    #[test]
    fn max_load_bounded_by_c_times_rounds() {
        let mut rng = SplitMix64::new(8);
        let out = Collision::new(2).run(1024, 1024, &mut rng);
        assert!(out.max_load() <= 2 * out.rounds());
        // Empirically far smaller: a bin rarely wins twice.
        assert!(out.max_load() <= 8, "max load {}", out.max_load());
    }

    #[test]
    fn zero_balls() {
        let mut rng = SplitMix64::new(9);
        let out = Collision::new(1).run(4, 0, &mut rng);
        out.validate();
        assert_eq!(out.rounds(), 0);
    }
}
