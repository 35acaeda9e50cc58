//! Lenzen–Wattenhofer-style bounded-load parallel allocation [12].
//!
//! Reproduction note (see DESIGN.md §2): the published protocol's exact
//! contact schedule is tuned for the `log* n + O(1)` constant; we
//! implement the operational core — *bins accept at most `cap` balls
//! ever; unplaced balls contact `k_r` bins in round `r` with `k_r`
//! doubling; each bin with spare capacity accepts one uniformly random
//! requester per round* — which reproduces the qualitative behaviour:
//! max load exactly ≤ `cap`, a round count that grows extremely slowly
//! with `n`, and O(1) messages per ball.

use super::round_occupancy::{resolve_round_engine, snapshot_classes, RoundTrace};
use bib_core::error::ProtocolError;
use bib_core::histogram::{
    block_composition, distinct_hit_count, rounded_normal_count, split_binomial, OccupancyHistogram,
};
use bib_core::protocol::{Engine, Observer, Outcome, Protocol, RunConfig};
use bib_core::scenario::Scenario;
use bib_rng::{Rng64, RngExt};

/// Rounds whose total contact count is at most this run the exact
/// within-round simulation on exchangeable bins; larger rounds use the
/// moment-matched draws (distinct accepting bins, placed balls).
const EXACT_CONTACTS: u64 = 64;

/// The bounded-load parallel protocol.
///
/// # Examples
///
/// ```
/// use bib_parallel::protocols::BoundedLoad;
/// use bib_rng::SeedSequence;
///
/// let mut rng = SeedSequence::new(1).rng();
/// let out = BoundedLoad::new(2).run(256, 256, &mut rng); // m = n
/// out.validate();
/// assert!(out.max_load() <= 2);        // by construction
/// assert!(out.rounds() <= 10);         // ~log* n
/// assert!(out.messages_per_ball() < 8.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BoundedLoad {
    cap: u32,
    /// Safety limit on rounds (the process must finish far earlier).
    max_rounds: u32,
}

impl BoundedLoad {
    /// Bins accept at most `cap ≥ 1` balls.
    pub fn new(cap: u32) -> Self {
        assert!(cap >= 1, "bin capacity must be ≥ 1");
        Self {
            cap,
            max_rounds: 64,
        }
    }

    /// The per-bin capacity.
    pub fn cap(&self) -> u32 {
        self.cap
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

    /// Fallible counterpart of [`BoundedLoad::run`].
    pub fn try_run<R: Rng64 + ?Sized>(
        &self,
        n: usize,
        m: u64,
        rng: &mut R,
    ) -> Result<Outcome, ProtocolError> {
        self.try_allocate(
            &RunConfig::new(n, m),
            rng,
            &mut bib_core::protocol::NullObserver,
        )
    }

    /// Fallible allocation: an infeasible configuration (`m > cap·n`)
    /// or an exhausted round budget comes back as a [`ProtocolError`]
    /// instead of a panic, so a service caller can shed, degrade, or
    /// exit non-zero. [`Protocol::allocate`] is a thin `unwrap` over
    /// this path.
    pub fn try_allocate<R, O>(
        &self,
        cfg: &RunConfig,
        rng: &mut R,
        obs: &mut O,
    ) -> Result<Outcome, ProtocolError>
    where
        R: Rng64 + ?Sized,
        O: Observer + ?Sized,
    {
        let capacity = u64::from(self.cap) * cfg.n as u64;
        if cfg.m > capacity {
            return Err(ProtocolError::InfeasibleCapacity { m: cfg.m, capacity });
        }
        match resolve_round_engine(cfg.engine, cfg.n, cfg.m) {
            Engine::Histogram => self.allocate_round_occupancy(cfg, rng, obs),
            _ => self.allocate_faithful(cfg, rng, obs),
        }
    }
}

impl Protocol for BoundedLoad {
    fn name(&self) -> String {
        format!("bounded-load(cap={})", self.cap)
    }

    /// Runs the process; panics (with the [`ProtocolError`] display) if
    /// `m > cap·n` (capacity infeasible) or if the safety round limit
    /// is exceeded (indicates a bug, not bad luck — 64 rounds is
    /// astronomically beyond `log* n`). Callers that want the failure
    /// as a value use [`BoundedLoad::try_allocate`].
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
        self.try_allocate(cfg, rng, obs)
            .unwrap_or_else(|e| panic!("{e}"))
    }
}

impl BoundedLoad {
    /// The faithful per-contact path. Per-round cost is
    /// `O(unplaced · k_r)`: requester lists are cleared through the
    /// touched-bin list (never an `O(n)` sweep), and the
    /// placement flags are allocated once — a placed ball never returns,
    /// so its flag never needs resetting.
    fn allocate_faithful<R, O>(
        &self,
        cfg: &RunConfig,
        rng: &mut R,
        obs: &mut O,
    ) -> Result<Outcome, ProtocolError>
    where
        R: Rng64 + ?Sized,
        O: Observer + ?Sized,
    {
        let (n, m) = (cfg.n, cfg.m);
        assert!(n > 0, "need at least one bin");
        debug_assert!(m <= self.cap as u64 * n as u64, "checked by try_allocate");
        let want_stages = obs.wants_stage_ends();
        let mut loads = vec![0u32; n];
        // Balls still unplaced, by id.
        let mut unplaced: Vec<u32> = (0..m as u32).collect();
        let mut messages = 0u64;
        let mut rounds = 0u32;
        // Per-bin requester lists plus the bins touched this round, both
        // reused across rounds: only touched lists are read and cleared.
        let mut requests: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut touched: Vec<u32> = Vec::new();
        // Placement flags by ball id, allocated once for the whole run.
        let mut placed: Vec<bool> = vec![false; m as usize];
        let mut contacts = 1usize; // k_r: doubles each round
        let mut contacts_cum = 0u64; // Σ k_r — a surviving ball's sent total
        let mut max_contacts = 0u64;

        while !unplaced.is_empty() {
            rounds += 1;
            if rounds > self.max_rounds {
                return Err(ProtocolError::Unconverged {
                    protocol: self.name(),
                    rounds: u64::from(self.max_rounds),
                });
            }
            contacts_cum += contacts as u64;
            // Phase 1: contacts.
            for &ball in &unplaced {
                for _ in 0..contacts {
                    let b = rng.range_usize(n);
                    if requests[b].is_empty() {
                        touched.push(b as u32);
                    }
                    requests[b].push(ball);
                    messages += 1;
                }
            }
            // Phase 2: each bin with spare capacity accepts one uniformly
            // random requester. A ball may receive several acceptances;
            // it takes the first by bin order (any deterministic rule
            // works — the bin keeps its slot only if the ball commits).
            // Touched bins are visited in ascending index order so the
            // tie-break matches the full-scan original exactly.
            touched.sort_unstable();
            for &bin in &touched {
                let reqs = &mut requests[bin as usize];
                if loads[bin as usize] < self.cap {
                    let ball = *rng.choose(reqs);
                    messages += 1; // the accept message
                    if !placed[ball as usize] {
                        placed[ball as usize] = true;
                        loads[bin as usize] += 1;
                    }
                }
                reqs.clear();
            }
            touched.clear();
            // Phase 3: commit placements. Any ball placed this round has
            // sent `contacts_cum` contacts so far — the per-ball max.
            let before = unplaced.len();
            unplaced.retain(|&ball| !placed[ball as usize]);
            if unplaced.len() < before {
                max_contacts = contacts_cum;
            }
            contacts = (contacts * 2).min(n);
            if want_stages {
                obs.on_stage_end(rounds as u64, &loads, m - unplaced.len() as u64);
            }
        }

        Ok(Outcome {
            protocol: self.name(),
            n,
            m,
            total_samples: messages,
            max_samples_per_ball: max_contacts,
            loads: loads.into(),
            scenario: Scenario::rounds(rounds, messages),
        })
    }

    /// The round-occupancy path. A round with `u` unplaced balls and
    /// `k` contacts each collapses to three draws:
    ///
    /// 1. the number of the `u·k` contacts landing on *open* bins
    ///    (load `< cap`) — one binomial split;
    /// 2. the number of **distinct open bins hit** `D` — each sends one
    ///    accept ([`distinct_hit_count`]);
    /// 3. the number of **balls placed** `P` — the accepting bins' picks
    ///    collapse onto distinct balls. The picks are modelled as `D`
    ///    requests drawn without replacement from the `u·k` sent, so a
    ///    ball is missed with probability `q1 ≈ ((T−D)/T)^k`; `P = u −
    ///    missed` is a rounded normal on the closed-form moments,
    ///    clamped to the sure support `[⌈D/k⌉, min(D, u)]`. `k = 1` is
    ///    exact: every pick is a distinct ball, `P = D`.
    ///
    /// The `P` gaining bins are a uniform subset of the open bins
    /// (contacts are load-blind), so the increments spread over the open
    /// occupancy classes without replacement ([`block_composition`]). Rounds
    /// with at most 64 total contacts instead run an exact within-round
    /// simulation on exchangeable bins (request walk, per-bin requester
    /// lists, random tie-break order), so small cases stay exact.
    ///
    /// Approximation note: the faithful tie-break ("first accepting bin
    /// by index") is replaced by an exchangeable one; the residual
    /// cross-round correlation (a fixed low-index bin wins every tie it
    /// is part of) is not representable in histogram state and is
    /// bounded by the equivalence suite.
    fn allocate_round_occupancy<R, O>(
        &self,
        cfg: &RunConfig,
        rng: &mut R,
        obs: &mut O,
    ) -> Result<Outcome, ProtocolError>
    where
        R: Rng64 + ?Sized,
        O: Observer + ?Sized,
    {
        let (n, m) = (cfg.n, cfg.m);
        assert!(n > 0, "need at least one bin");
        debug_assert!(m <= self.cap as u64 * n as u64, "checked by try_allocate");
        let mut hist = OccupancyHistogram::new(n);
        let trace = RoundTrace::new(n, rng, obs);
        let mut unplaced = m;
        let mut messages = 0u64;
        let mut rounds = 0u32;
        let mut level_buf: Vec<(u32, u64)> = Vec::new();
        let mut contacts = 1u64;
        let mut contacts_cum = 0u64;
        let mut max_contacts = 0u64;

        while unplaced > 0 {
            rounds += 1;
            if rounds > self.max_rounds {
                return Err(ProtocolError::Unconverged {
                    protocol: self.name(),
                    rounds: u64::from(self.max_rounds),
                });
            }
            contacts_cum += contacts;
            let total = unplaced * contacts;
            messages += total;
            let open = hist.open_bins(Some(self.cap));
            debug_assert!(open > 0, "unplaced balls but no open bin");

            let placed = if total <= EXACT_CONTACTS {
                let (accepts, placed) =
                    self.exact_round(&mut hist, unplaced, contacts, &mut level_buf, rng);
                messages += accepts;
                placed
            } else {
                // 1. Contacts landing on open bins.
                let t_open = split_binomial(total, open as f64 / n as f64, rng);
                // 2. Distinct open bins hit — one accept message each.
                let d = distinct_hit_count(open, t_open, rng);
                messages += d;
                // 3. Balls placed.
                let placed = if d == 0 {
                    0
                } else if contacts == 1 {
                    d
                } else {
                    // A ball is missed iff none of its k requests is
                    // among the D picked: `Π_{i<k} (T−D−i)/(T−i)`,
                    // approximated with the midpoint-corrected power
                    // `((T−D−(k−1)/2)/(T−(k−1)/2))^k`; the pairwise
                    // miss runs the same product over 2k terms, which
                    // is strictly below q1² — that gap is the negative
                    // association of the missed counts (a missed ball
                    // concentrates the picks on the others).
                    let t = total as f64;
                    let dd = d as f64;
                    let q_miss = |j: f64| -> f64 {
                        let num = t - dd - (j - 1.0) / 2.0;
                        let den = t - (j - 1.0) / 2.0;
                        if num <= 0.0 {
                            0.0
                        } else {
                            (j * (num / den).ln()).exp()
                        }
                    };
                    let q1 = q_miss(contacts as f64);
                    let q2 = q_miss(2.0 * contacts as f64);
                    let u = unplaced as f64;
                    let mean_missed = u * q1;
                    let var = (u * (q1 - q2) + u * u * (q2 - q1 * q1)).max(0.0);
                    let hi_placed = d.min(unplaced);
                    let lo_placed = d.div_ceil(contacts).min(hi_placed);
                    let missed = rounded_normal_count(
                        mean_missed,
                        var,
                        unplaced - hi_placed,
                        unplaced - lo_placed,
                        rng,
                    );
                    unplaced - missed
                };
                // The gaining bins are a uniform size-`placed` subset of
                // the open bins: spread the +1 increments over the open
                // classes.
                let pool = snapshot_classes(&hist, Some(self.cap), &mut level_buf);
                block_composition(&mut level_buf, pool, placed, rng, |_, l, cnt| {
                    hist.promote(l, cnt, 1)
                });
                placed
            };

            unplaced -= placed;
            if placed > 0 {
                max_contacts = contacts_cum;
            }
            contacts = (contacts * 2).min(n as u64);
            trace.stage_end(obs, rounds, &hist, m - unplaced);
        }

        Ok(Outcome {
            protocol: self.name(),
            n,
            m,
            total_samples: messages,
            max_samples_per_ball: max_contacts,
            loads: trace.finish(&hist, rng),
            scenario: Scenario::rounds(rounds, messages),
        })
    }

    /// Exact within-round simulation for small rounds (`u·k ≤ 64`): the
    /// contact walk materializes the touched bins with their requester
    /// lists on exchangeable bin indices, each touched bin draws its
    /// occupancy class without replacement, and the accepting bins
    /// resolve in a uniformly random order (the faithful index order is
    /// uniform over the exchangeable labels). Returns `(accept
    /// messages, balls placed)`.
    fn exact_round<R: Rng64 + ?Sized>(
        &self,
        hist: &mut OccupancyHistogram,
        unplaced: u64,
        contacts: u64,
        level_buf: &mut Vec<(u32, u64)>,
        rng: &mut R,
    ) -> (u64, u64) {
        let n = hist.n();
        // Contact walk: touched bins indexed 0.. in discovery order;
        // each contact hits touched bin `r` iff `r < #touched`.
        let mut requesters: Vec<Vec<u32>> = Vec::new();
        for ball in 0..unplaced as u32 {
            for _ in 0..contacts {
                let r = rng.range_u64(n);
                if (r as usize) < requesters.len() {
                    requesters[r as usize].push(ball);
                } else {
                    requesters.push(vec![ball]);
                }
            }
        }
        // Assign each touched bin its occupancy class, without
        // replacement.
        let mut remaining = snapshot_classes(hist, None, level_buf);
        let mut bin_level: Vec<u32> = Vec::with_capacity(requesters.len());
        for _ in 0..requesters.len() {
            block_composition(level_buf, remaining, 1, rng, |_, l, _| bin_level.push(l));
            remaining -= 1;
        }
        // Resolve accepts in a uniformly random bin order.
        let mut order: Vec<u32> = (0..requesters.len() as u32).collect();
        rng.shuffle(&mut order);
        let mut placed_flag = vec![false; unplaced as usize];
        let mut accepts = 0u64;
        let mut placed = 0u64;
        for &bi in &order {
            let level = bin_level[bi as usize];
            if level >= self.cap {
                continue; // bin already full at round start
            }
            let ball = *rng.choose(&requesters[bi as usize]);
            accepts += 1;
            if !placed_flag[ball as usize] {
                placed_flag[ball as usize] = true;
                hist.promote(level, 1, 1);
                placed += 1;
            }
        }
        (accepts, placed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bib_rng::SplitMix64;

    #[test]
    fn max_load_never_exceeds_cap() {
        for seed in 0..5u64 {
            let mut rng = SplitMix64::new(seed);
            let out = BoundedLoad::new(2).run(256, 256, &mut rng);
            out.validate();
            assert!(out.max_load() <= 2, "seed {seed}: {}", out.max_load());
        }
    }

    #[test]
    fn all_balls_placed_at_full_capacity() {
        // m = cap·n is the tight case: every slot must fill.
        let mut rng = SplitMix64::new(7);
        let out = BoundedLoad::new(2).run(64, 128, &mut rng);
        out.validate();
        assert_eq!(out.loads, vec![2u32; 64]);
    }

    #[test]
    fn rounds_grow_very_slowly() {
        // log*-ish: going from n = 2⁸ to n = 2¹⁶ should add at most a
        // few rounds.
        let mut rng = SplitMix64::new(8);
        let small = BoundedLoad::new(2).run(1 << 8, 1 << 8, &mut rng);
        let big = BoundedLoad::new(2).run(1 << 16, 1 << 16, &mut rng);
        assert!(small.rounds() <= 12, "small rounds {}", small.rounds());
        assert!(
            big.rounds() <= small.rounds() + 4,
            "{} vs {}",
            big.rounds(),
            small.rounds()
        );
    }

    #[test]
    fn messages_linear_in_m() {
        let mut rng = SplitMix64::new(9);
        let out = BoundedLoad::new(2).run(1 << 14, 1 << 14, &mut rng);
        assert!(
            out.messages_per_ball() < 12.0,
            "messages per ball {}",
            out.messages_per_ball()
        );
        // The unified record mirrors messages into the allocation time.
        assert_eq!(out.total_samples, out.messages());
        assert!(out.max_samples_per_ball >= 1);
    }

    #[test]
    fn round_observer_fires_once_per_round() {
        use bib_core::protocol::StageTrace;
        let cfg = RunConfig::new(128, 128);
        let mut rng = SplitMix64::new(12);
        let mut trace = StageTrace::new();
        let out = BoundedLoad::new(2).allocate(&cfg, &mut rng, &mut trace);
        out.validate();
        assert_eq!(trace.stages.len(), out.rounds() as usize);
        assert_eq!(trace.stages, (1..=out.rounds() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn zero_balls() {
        let mut rng = SplitMix64::new(10);
        let out = BoundedLoad::new(2).run(8, 0, &mut rng);
        out.validate();
        assert_eq!(out.rounds(), 0);
        assert_eq!(out.messages(), 0);
    }

    #[test]
    fn infeasible_capacity_is_a_typed_error() {
        let mut rng = SplitMix64::new(11);
        let err = BoundedLoad::new(1)
            .try_run(4, 5, &mut rng)
            .expect_err("m > cap·n must be rejected");
        assert_eq!(err, ProtocolError::InfeasibleCapacity { m: 5, capacity: 4 });
        assert_eq!(
            err.to_string(),
            "infeasible: m = 5 exceeds total capacity 4"
        );
        // The round-occupancy engine rejects it too (as a value, no
        // panic).
        let mut rng = SplitMix64::new(11);
        let cfg = RunConfig::new(4, 5).with_engine(Engine::Histogram);
        let err = BoundedLoad::new(1)
            .try_allocate(&cfg, &mut rng, &mut bib_core::protocol::NullObserver)
            .expect_err("round-occupancy path must also reject");
        assert!(matches!(err, ProtocolError::InfeasibleCapacity { .. }));
    }

    #[test]
    #[should_panic(expected = "infeasible: m = 5 exceeds total capacity 4")]
    fn infallible_entry_point_panics_with_the_error_display() {
        let mut rng = SplitMix64::new(11);
        BoundedLoad::new(1).run(4, 5, &mut rng);
    }
}
