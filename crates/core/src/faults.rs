//! Deterministic fault injection for the streaming allocator.
//!
//! A [`FaultPlan`] is a list of [`FaultEvent`]s at virtual times (stream
//! ticks): at tick `at`, each *eligible* bin independently crashes,
//! drains, slows down, or recovers with probability `frac`. The serve
//! driver (`crate::stream`) never names individual bins: it keeps one
//! occupancy histogram per health state and applies an event as a
//! class-level binomial split — every occupancy class of an eligible
//! state sends `Binomial(count, frac)` of its bins to the new state.
//! The splits draw from a per-event stream derived from the plan seed
//! ([`FaultPlan::event_rng`]), never from the wall clock, so the same
//! seed and the same plan replay the same fault schedule bit-for-bit.
//!
//! The bin health states are deliberately few:
//!
//! * **Alive** — accepts placements at the usual one-sample contact
//!   cost.
//! * **Slow** — accepts placements, but every contact costs an extra
//!   sample (a straggling backend: correct answers, doubled latency).
//! * **Draining** — refuses new placements (the probe is wasted and
//!   redrawn) while its resident balls keep departing through churn —
//!   the "finish existing connections" shape of a rolling restart.
//! * **Dead** — refuses placements *and* freezes its resident balls; a
//!   contacted dead bin costs the probe and forces a re-draw. On
//!   recovery the bin rejoins with its frozen load intact, which is
//!   exactly the arbitrary-state re-entry a self-stabilizing allocator
//!   must absorb.
//!
//! The textual grammar (CLI `--faults`, README "Serve mode & fault
//! model") is `kind@tick:frac[,kind@tick:frac…]` with kinds `crash`,
//! `drain`, `slow`, `recover` and `frac` either a float in `(0, 1]` or
//! the word `all`: `crash@60:0.5,recover@90:all`.

use bib_rng::{Rng64, SeedSequence};

/// What happens to the affected bins at a fault event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Eligible (non-dead) bins go dead: placements bounce, resident
    /// balls freeze.
    Crash,
    /// Eligible alive/slow bins go draining: placements bounce,
    /// resident balls keep departing.
    Drain,
    /// Eligible alive bins go slow: contacts cost an extra sample.
    Slow,
    /// Eligible non-alive bins return to alive with their current
    /// load.
    Recover,
}

impl FaultKind {
    /// Canonical grammar keyword.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::Drain => "drain",
            FaultKind::Slow => "slow",
            FaultKind::Recover => "recover",
        }
    }
}

/// One scheduled fault: at virtual time `at`, each eligible bin is hit
/// independently with probability `frac` (1.0 = every eligible bin,
/// surely).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Stream tick at which the event fires (before that tick's
    /// arrivals and departures).
    pub at: u64,
    /// Event kind.
    pub kind: FaultKind,
    /// Probability that an eligible bin is affected, in `(0, 1]`.
    pub frac: f64,
}

/// A deterministic, seed-derived schedule of bin faults.
///
/// The plan itself is pure data (events sorted by time); the *choice*
/// of affected bins is made by the consuming driver, one binomial split
/// per occupancy class drawn from [`FaultPlan::event_rng`], so a
/// driver's fault trajectory is a pure function of `(seed, plan, n)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    seed: u64,
}

impl FaultPlan {
    /// A plan with no events (the always-healthy baseline).
    pub fn none() -> Self {
        Self {
            events: Vec::new(),
            seed: 0,
        }
    }

    /// Builds a plan from events (sorted by `at`, stably) and the seed
    /// the affected-bin draws derive from.
    pub fn new(mut events: Vec<FaultEvent>, seed: u64) -> Self {
        for e in &events {
            assert!(
                e.frac > 0.0 && e.frac <= 1.0,
                "fault frac {} outside (0, 1]",
                e.frac
            );
        }
        events.sort_by_key(|e| e.at);
        Self { events, seed }
    }

    /// The classic robustness drill: crash a fraction of the fleet at
    /// `at`, recover everything at `recover_at`.
    pub fn mass_failure(at: u64, frac: f64, recover_at: u64, seed: u64) -> Self {
        assert!(recover_at > at, "recovery must follow the crash");
        Self::new(
            vec![
                FaultEvent {
                    at,
                    kind: FaultKind::Crash,
                    frac,
                },
                FaultEvent {
                    at: recover_at,
                    kind: FaultKind::Recover,
                    frac: 1.0,
                },
            ],
            seed,
        )
    }

    /// Parses the CLI grammar `kind@tick:frac[,…]`; `frac` is a float
    /// in `(0, 1]` or `all`. Returns a human-readable message on
    /// malformed input.
    pub fn parse(spec: &str, seed: u64) -> Result<Self, String> {
        let mut events = Vec::new();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let part = part.trim();
            let (kind_s, rest) = part
                .split_once('@')
                .ok_or_else(|| format!("fault `{part}`: expected kind@tick:frac"))?;
            let (tick_s, frac_s) = rest
                .split_once(':')
                .ok_or_else(|| format!("fault `{part}`: expected kind@tick:frac"))?;
            let kind = match kind_s {
                "crash" => FaultKind::Crash,
                "drain" => FaultKind::Drain,
                "slow" => FaultKind::Slow,
                "recover" => FaultKind::Recover,
                other => return Err(format!("unknown fault kind `{other}`")),
            };
            let at: u64 = tick_s
                .parse()
                .map_err(|_| format!("fault `{part}`: bad tick `{tick_s}`"))?;
            let frac: f64 = if frac_s == "all" {
                1.0
            } else {
                frac_s
                    .parse()
                    .map_err(|_| format!("fault `{part}`: bad fraction `{frac_s}`"))?
            };
            if !(frac > 0.0 && frac <= 1.0) {
                return Err(format!("fault `{part}`: fraction must be in (0, 1]"));
            }
            events.push(FaultEvent { at, kind, frac });
        }
        Ok(Self::new(events, seed))
    }

    /// The events, ascending by tick.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan schedules anything at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The seed the affected-bin draws derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Indices (into [`FaultPlan::events`]) of the events firing at
    /// exactly tick `at`.
    pub fn due_at(&self, at: u64) -> std::ops::Range<usize> {
        let lo = self.events.partition_point(|e| e.at < at);
        let hi = self.events.partition_point(|e| e.at <= at);
        lo..hi
    }

    /// Deterministic per-event stream: the binomial class splits for
    /// event `event_idx` draw from this RNG.
    pub fn event_rng(&self, event_idx: usize) -> impl Rng64 {
        SeedSequence::new(self.seed)
            .child_str("fault-event")
            .child(event_idx as u64)
            .rng()
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for e in &self.events {
            if !first {
                write!(f, ",")?;
            }
            first = false;
            if e.frac >= 1.0 {
                write!(f, "{}@{}:all", e.kind.label(), e.at)?;
            } else {
                write!(f, "{}@{}:{}", e.kind.label(), e.at, e.frac)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_round_trips() {
        let plan = FaultPlan::parse("crash@60:0.5, slow@10:0.25 ,recover@90:all", 7).unwrap();
        // Sorted by tick.
        assert_eq!(plan.events()[0].kind, FaultKind::Slow);
        assert_eq!(plan.events()[1].at, 60);
        assert_eq!(plan.to_string(), "slow@10:0.25,crash@60:0.5,recover@90:all");
        let reparsed = FaultPlan::parse(&plan.to_string(), 7).unwrap();
        assert_eq!(reparsed, plan);
    }

    #[test]
    fn grammar_rejects_malformed_specs() {
        for bad in [
            "crash60:0.5",
            "crash@60",
            "melt@60:0.5",
            "crash@x:0.5",
            "crash@60:1.5",
            "crash@60:0",
        ] {
            assert!(FaultPlan::parse(bad, 1).is_err(), "{bad} should fail");
        }
        assert!(FaultPlan::parse("", 1).unwrap().is_empty());
    }

    #[test]
    fn due_at_selects_exactly_the_tick() {
        let plan = FaultPlan::parse("crash@5:0.5,drain@5:0.5,recover@9:all", 3).unwrap();
        assert_eq!(plan.due_at(5), 0..2);
        assert_eq!(plan.due_at(9), 2..3);
        assert_eq!(plan.due_at(7), 2..2);
    }
}
