//! Choice-vector recording and replay — the proof's deferred-decisions
//! device turned into a debugging tool.
//!
//! The proof of Theorem 4.1 fixes an infinite vector `C` of uniform bin
//! choices *in advance* and lets the protocol consume it left to right;
//! the allocation time is then just "how many entries of C were used".
//! This module makes that operational:
//!
//! * [`RecordingRng`] wraps any generator and logs every raw 64-bit word
//!   it produces;
//! * [`ReplayRng`] plays a recorded tape back (and panics if the
//!   consumer runs past the end).
//!
//! Replaying a protocol run on its own tape reproduces the run *exactly*
//! — loads, placements and sample counts — which gives (a) a shrink-free
//! way to capture and re-examine rare events, and (b) a direct test that
//! protocols are deterministic functions of their choice sequence, the
//! premise of the paper's analysis.

use bib_rng::Rng64;

/// Wraps a generator and records every word drawn through it.
#[derive(Debug)]
pub struct RecordingRng<R> {
    inner: R,
    tape: Vec<u64>,
}

impl<R: Rng64> RecordingRng<R> {
    /// Starts recording on top of `inner`.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            tape: Vec::new(),
        }
    }

    /// Number of words drawn so far.
    pub fn words_used(&self) -> usize {
        self.tape.len()
    }

    /// Consumes the recorder, returning the tape.
    pub fn into_tape(self) -> Vec<u64> {
        self.tape
    }

    /// Borrows the tape recorded so far.
    pub fn tape(&self) -> &[u64] {
        &self.tape
    }
}

impl<R: Rng64> Rng64 for RecordingRng<R> {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let w = self.inner.next_u64();
        self.tape.push(w);
        w
    }
}

/// Plays a recorded tape back as a generator.
///
/// Panics when the consumer draws more words than the tape holds — a
/// replay that diverges from the recording is a bug, and silence would
/// hide it.
#[derive(Debug, Clone)]
pub struct ReplayRng {
    tape: Vec<u64>,
    pos: usize,
}

impl ReplayRng {
    /// Creates a replayer over `tape`.
    pub fn new(tape: Vec<u64>) -> Self {
        Self { tape, pos: 0 }
    }

    /// Words remaining on the tape.
    pub fn remaining(&self) -> usize {
        self.tape.len() - self.pos
    }

    /// Whether the whole tape was consumed.
    pub fn exhausted(&self) -> bool {
        self.pos == self.tape.len()
    }
}

impl Rng64 for ReplayRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        assert!(
            self.pos < self.tape.len(),
            "replay ran past the end of the tape ({} words): the consumer \
             diverged from the recorded run",
            self.tape.len()
        );
        let w = self.tape[self.pos];
        self.pos += 1;
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use crate::protocol::NullObserver;
    use bib_rng::{RngExt, SplitMix64};

    #[test]
    fn recording_is_transparent() {
        // Drawing through the recorder gives the same stream as drawing
        // directly.
        let mut direct = SplitMix64::new(9);
        let mut rec = RecordingRng::new(SplitMix64::new(9));
        for _ in 0..100 {
            assert_eq!(direct.next_u64(), rec.next_u64());
        }
        assert_eq!(rec.words_used(), 100);
    }

    #[test]
    fn replay_reproduces_tape_exactly() {
        let mut rec = RecordingRng::new(SplitMix64::new(5));
        let drawn: Vec<u64> = (0..32).map(|_| rec.next_u64()).collect();
        let mut rep = ReplayRng::new(rec.into_tape());
        let replayed: Vec<u64> = (0..32).map(|_| rep.next_u64()).collect();
        assert_eq!(drawn, replayed);
        assert!(rep.exhausted());
    }

    #[test]
    #[should_panic]
    fn replay_overrun_panics() {
        let mut rep = ReplayRng::new(vec![1, 2]);
        rep.next_u64();
        rep.next_u64();
        rep.next_u64();
    }

    /// The headline property: a protocol is a deterministic function of
    /// its choice tape — replaying the tape reproduces the entire
    /// outcome.
    #[test]
    fn protocol_run_replays_exactly() {
        for engine in Engine::ALL {
            let cfg = RunConfig::new(32, 500).with_engine(engine);
            let mut rec = RecordingRng::new(SplitMix64::new(13));
            let original = Threshold.allocate(&cfg, &mut rec, &mut NullObserver);
            let tape = rec.into_tape();
            let mut rep = ReplayRng::new(tape);
            let replayed = Threshold.allocate(&cfg, &mut rep, &mut NullObserver);
            assert_eq!(original, replayed, "{engine:?}");
            assert!(rep.exhausted(), "{engine:?}: tape not fully consumed");
        }
    }

    /// The proof's accounting: under the naive engine, the number of
    /// *range draws* equals the allocation time (each sample consumes
    /// one choice-vector entry). Lemire rejection can cost extra raw
    /// words, so compare against a range-draw counter rather than raw
    /// words.
    #[test]
    fn allocation_time_equals_choice_vector_consumption() {
        struct CountingRanges<R> {
            inner: R,
            ranges: u64,
        }
        impl<R: Rng64> Rng64 for CountingRanges<R> {
            fn next_u64(&mut self) -> u64 {
                self.inner.next_u64()
            }
        }
        impl<R: Rng64> CountingRanges<R> {
            fn range(&mut self, n: u64) -> u64 {
                self.ranges += 1;
                self.inner.range_u64(n)
            }
        }
        // Drive the naive sampling loop manually, mirroring threshold.
        let n = 16usize;
        let m = 200u64;
        let mut rng = CountingRanges {
            inner: SplitMix64::new(7),
            ranges: 0,
        };
        let mut bins = crate::partitioned::PartitionedBins::new(n);
        let bound = Threshold::acceptance_bound(n, m);
        let mut total_samples = 0u64;
        for _ in 0..m {
            loop {
                total_samples += 1;
                let j = rng.range(n as u64) as usize;
                if bins.load(j) < bound {
                    bins.place(j);
                    break;
                }
            }
        }
        assert_eq!(rng.ranges, total_samples);
        assert_eq!(bins.total(), m);
    }
}
