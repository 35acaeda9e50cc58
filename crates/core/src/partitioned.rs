//! Bins with per-level counts: O(1) placement, O(1) threshold queries.
//!
//! The retry loop of `threshold`/`adaptive` asks *how many* bins
//! currently accept a ball (load below the threshold) — to assert that
//! one exists — and the run harness asks for the maximum load. This
//! structure keeps, next to the loads, one cumulative count per load
//! level, so both queries and ball placement are O(1).
//!
//! Because loads only ever increase during an allocation run, a
//! placement moves exactly one bin from level `l` to level `l + 1`,
//! which changes exactly one cumulative count.

use crate::bins::LoadVector;

/// Load vector with cumulative per-level counts.
///
/// # Examples
///
/// ```
/// use bib_core::partitioned::PartitionedBins;
///
/// let mut bins = PartitionedBins::new(4);
/// bins.place(0);
/// bins.place(0);
/// bins.place(2);
/// assert_eq!(bins.count_below(1), 2); // bins 1 and 3 are empty
/// assert_eq!(bins.count_below(2), 3); // bin 0 alone has load 2
/// assert_eq!(bins.max_load(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionedBins {
    loads: Vec<u32>,
    /// `boundary[l]` = number of bins with load `< l`. `boundary[0] = 0`;
    /// the vector always has `max_load + 2` entries so
    /// `boundary[max_load + 1] = n` exists.
    boundary: Vec<u32>,
    total: u64,
}

impl PartitionedBins {
    /// `n` empty bins; panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "PartitionedBins: need at least one bin");
        assert!(n <= u32::MAX as usize, "PartitionedBins: too many bins");
        Self {
            loads: vec![0; n],
            boundary: vec![0, n as u32],
            total: 0,
        }
    }

    /// Builds the counts from explicit loads (counting sort, O(n + max)).
    pub fn from_loads(loads: Vec<u32>) -> Self {
        assert!(!loads.is_empty(), "PartitionedBins: need at least one bin");
        let max = loads.iter().copied().max().unwrap_or(0) as usize;
        let mut boundary = vec![0u32; max + 2];
        for &l in &loads {
            boundary[l as usize + 1] += 1;
        }
        // Prefix-sum: boundary[l] = #bins with load < l.
        for l in 1..boundary.len() {
            boundary[l] += boundary[l - 1];
        }
        let total = loads.iter().map(|&l| l as u64).sum();
        Self {
            loads,
            boundary,
            total,
        }
    }

    /// Number of bins.
    pub fn n(&self) -> usize {
        self.loads.len()
    }

    /// Balls placed so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Load of bin `b`.
    #[inline]
    pub fn load(&self, b: usize) -> u32 {
        self.loads[b]
    }

    /// Current maximum load (O(1): the boundary vector's height).
    pub fn max_load(&self) -> u32 {
        // boundary has max_load + 2 entries: an entry is appended
        // exactly when a bin first reaches a new maximum, and loads
        // never decrease.
        (self.boundary.len() - 2) as u32
    }

    /// Number of bins with load strictly below `t` — O(1).
    #[inline]
    pub fn count_below(&self, t: u32) -> usize {
        let t = t as usize;
        if t >= self.boundary.len() {
            self.n()
        } else {
            self.boundary[t] as usize
        }
    }

    /// Adds one ball to bin `b` — O(1).
    #[inline]
    pub fn place(&mut self, b: usize) {
        let l = self.loads[b] as usize;
        // Bin b leaves level l for level l + 1: one fewer bin below l + 1.
        self.boundary[l + 1] -= 1;
        self.loads[b] += 1;
        self.total += 1;
        // New global maximum ⇒ extend the boundary vector.
        if l + 2 == self.boundary.len() {
            self.boundary.push(self.n() as u32);
        }
    }

    /// Read-only view of the loads.
    pub fn as_slice(&self) -> &[u32] {
        &self.loads
    }

    /// Snapshot as a plain [`LoadVector`].
    pub fn to_load_vector(&self) -> LoadVector {
        LoadVector::from_loads(self.loads.clone())
    }

    /// Internal consistency check (tests and debug assertions): the
    /// cumulative counts and the total describe `loads`.
    pub fn check_invariants(&self) {
        let n = self.n();
        assert_eq!(self.boundary[0], 0);
        assert_eq!(
            *self
                .boundary
                .last()
                .expect("boundary always holds at least the leading 0"),
            n as u32
        );
        let max = self.loads.iter().copied().max().unwrap_or(0);
        assert_eq!(self.max_load(), max, "boundary height is not the max load");
        for (l, &below) in self.boundary.iter().enumerate() {
            let expect = self.loads.iter().filter(|&&x| (x as usize) < l).count();
            assert_eq!(below as usize, expect, "count below {l} is wrong");
        }
        assert_eq!(
            self.total,
            self.loads.iter().map(|&l| l as u64).sum::<u64>()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bib_rng::SplitMix64;

    #[test]
    fn new_all_below_one() {
        let pb = PartitionedBins::new(4);
        pb.check_invariants();
        assert_eq!(pb.count_below(1), 4);
        assert_eq!(pb.count_below(0), 0);
        assert_eq!(pb.max_load(), 0);
    }

    #[test]
    fn place_sequence_keeps_invariants() {
        let mut pb = PartitionedBins::new(5);
        for b in [0usize, 0, 3, 3, 3, 1, 4, 0] {
            pb.place(b);
            pb.check_invariants();
        }
        assert_eq!(pb.load(0), 3);
        assert_eq!(pb.load(3), 3);
        assert_eq!(pb.load(2), 0);
        assert_eq!(pb.total(), 8);
        assert_eq!(pb.max_load(), 3);
        assert_eq!(pb.count_below(3), 3); // bins 1, 2, 4
        assert_eq!(pb.count_below(1), 1); // bin 2
    }

    #[test]
    fn count_below_matches_naive_under_random_ops() {
        let mut pb = PartitionedBins::new(16);
        let mut naive = crate::bins::LoadVector::new(16);
        let mut rng = SplitMix64::new(77);
        use bib_rng::RngExt;
        for _ in 0..2000 {
            let b = rng.range_usize(16);
            pb.place(b);
            naive.place(b);
            let t = rng.range_u64(12) as u32;
            assert_eq!(pb.count_below(t), naive.count_below(t));
        }
        pb.check_invariants();
        assert_eq!(pb.as_slice(), naive.as_slice());
    }

    #[test]
    fn from_loads_matches_incremental() {
        let loads = vec![2u32, 0, 1, 2, 5, 0];
        let pb = PartitionedBins::from_loads(loads.clone());
        pb.check_invariants();
        assert_eq!(pb.as_slice(), loads.as_slice());
        assert_eq!(pb.max_load(), 5);
        assert_eq!(pb.count_below(2), 3);
        assert_eq!(pb.total(), 10);
    }

    #[test]
    fn to_load_vector_round_trip() {
        let mut pb = PartitionedBins::new(3);
        pb.place(1);
        pb.place(1);
        pb.place(2);
        let lv = pb.to_load_vector();
        assert_eq!(lv.as_slice(), &[0, 2, 1]);
        assert_eq!(lv.total(), 3);
    }

    #[test]
    fn single_bin() {
        let mut pb = PartitionedBins::new(1);
        for i in 0..10 {
            assert_eq!(pb.count_below(i + 1), 1);
            pb.place(0);
            pb.check_invariants();
        }
        assert_eq!(pb.load(0), 10);
        assert_eq!(pb.max_load(), 10);
    }
}
