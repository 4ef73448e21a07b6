//! Wave partitions: the tunable grouping design space (§3.4).
//!
//! After each wave, the accumulated tiles can either be communicated or
//! held — a binary decision per wave boundary, giving `2^(T-1)` partitions
//! of `T` waves into ordered groups. A partition is represented by its
//! group sizes, e.g. `(1, 2, 2)` for communicating after waves 1, 3, 5.
//!
//! `group_of_wave` runs per tile band inside the token-mapping planner,
//! and the tuner enumerates candidates here, so unchecked indexing is
//! opted out.
#![warn(clippy::indexing_slicing)]

use crate::error::FlashOverlapError;

/// An ordered partition of `T` waves into `P` groups of consecutive waves.
///
/// # Examples
///
/// ```
/// use flashoverlap::WavePartition;
///
/// // Fig. 7's first example: communicate after waves 1, 3, and 5.
/// let p = WavePartition::new(vec![1, 2, 2]);
/// assert_eq!(p.total_waves(), 5);
/// assert_eq!(p.group_of_wave(3), 2);
/// assert_eq!(p.to_string(), "(1,2,2)");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WavePartition {
    sizes: Vec<u32>,
}

impl WavePartition {
    /// Creates a partition from group sizes.
    ///
    /// # Panics
    ///
    /// Panics if `sizes` is empty or contains zero (see
    /// [`WavePartition::try_new`]).
    pub fn new(sizes: Vec<u32>) -> Self {
        Self::try_new(sizes).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a partition from untrusted group sizes.
    ///
    /// # Errors
    ///
    /// Returns [`FlashOverlapError::BadInputs`] if `sizes` is empty or
    /// contains zero.
    pub fn try_new(sizes: Vec<u32>) -> Result<Self, FlashOverlapError> {
        let reason = if sizes.is_empty() {
            "partition needs at least one group"
        } else if sizes.contains(&0) {
            "group sizes must be positive"
        } else {
            return Ok(WavePartition { sizes });
        };
        Err(FlashOverlapError::BadInputs {
            reason: reason.into(),
        })
    }

    /// The baseline partition of §4.1.1: one wave per group (the most
    /// fine-grained signaling).
    pub fn per_wave(total_waves: u32) -> Self {
        assert!(total_waves > 0, "need at least one wave");
        WavePartition {
            sizes: vec![1; total_waves as usize],
        }
    }

    /// The no-overlap partition: a single group holding every wave
    /// (communication starts only after the whole GEMM).
    pub fn single(total_waves: u32) -> Self {
        assert!(total_waves > 0, "need at least one wave");
        WavePartition {
            sizes: vec![total_waves],
        }
    }

    /// Group sizes `|G_1| .. |G_P|`.
    pub fn sizes(&self) -> &[u32] {
        &self.sizes
    }

    /// Number of groups `P`.
    pub fn num_groups(&self) -> usize {
        self.sizes.len()
    }

    /// Total waves `T` covered.
    pub fn total_waves(&self) -> u32 {
        self.sizes.iter().sum()
    }

    /// The wave range `[start, end)` of group `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn wave_range(&self, g: usize) -> std::ops::Range<u32> {
        let size = *self.sizes.get(g).expect("group out of range");
        let start: u32 = self.sizes.iter().take(g).sum();
        start..start + size
    }

    /// The group containing wave `w`.
    ///
    /// # Panics
    ///
    /// Panics if `w >= total_waves()`.
    pub fn group_of_wave(&self, w: u32) -> usize {
        let mut acc = 0;
        for (g, &s) in self.sizes.iter().enumerate() {
            acc += s;
            if w < acc {
                return g;
            }
        }
        panic!("wave {w} beyond partition of {} waves", self.total_waves());
    }

    /// Checks the partition covers exactly `waves` waves.
    ///
    /// # Errors
    ///
    /// Returns [`FlashOverlapError::PartitionMismatch`] on mismatch.
    pub fn check_covers(&self, waves: u32) -> Result<(), FlashOverlapError> {
        if self.total_waves() == waves {
            Ok(())
        } else {
            Err(FlashOverlapError::PartitionMismatch {
                partition_waves: self.total_waves(),
                schedule_waves: waves,
            })
        }
    }
}

impl std::fmt::Display for WavePartition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(")?;
        for (i, s) in self.sizes.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, ")")
    }
}

/// Wave count above which exhaustive candidate enumeration is replaced by
/// the structured family (the pruned space would still be exponential).
pub const EXHAUSTIVE_WAVE_LIMIT: u32 = 14;

/// Enumerates every partition of `waves` waves (the full `2^(T-1)` design
/// space). Only tractable for small `T`; the evaluation's exhaustive-search
/// experiments (§4.1.1, §6.4) stay below [`EXHAUSTIVE_WAVE_LIMIT`].
///
/// # Panics
///
/// Panics if `waves` is zero or exceeds 24 (enumeration would explode).
pub fn all_partitions(waves: u32) -> Vec<WavePartition> {
    assert!(waves > 0, "need at least one wave");
    assert!(
        waves <= 24,
        "exhaustive enumeration of {waves} waves is intractable"
    );
    let mut out = Vec::with_capacity(1usize << (waves - 1));
    let mut current = Vec::new();
    fn recurse(remaining: u32, current: &mut Vec<u32>, out: &mut Vec<WavePartition>) {
        if remaining == 0 {
            out.push(WavePartition::new(current.clone()));
            return;
        }
        for size in 1..=remaining {
            current.push(size);
            recurse(remaining - size, current, out);
            current.pop();
        }
    }
    recurse(waves, &mut current, &mut out);
    out
}

/// Generates the pruned candidate set of §4.1.4: first group at most
/// `s1_max` (default 2) waves, last group at most `sp_max` (default 4).
///
/// For `T` beyond [`EXHAUSTIVE_WAVE_LIMIT`] the constrained space is still
/// exponential, so a structured family is generated instead: geometric
/// group-size ladders (ratios 1, 1.5, 2) seeded with small first groups and
/// clamped last groups. This keeps real-time search possible for very
/// large GEMMs and is an engineering extension over the paper, which only
/// evaluates moderate `T`.
pub fn candidate_partitions(waves: u32, s1_max: u32, sp_max: u32) -> Vec<WavePartition> {
    let mut out = Vec::new();
    for_each_candidate(waves, s1_max, sp_max, |sizes| {
        out.push(WavePartition {
            sizes: sizes.to_vec(),
        });
    });
    out
}

/// Calls `visit` with the group sizes of every [`candidate_partitions`]
/// candidate, in the same order. Within [`EXHAUSTIVE_WAVE_LIMIT`] the
/// candidates are enumerated into one stack buffer, so scoring them as
/// they come allocates nothing.
///
/// # Panics
///
/// Panics if `waves` is zero.
pub fn for_each_candidate(waves: u32, s1_max: u32, sp_max: u32, mut visit: impl FnMut(&[u32])) {
    assert!(waves > 0, "need at least one wave");
    if waves <= EXHAUSTIVE_WAVE_LIMIT {
        bounded_partitions(waves, s1_max, sp_max, &mut visit);
    } else {
        for p in structured_partitions(waves, s1_max, sp_max) {
            visit(p.sizes());
        }
    }
}

/// Every partition of `waves` whose first group has at most `s1_max`
/// waves and whose last group at most `sp_max`, plus the single group
/// (the no-overlap fallback always stays), in the order
/// [`all_partitions`] lists them: lexicographic by group sizes. The
/// tuner's argmin breaks ties by this order. Only survivors are visited.
fn bounded_partitions(waves: u32, s1_max: u32, sp_max: u32, visit: &mut dyn FnMut(&[u32])) {
    /// Visits every bounded completion of `sizes[..depth]` by
    /// `remaining` waves, in lexicographic order: the closing group, the
    /// largest size, comes last. A partition of `T` waves has at most
    /// `T` groups, so `depth < T <= sizes.len()` at every push.
    fn complete(
        remaining: u32,
        sp_max: u32,
        sizes: &mut [u32; EXHAUSTIVE_WAVE_LIMIT as usize],
        depth: usize,
        visit: &mut dyn FnMut(&[u32]),
    ) {
        for size in 1..remaining {
            if let Some(slot) = sizes.get_mut(depth) {
                *slot = size;
                complete(remaining - size, sp_max, sizes, depth + 1, visit);
            }
        }
        if remaining <= sp_max {
            if let Some(slot) = sizes.get_mut(depth) {
                *slot = remaining;
                visit(sizes.get(..=depth).unwrap_or_default());
            }
        }
    }
    let mut sizes = [0u32; EXHAUSTIVE_WAVE_LIMIT as usize];
    // With `sp_max == 0` no multi-group partition survives; skip the walk.
    if sp_max > 0 {
        for first in 1..=s1_max.min(waves - 1) {
            sizes[0] = first;
            complete(waves - first, sp_max, &mut sizes, 1, visit);
        }
    }
    // The single group's first size is `waves`, the largest, so it sorts
    // last.
    visit(&[waves]);
}

fn structured_partitions(waves: u32, s1_max: u32, sp_max: u32) -> Vec<WavePartition> {
    let mut out = Vec::new();
    for first in 1..=s1_max {
        for &ratio in &[1.0f64, 1.5, 2.0] {
            for cap in [2u32, 4, 8, 16, 32] {
                let mut sizes = vec![first];
                let mut used = first;
                let mut size = first as f64;
                while used < waves {
                    size = (size * ratio).min(cap as f64);
                    let step = (size.round() as u32).clamp(1, waves - used);
                    sizes.push(step);
                    used += step;
                }
                // Clamp the last group: split its excess into the
                // second-to-last group when possible.
                if let [.., second_last, last] = sizes.as_mut_slice() {
                    if *last > sp_max {
                        *second_last += *last - sp_max;
                        *last = sp_max;
                    }
                }
                out.push(WavePartition::new(sizes));
            }
        }
    }
    // Coarse candidates: communication-dominated workloads pay per-call
    // fragmentation for every extra group, so the best partitions there
    // are very coarse — down to a single group (no overlap at all). The
    // geometric ladders above never produce these.
    out.push(WavePartition::single(waves));
    for head in 1..=s1_max {
        for tail in [1u32, 2, 4] {
            let tail = tail.min(sp_max);
            if head + tail >= waves {
                continue;
            }
            let middle = waves - head - tail;
            // One big middle group, and a two-way split of it.
            out.push(WavePartition::new(vec![head, middle, tail]));
            if middle >= 2 {
                out.push(WavePartition::new(vec![
                    head,
                    middle / 2,
                    middle - middle / 2,
                    tail,
                ]));
            }
            // Big head-overlap variant: everything but the tail in two
            // groups.
            out.push(WavePartition::new(vec![head, waves - head]));
        }
    }
    out.sort_by(|a, b| a.sizes().cmp(b.sizes()));
    out.dedup();
    out
}

#[cfg(test)]
#[allow(clippy::indexing_slicing)]
mod tests {
    use super::*;

    #[test]
    fn try_new_rejects_empty_and_zero_sized_groups() {
        for sizes in [vec![], vec![2, 0, 1]] {
            assert!(matches!(
                WavePartition::try_new(sizes),
                Err(FlashOverlapError::BadInputs { .. })
            ));
        }
        assert_eq!(
            WavePartition::try_new(vec![1, 2]).unwrap(),
            WavePartition::new(vec![1, 2])
        );
    }

    #[test]
    fn partition_accessors() {
        let p = WavePartition::new(vec![1, 2, 2]);
        assert_eq!(p.num_groups(), 3);
        assert_eq!(p.total_waves(), 5);
        assert_eq!(p.wave_range(0), 0..1);
        assert_eq!(p.wave_range(1), 1..3);
        assert_eq!(p.wave_range(2), 3..5);
        assert_eq!(p.to_string(), "(1,2,2)");
    }

    #[test]
    fn group_of_wave_is_consistent_with_ranges() {
        let p = WavePartition::new(vec![2, 3, 1]);
        for g in 0..p.num_groups() {
            for w in p.wave_range(g) {
                assert_eq!(p.group_of_wave(w), g);
            }
        }
    }

    #[test]
    fn per_wave_and_single_partitions() {
        assert_eq!(WavePartition::per_wave(4).sizes(), &[1, 1, 1, 1]);
        assert_eq!(WavePartition::single(4).sizes(), &[4]);
    }

    #[test]
    fn check_covers_detects_mismatch() {
        let p = WavePartition::new(vec![2, 2]);
        assert!(p.check_covers(4).is_ok());
        assert!(matches!(
            p.check_covers(5),
            Err(FlashOverlapError::PartitionMismatch { .. })
        ));
    }

    #[test]
    fn all_partitions_counts_compositions() {
        // The number of compositions of T is 2^(T-1) (the paper's design
        // space size).
        for t in 1..=10u32 {
            assert_eq!(all_partitions(t).len(), 1usize << (t - 1), "T={t}");
        }
    }

    #[test]
    fn all_partitions_cover_exactly() {
        for p in all_partitions(6) {
            assert_eq!(p.total_waves(), 6);
        }
    }

    #[test]
    fn paper_example_eight_waves_gives_128_candidates() {
        // Sec. 4.1.2: T = 8 -> 2^7 = 128 candidates before pruning.
        assert_eq!(all_partitions(8).len(), 128);
    }

    #[test]
    fn candidates_respect_head_tail_constraints() {
        let cands = candidate_partitions(10, 2, 4);
        assert!(!cands.is_empty());
        for p in &cands {
            let sizes = p.sizes();
            if sizes.len() > 1 {
                assert!(sizes[0] <= 2, "first group too large in {p}");
                assert!(*sizes.last().unwrap() <= 4, "last group too large in {p}");
            }
            assert_eq!(p.total_waves(), 10);
        }
        // Pruning really removes candidates.
        assert!(cands.len() < all_partitions(10).len());
    }

    #[test]
    fn bounded_candidates_equal_the_filtered_full_space_in_order() {
        // The reference: the full design space, then the S1/SP filter.
        // The tuner breaks argmin ties by candidate order, so the order
        // must match too.
        for waves in 1..=EXHAUSTIVE_WAVE_LIMIT {
            let all = all_partitions(waves);
            for s1 in 0..=5 {
                for sp in 0..=5 {
                    let expected: Vec<WavePartition> = all
                        .iter()
                        .filter(|p| {
                            let sizes = p.sizes();
                            sizes.len() == 1
                                || (sizes.first().is_some_and(|&s| s <= s1)
                                    && sizes.last().is_some_and(|&s| s <= sp))
                        })
                        .cloned()
                        .collect();
                    assert_eq!(
                        candidate_partitions(waves, s1, sp),
                        expected,
                        "T={waves} S1={s1} SP={sp}"
                    );
                }
            }
        }
    }

    #[test]
    fn structured_candidates_for_large_t() {
        let cands = candidate_partitions(64, 2, 4);
        assert!(!cands.is_empty());
        assert!(cands.len() < 200, "structured family must stay small");
        for p in &cands {
            assert_eq!(p.total_waves(), 64);
            // Fine partitions honor the head bound; coarse fallbacks
            // (1-2 groups, for communication-dominated workloads) are
            // exempt.
            assert!(p.sizes()[0] <= 2 || p.num_groups() <= 2);
        }
        // The no-overlap fallback is always a candidate.
        assert!(cands.contains(&WavePartition::single(64)));
        // Candidate sets are duplicate-free.
        let mut sorted = cands.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), cands.len());
    }

    #[test]
    fn single_wave_has_single_candidate() {
        let cands = candidate_partitions(1, 2, 4);
        assert_eq!(cands, vec![WavePartition::new(vec![1])]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_group_size_panics() {
        let _ = WavePartition::new(vec![1, 0]);
    }
}
