//! Group-wise tile-counting tables (§3.2.4).
//!
//! A counting table has one slot per group `G_1..G_P`. The GEMM epilogue
//! atomically increments the slot of each finished tile's group; a
//! signaling kernel waits until a slot reaches the group's tile count and
//! then lets the corresponding communication proceed. Here the "atomic add"
//! is an ordinary add inside a single-threaded simulation, and a waiting
//! signaling kernel is represented by a registered [`Waiter`] that the
//! increment releases (into the caller's buffer) once its threshold is
//! met.
//!
//! This module sits on the per-tile signaling hot path, so unchecked
//! indexing is opted out in favour of explicit bounds handling.
#![warn(clippy::indexing_slicing)]

use sim::SimDuration;

use crate::stream::Completion;

/// A signaling kernel blocked on a counter slot.
#[derive(Debug)]
pub struct Waiter {
    /// The group slot the waiter watches.
    pub group: usize,
    /// The count the waiter is waiting for.
    pub threshold: u32,
    /// The stream-op completion to fire once the threshold is reached.
    pub completion: Completion,
}

/// What an armed fault does to one epilogue increment (fault injection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncrementFault {
    /// The increment is lost: the count never advances (a lost signal).
    Dropped,
    /// The increment lands late: the count advances only after the delay.
    Delayed(SimDuration),
}

/// An armed increment fault: the next `remaining` increments to `group`
/// take `kind` instead of landing normally.
#[derive(Debug, Clone, Copy)]
struct ArmedFault {
    group: usize,
    kind: IncrementFault,
    remaining: u32,
}

/// A counting table tracking per-group finished-tile counts.
#[derive(Debug, Default)]
pub struct CounterTable {
    counts: Vec<u32>,
    waiters: Vec<Vec<Waiter>>,
    faults: Vec<ArmedFault>,
}

impl CounterTable {
    /// Creates a table with `groups` zero-initialized slots.
    pub fn new(groups: usize) -> Self {
        let mut table = CounterTable::default();
        table.reinit(groups);
        table
    }

    /// Returns the table to the state [`CounterTable::new`] gives for
    /// `groups` slots — zero counts, no parked waiter, no armed fault —
    /// keeping its slot vectors' allocations, the per-slot waiter lists
    /// included (a reused simulation world recycles its tables this way).
    /// Parked waiters are dropped.
    pub(crate) fn reinit(&mut self, groups: usize) {
        let CounterTable {
            counts,
            waiters,
            faults,
        } = self;
        counts.clear();
        counts.resize(groups, 0);
        waiters.truncate(groups);
        waiters.iter_mut().for_each(Vec::clear);
        waiters.resize_with(groups, Vec::new);
        faults.clear();
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.counts.len()
    }

    /// Current count of a group.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    pub fn count(&self, group: usize) -> u32 {
        self.counts.get(group).copied().expect("group out of range")
    }

    /// Increments `group` by `by` and appends the waiters whose
    /// thresholds are now satisfied to `released`, in the order `by` unit
    /// increments would release them: by threshold, ties in registration
    /// order. The caller owns `released` so the epilogue hot path reuses
    /// one buffer instead of allocating per increment.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    pub fn increment(&mut self, group: usize, by: u32, released: &mut Vec<Waiter>) {
        let slot = self.counts.get_mut(group).expect("group out of range");
        *slot += by;
        let count = *slot;
        let pending = self.waiters.get_mut(group).expect("group out of range");
        let start = released.len();
        released.extend(pending.extract_if(.., |w| w.threshold <= count));
        // A parked threshold always exceeds the count it was parked at, so
        // the unit step that releases a waiter is the one reaching its
        // threshold; the stable sort keeps registration order within a
        // step.
        if let Some(new) = released.get_mut(start..) {
            new.sort_by_key(|w| w.threshold);
        }
    }

    /// Registers a waiter for `group` reaching `threshold`.
    ///
    /// If the threshold is already met, the completion is handed straight
    /// back (`Some`) so the caller can fire it; otherwise it is parked and
    /// `None` is returned.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    pub fn register(
        &mut self,
        group: usize,
        threshold: u32,
        completion: Completion,
    ) -> Option<Completion> {
        if self.count(group) >= threshold {
            return Some(completion);
        }
        let pending = self.waiters.get_mut(group).expect("group out of range");
        pending.push(Waiter {
            group,
            threshold,
            completion,
        });
        None
    }

    /// Iterates over the still-parked waiters, in registration order per
    /// group. A non-empty result after the event queue drains means the
    /// program lost a signal: some threshold can never be reached.
    pub fn parked_waiters(&self) -> impl Iterator<Item = &Waiter> {
        self.waiters.iter().flatten()
    }

    /// Removes and returns every parked waiter (watchdog recovery: the
    /// caller decides what to do with the revoked completions). The counts
    /// are left untouched.
    pub fn take_parked(&mut self) -> Vec<Waiter> {
        self.waiters.iter_mut().flat_map(std::mem::take).collect()
    }

    /// Arms a fault: the next `count` increments to `group` take `fault`
    /// instead of landing normally (consumed by
    /// [`CounterTable::take_increment_fault`] on the epilogue hot path).
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    pub fn arm_fault(&mut self, group: usize, fault: IncrementFault, count: u32) {
        assert!(group < self.counts.len(), "group out of range");
        if count > 0 {
            self.faults.push(ArmedFault {
                group,
                kind: fault,
                remaining: count,
            });
        }
    }

    /// Consumes one armed fault application for an increment to `group`,
    /// if any is armed. Returns what the fault does to the increment.
    pub fn take_increment_fault(&mut self, group: usize) -> Option<IncrementFault> {
        let armed = self
            .faults
            .iter_mut()
            .find(|f| f.group == group && f.remaining > 0)?;
        armed.remaining -= 1;
        let kind = armed.kind;
        self.faults.retain(|f| f.remaining > 0);
        Some(kind)
    }

    /// Disarms every armed increment fault and returns how many armed
    /// entries were cleared. Chain recovery quarantines a wedged
    /// segment's leftover fault budget with this before the table is
    /// handed to the next same-parity segment, so a fault armed for
    /// segment `k` can never leak into segment `k + 2`.
    pub fn disarm_faults(&mut self) -> usize {
        let cleared = self.faults.len();
        self.faults.clear();
        cleared
    }

    /// Resets all counts to zero (table reuse across iterations).
    ///
    /// # Panics
    ///
    /// Panics if any waiter is still parked — resetting under a waiter
    /// would deadlock it.
    pub fn reset(&mut self) {
        assert!(
            self.waiters.iter().all(Vec::is_empty),
            "resetting a counter table with parked waiters"
        );
        self.counts.iter_mut().for_each(|c| *c = 0);
    }
}

#[cfg(test)]
#[allow(clippy::indexing_slicing)]
mod tests {
    use super::*;

    fn completion() -> Completion {
        Completion::for_test(0, 0)
    }

    /// The waiters one increment releases.
    fn bump(t: &mut CounterTable, group: usize, by: u32) -> Vec<Waiter> {
        let mut released = Vec::new();
        t.increment(group, by, &mut released);
        released
    }

    #[test]
    fn counts_accumulate() {
        let mut t = CounterTable::new(3);
        bump(&mut t, 1, 2);
        bump(&mut t, 1, 3);
        assert_eq!(t.count(0), 0);
        assert_eq!(t.count(1), 5);
    }

    #[test]
    fn waiter_wakes_exactly_at_threshold() {
        let mut t = CounterTable::new(1);
        assert!(t.register(0, 4, completion()).is_none());
        assert!(bump(&mut t, 0, 3).is_empty());
        let woken = bump(&mut t, 0, 1);
        assert_eq!(woken.len(), 1);
        assert_eq!(woken[0].threshold, 4);
    }

    #[test]
    fn already_met_threshold_returns_completion() {
        let mut t = CounterTable::new(1);
        bump(&mut t, 0, 10);
        assert!(t.register(0, 4, completion()).is_some());
    }

    #[test]
    fn multiple_waiters_same_group() {
        let mut t = CounterTable::new(1);
        assert!(t.register(0, 2, completion()).is_none());
        assert!(t.register(0, 5, completion()).is_none());
        let woken = bump(&mut t, 0, 2);
        assert_eq!(woken.len(), 1);
        let woken = bump(&mut t, 0, 3);
        assert_eq!(woken.len(), 1);
        assert_eq!(woken[0].threshold, 5);
    }

    #[test]
    fn overshoot_wakes_waiter() {
        let mut t = CounterTable::new(1);
        assert!(t.register(0, 3, completion()).is_none());
        let woken = bump(&mut t, 0, 7);
        assert_eq!(woken.len(), 1);
    }

    #[test]
    fn reset_zeroes_counts() {
        let mut t = CounterTable::new(2);
        bump(&mut t, 0, 5);
        t.reset();
        assert_eq!(t.count(0), 0);
    }

    #[test]
    #[should_panic(expected = "parked waiters")]
    fn reset_with_waiters_panics() {
        let mut t = CounterTable::new(1);
        t.register(0, 1, completion());
        t.reset();
    }

    #[test]
    fn armed_drop_fault_is_consumed_per_increment() {
        let mut t = CounterTable::new(2);
        t.arm_fault(1, IncrementFault::Dropped, 2);
        assert_eq!(t.take_increment_fault(0), None);
        assert_eq!(t.take_increment_fault(1), Some(IncrementFault::Dropped));
        assert_eq!(t.take_increment_fault(1), Some(IncrementFault::Dropped));
        assert_eq!(t.take_increment_fault(1), None, "fault budget exhausted");
    }

    #[test]
    fn armed_delay_fault_carries_duration() {
        let mut t = CounterTable::new(1);
        let d = SimDuration::from_nanos(750);
        t.arm_fault(0, IncrementFault::Delayed(d), 1);
        assert_eq!(t.take_increment_fault(0), Some(IncrementFault::Delayed(d)));
        assert_eq!(t.take_increment_fault(0), None);
    }

    #[test]
    fn take_parked_revokes_waiters() {
        let mut t = CounterTable::new(2);
        assert!(t.register(0, 3, completion()).is_none());
        assert!(t.register(1, 5, completion()).is_none());
        let parked = t.take_parked();
        assert_eq!(parked.len(), 2);
        assert_eq!(t.parked_waiters().count(), 0);
        // Counts untouched; a later register sees the real state.
        assert_eq!(t.count(0), 0);
    }

    #[test]
    fn disarm_faults_quarantines_leftover_budget() {
        let mut t = CounterTable::new(2);
        t.arm_fault(0, IncrementFault::Dropped, 3);
        t.arm_fault(1, IncrementFault::Delayed(SimDuration::from_nanos(10)), 1);
        assert_eq!(t.take_increment_fault(0), Some(IncrementFault::Dropped));
        assert_eq!(t.disarm_faults(), 2);
        assert_eq!(t.take_increment_fault(0), None, "budget quarantined");
        assert_eq!(t.take_increment_fault(1), None, "budget quarantined");
        assert_eq!(t.disarm_faults(), 0, "idempotent once cleared");
    }

    #[test]
    #[should_panic(expected = "group out of range")]
    fn arming_fault_out_of_range_panics() {
        let mut t = CounterTable::new(1);
        t.arm_fault(3, IncrementFault::Dropped, 1);
    }

    /// `(threshold, stream)` of the waiters `increment` releases, in
    /// release order.
    fn released(t: &mut CounterTable, group: usize, by: u32) -> Vec<(u32, usize)> {
        bump(t, group, by)
            .iter()
            .map(|w| (w.threshold, w.completion.stream()))
            .collect()
    }

    #[test]
    fn bulk_increment_releases_in_unit_increment_order() {
        // Waiters parked out of threshold order, with a tie at 3; each
        // waiter's stream id is its registration index.
        let parked = [5, 2, 3, 7, 3, 4];
        let mut bulk = CounterTable::new(1);
        let mut unit = CounterTable::new(1);
        for (i, &threshold) in parked.iter().enumerate() {
            assert!(bulk
                .register(0, threshold, Completion::for_test(0, i))
                .is_none());
            assert!(unit
                .register(0, threshold, Completion::for_test(0, i))
                .is_none());
        }
        let expected: Vec<(u32, usize)> = (0..5).flat_map(|_| released(&mut unit, 0, 1)).collect();
        assert_eq!(expected, [(2, 1), (3, 2), (3, 4), (4, 5), (5, 0)]);
        assert_eq!(released(&mut bulk, 0, 5), expected);
        assert_eq!(bulk.count(0), unit.count(0));
        assert_eq!(bulk.parked_waiters().count(), 1, "threshold 7 stays parked");
    }

    #[test]
    fn increment_appends_after_earlier_releases() {
        let mut t = CounterTable::new(2);
        assert!(t.register(0, 2, Completion::for_test(0, 0)).is_none());
        assert!(t.register(1, 3, Completion::for_test(0, 1)).is_none());
        assert!(t.register(1, 1, Completion::for_test(0, 2)).is_none());
        let mut released = Vec::new();
        t.increment(0, 2, &mut released);
        t.increment(1, 3, &mut released);
        let order: Vec<(usize, u32)> = released.iter().map(|w| (w.group, w.threshold)).collect();
        // Each increment sorts only what it released.
        assert_eq!(order, [(0, 2), (1, 1), (1, 3)]);
    }

    #[test]
    fn reinit_matches_a_fresh_table() {
        let mut t = CounterTable::new(3);
        bump(&mut t, 2, 4);
        assert!(t.register(1, 9, completion()).is_none());
        t.arm_fault(0, IncrementFault::Dropped, 2);
        t.reinit(2);
        assert_eq!(t.num_groups(), 2);
        assert_eq!((t.count(0), t.count(1)), (0, 0));
        assert_eq!(t.parked_waiters().count(), 0);
        assert_eq!(t.take_increment_fault(0), None);
        t.reinit(4);
        assert_eq!(t.num_groups(), 4);
        assert_eq!(t.count(3), 0);
    }

    #[test]
    fn fig4_scenario() {
        // Fig. 4: three groups of |G| = 2, 4, 2 tiles. Waves finish tiles
        // in bundles; each group's comm triggers exactly when its count
        // reaches its size.
        let mut t = CounterTable::new(3);
        assert!(t.register(0, 2, completion()).is_none());
        assert!(t.register(1, 4, completion()).is_none());
        assert!(t.register(2, 2, completion()).is_none());
        // Wave 1 finishes 2 tiles of G1.
        assert_eq!(bump(&mut t, 0, 2).len(), 1);
        // Wave 2 finishes 2 tiles of G2: not enough yet.
        assert_eq!(bump(&mut t, 1, 2).len(), 0);
        // Wave 3 finishes 2 more tiles of G2: triggers.
        assert_eq!(bump(&mut t, 1, 2).len(), 1);
        // Wave 4 finishes G3.
        assert_eq!(bump(&mut t, 2, 2).len(), 1);
    }
}
