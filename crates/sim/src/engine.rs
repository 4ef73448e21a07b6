//! The event queue and simulation driver.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;
use std::rc::Rc;

use crate::time::{SimDuration, SimTime};

/// An event callback: runs against the world and may schedule more events.
type EventFn<W> = Box<dyn FnOnce(&mut W, &mut Sim<W>)>;

/// An observer attached to the driver with [`Sim::set_probe`].
///
/// Probes see the world after every event and once more when the queue
/// drains; they never mutate the schedule. The sanitizer (`simsan`) uses
/// the drain hook to flag waits that are still parked when the program
/// should have finished — a lost signal is invisible to the event loop
/// itself, which just runs out of events.
pub trait EngineProbe<W> {
    /// Called after each event has run, with the clock at that event.
    fn after_event(&self, _now: SimTime, _world: &mut W) {}

    /// Called once when [`Sim::run`] drains the queue without error.
    fn on_drain(&self, _now: SimTime, _world: &mut W) {}
}

/// Errors produced by the simulation driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The event budget was exhausted before the queue drained, which almost
    /// always means an event loop is rescheduling itself forever.
    EventBudgetExhausted {
        /// Number of events processed before giving up.
        processed: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::EventBudgetExhausted { processed } => write!(
                f,
                "simulation event budget exhausted after {processed} events \
                 (likely a runaway self-rescheduling event)"
            ),
        }
    }
}

impl Error for SimError {}

struct Queued<W> {
    at: SimTime,
    seq: u64,
    run: EventFn<W>,
}

impl<W> PartialEq for Queued<W> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<W> Eq for Queued<W> {}

impl<W> PartialOrd for Queued<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<W> Ord for Queued<W> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest (time, seq)
        // pops first. Same-time events fire in insertion (FIFO) order.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A discrete-event simulator over a caller-provided world type `W`.
///
/// The simulator owns the clock and the pending-event queue; the world (GPU
/// cluster state, buffers, counters, ...) is owned by the caller and passed
/// into [`Sim::run`]. Events are `FnOnce` closures so they can move captured
/// state (completion tokens, buffers) exactly once.
///
/// # Examples
///
/// ```
/// use sim::{Sim, SimDuration, SimTime};
///
/// let mut sim: Sim<u32> = Sim::new();
/// sim.schedule_at(SimTime::from_nanos(42), |w, s| {
///     *w += 1;
///     assert_eq!(s.now(), SimTime::from_nanos(42));
/// });
/// let mut world = 0;
/// let end = sim.run(&mut world).unwrap();
/// assert_eq!((world, end), (1, SimTime::from_nanos(42)));
/// ```
pub struct Sim<W> {
    now: SimTime,
    queue: BinaryHeap<Queued<W>>,
    next_seq: u64,
    processed: u64,
    event_budget: u64,
    probe: Option<Rc<dyn EngineProbe<W>>>,
}

impl<W> fmt::Debug for Sim<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("processed", &self.processed)
            .field("event_budget", &self.event_budget)
            .field("probe", &self.probe.is_some())
            .finish()
    }
}

impl<W> Default for Sim<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Sim<W> {
    /// Default maximum number of events a single `run` may process.
    pub const DEFAULT_EVENT_BUDGET: u64 = 500_000_000;

    /// Creates an empty simulator at t = 0.
    pub fn new() -> Self {
        let mut sim = Sim {
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            next_seq: 0,
            processed: 0,
            event_budget: 0,
            probe: None,
        };
        sim.reset();
        sim
    }

    /// Returns the simulator to the state [`Sim::new`] gives — t = 0,
    /// sequence 0, nothing processed, the default event budget, no probe
    /// and an empty queue — while keeping the queue's allocation. Pending
    /// events are dropped unrun. Every field is named here, so a new
    /// field does not compile until its reset is decided.
    pub fn reset(&mut self) {
        let Sim {
            now,
            queue,
            next_seq,
            processed,
            event_budget,
            probe,
        } = self;
        *now = SimTime::ZERO;
        queue.clear();
        *next_seq = 0;
        *processed = 0;
        *event_budget = Self::DEFAULT_EVENT_BUDGET;
        *probe = None;
    }

    /// Overrides the runaway-event budget (see [`SimError`]).
    pub fn with_event_budget(mut self, budget: u64) -> Self {
        self.event_budget = budget;
        self
    }

    /// Attaches an observer called after every event and at queue drain.
    pub fn set_probe(&mut self, probe: Rc<dyn EngineProbe<W>>) {
        self.probe = Some(probe);
    }

    /// Returns the current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Returns the number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Returns the number of events currently pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past; events cannot rewrite history.
    pub fn schedule_at<F>(&mut self, at: SimTime, event: F)
    where
        F: FnOnce(&mut W, &mut Sim<W>) + 'static,
    {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: at={:?} now={:?}",
            at,
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Queued {
            at,
            seq,
            run: Box::new(event),
        });
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_in<F>(&mut self, delay: SimDuration, event: F)
    where
        F: FnOnce(&mut W, &mut Sim<W>) + 'static,
    {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedules `event` to fire at the current time, after all events
    /// already queued for the current time.
    pub fn schedule_now<F>(&mut self, event: F)
    where
        F: FnOnce(&mut W, &mut Sim<W>) + 'static,
    {
        self.schedule_at(self.now, event);
    }

    /// Pops and runs a single event, advancing the clock to it.
    ///
    /// Returns `false` if the queue was empty.
    pub fn step(&mut self, world: &mut W) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "event queue went backwards");
        self.now = ev.at;
        self.processed += 1;
        (ev.run)(world, self);
        // Borrow, don't clone: this runs once per event, and the Rc
        // refcount bounce shows up in the serve hot path.
        if let Some(probe) = self.probe.as_deref() {
            probe.after_event(self.now, world);
        }
        true
    }

    /// Runs until the event queue drains; returns the final simulated time.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventBudgetExhausted`] if more events fire than
    /// the configured budget allows, which indicates a runaway event loop.
    pub fn run(&mut self, world: &mut W) -> Result<SimTime, SimError> {
        while self.step(world) {
            if self.processed > self.event_budget {
                return Err(SimError::EventBudgetExhausted {
                    processed: self.processed,
                });
            }
        }
        if let Some(probe) = self.probe.as_deref() {
            probe.on_drain(self.now, world);
        }
        Ok(self.now)
    }

    /// Runs until the queue drains or the next event lies strictly after
    /// `deadline`; the clock never advances past `deadline`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventBudgetExhausted`] like [`Sim::run`].
    pub fn run_until(&mut self, world: &mut W, deadline: SimTime) -> Result<SimTime, SimError> {
        loop {
            match self.queue.peek() {
                Some(ev) if ev.at <= deadline => {
                    self.step(world);
                    if self.processed > self.event_budget {
                        return Err(SimError::EventBudgetExhausted {
                            processed: self.processed,
                        });
                    }
                }
                _ => break,
            }
        }
        if self.now < deadline {
            self.now = deadline;
        }
        Ok(self.now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_matches_a_fresh_simulator() {
        let mut sim: Sim<Vec<u64>> = Sim::new().with_event_budget(3);
        sim.set_probe(Rc::new(NoProbe));
        sim.schedule_at(SimTime::from_nanos(4), |w, _| w.push(4));
        sim.schedule_at(SimTime::from_nanos(9), |w, _| w.push(9));
        let mut world = Vec::new();
        sim.run_until(&mut world, SimTime::from_nanos(5)).unwrap();
        sim.reset();
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(sim.pending(), 0, "queued events are dropped");
        assert_eq!(sim.events_processed(), 0);
        assert!(sim.probe.is_none());
        assert_eq!(sim.event_budget, Sim::<Vec<u64>>::DEFAULT_EVENT_BUDGET);
        // Sequence numbers restart: same-time events stay FIFO from 0.
        sim.schedule_now(|w, _| w.push(1));
        sim.schedule_now(|w, _| w.push(2));
        assert_eq!(sim.next_seq, 2);
        sim.run(&mut world).unwrap();
        assert_eq!(world, vec![4, 1, 2]);
    }

    struct NoProbe;
    impl EngineProbe<Vec<u64>> for NoProbe {}

    #[test]
    fn events_fire_in_time_order() {
        let mut sim: Sim<Vec<u64>> = Sim::new();
        sim.schedule_at(SimTime::from_nanos(30), |w, _| w.push(30));
        sim.schedule_at(SimTime::from_nanos(10), |w, _| w.push(10));
        sim.schedule_at(SimTime::from_nanos(20), |w, _| w.push(20));
        let mut world = Vec::new();
        let end = sim.run(&mut world).unwrap();
        assert_eq!(world, vec![10, 20, 30]);
        assert_eq!(end, SimTime::from_nanos(30));
    }

    #[test]
    fn same_time_events_fire_fifo() {
        let mut sim: Sim<Vec<u64>> = Sim::new();
        for i in 0..16 {
            sim.schedule_at(SimTime::from_nanos(5), move |w, _| w.push(i));
        }
        let mut world = Vec::new();
        sim.run(&mut world).unwrap();
        assert_eq!(world, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim: Sim<Vec<u64>> = Sim::new();
        sim.schedule_at(SimTime::from_nanos(1), |w, s| {
            w.push(1);
            s.schedule_in(SimDuration::from_nanos(4), |w, _| w.push(2));
        });
        let mut world = Vec::new();
        let end = sim.run(&mut world).unwrap();
        assert_eq!(world, vec![1, 2]);
        assert_eq!(end, SimTime::from_nanos(5));
    }

    #[test]
    fn schedule_now_runs_after_current_time_events() {
        let mut sim: Sim<Vec<u64>> = Sim::new();
        sim.schedule_at(SimTime::from_nanos(5), |w, s| {
            w.push(1);
            s.schedule_now(|w, _| w.push(3));
        });
        sim.schedule_at(SimTime::from_nanos(5), |w, _| w.push(2));
        let mut world = Vec::new();
        sim.run(&mut world).unwrap();
        assert_eq!(world, vec![1, 2, 3]);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim: Sim<Vec<u64>> = Sim::new();
        sim.schedule_at(SimTime::from_nanos(10), |w, _| w.push(10));
        sim.schedule_at(SimTime::from_nanos(20), |w, _| w.push(20));
        let mut world = Vec::new();
        let t = sim.run_until(&mut world, SimTime::from_nanos(15)).unwrap();
        assert_eq!(world, vec![10]);
        assert_eq!(t, SimTime::from_nanos(15));
        assert_eq!(sim.pending(), 1);
        sim.run(&mut world).unwrap();
        assert_eq!(world, vec![10, 20]);
    }

    #[test]
    fn runaway_loop_hits_budget() {
        fn tick(w: &mut u64, s: &mut Sim<u64>) {
            *w += 1;
            s.schedule_in(SimDuration::from_nanos(1), tick);
        }
        let mut sim: Sim<u64> = Sim::new().with_event_budget(1000);
        sim.schedule_now(tick);
        let mut world = 0;
        let err = sim.run(&mut world).unwrap_err();
        assert!(matches!(err, SimError::EventBudgetExhausted { .. }));
        assert!(format!("{err}").contains("budget"));
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim: Sim<()> = Sim::new();
        sim.schedule_at(SimTime::from_nanos(10), |_, s| {
            s.schedule_at(SimTime::from_nanos(5), |_, _| {});
        });
        sim.run(&mut ()).unwrap();
    }

    #[test]
    fn probe_sees_every_event_and_the_drain() {
        use std::cell::RefCell;

        #[derive(Default)]
        struct Recorder {
            after: RefCell<Vec<u64>>,
            drains: RefCell<u32>,
        }
        impl EngineProbe<u32> for Recorder {
            fn after_event(&self, now: SimTime, world: &mut u32) {
                self.after.borrow_mut().push(now.as_nanos());
                *world += 1;
            }
            fn on_drain(&self, _now: SimTime, _world: &mut u32) {
                *self.drains.borrow_mut() += 1;
            }
        }

        let probe = Rc::new(Recorder::default());
        let mut sim: Sim<u32> = Sim::new();
        sim.set_probe(probe.clone());
        sim.schedule_at(SimTime::from_nanos(3), |_, _| {});
        sim.schedule_at(SimTime::from_nanos(7), |_, _| {});
        let mut world = 0u32;
        sim.run(&mut world).unwrap();
        assert_eq!(*probe.after.borrow(), vec![3, 7]);
        assert_eq!(*probe.drains.borrow(), 1);
        assert_eq!(world, 2);
    }

    #[test]
    fn processed_and_pending_counters() {
        let mut sim: Sim<()> = Sim::new();
        sim.schedule_at(SimTime::from_nanos(1), |_, _| {});
        sim.schedule_at(SimTime::from_nanos(2), |_, _| {});
        assert_eq!(sim.pending(), 2);
        sim.run(&mut ()).unwrap();
        assert_eq!(sim.events_processed(), 2);
        assert_eq!(sim.pending(), 0);
    }
}
