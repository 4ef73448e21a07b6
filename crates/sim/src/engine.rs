//! The event queue and simulation driver.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;
use std::rc::Rc;

use crate::time::{SimDuration, SimTime};

/// A closed set of things that can happen in a world, defined by that
/// world's crate: one enum whose variants carry the few words of state
/// an event needs, with the rest in slabs the world owns.
///
/// The engine stores events by value in its heap and hands each back to
/// [`Event::fire`] when the clock reaches it, so dispatch is one `match`
/// and scheduling allocates nothing once the heap has grown.
pub trait Event: Sized {
    /// The world the events run against.
    type World;

    /// Runs the event against the world; it may schedule more events.
    fn fire(self, world: &mut Self::World, sim: &mut Sim<Self>);
}

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

struct Queued<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Queued<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Queued<E> {}

impl<E> PartialOrd for Queued<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Queued<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest (time, seq)
        // pops first. Same-time events fire in insertion (FIFO) order.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A discrete-event simulator over a closed event type `E`.
///
/// The simulator owns the clock and the pending-event queue; the world (GPU
/// cluster state, buffers, counters, ...) is owned by the caller and passed
/// into [`Sim::run`]. Events fire in `(time, insertion sequence)` order,
/// so same-time events fire first in, first out.
///
/// # Examples
///
/// ```
/// use sim::{Event, Sim, SimTime};
///
/// /// The world's whole event vocabulary.
/// enum Tick {
///     Add(u32),
/// }
///
/// impl Event for Tick {
///     type World = u32;
///     fn fire(self, world: &mut u32, sim: &mut Sim<Tick>) {
///         match self {
///             Tick::Add(n) => {
///                 *world += n;
///                 assert_eq!(sim.now(), SimTime::from_nanos(42));
///             }
///         }
///     }
/// }
///
/// let mut sim: Sim<Tick> = Sim::new();
/// sim.schedule_at(SimTime::from_nanos(42), Tick::Add(1));
/// let mut world = 0;
/// let end = sim.run(&mut world).unwrap();
/// assert_eq!((world, end), (1, SimTime::from_nanos(42)));
/// ```
pub struct Sim<E: Event> {
    now: SimTime,
    queue: BinaryHeap<Queued<E>>,
    next_seq: u64,
    processed: u64,
    event_budget: u64,
    probe: Option<Rc<dyn EngineProbe<E::World>>>,
}

impl<E: Event> fmt::Debug for Sim<E> {
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

impl<E: Event> Default for Sim<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Event> Sim<E> {
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
    pub fn set_probe(&mut self, probe: Rc<dyn EngineProbe<E::World>>) {
        self.probe = Some(probe);
    }

    /// Returns the current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Returns the number of events currently pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Returns how many events the queue holds without reallocating.
    pub fn capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past; events cannot rewrite history.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: at={:?} now={:?}",
            at,
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Queued { at, seq, event });
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedules `event` to fire at the current time, after all events
    /// already queued for the current time.
    pub fn schedule_now(&mut self, event: E) {
        self.schedule_at(self.now, event);
    }

    /// Pops and runs a single event, advancing the clock to it.
    ///
    /// Returns `false` if the queue was empty.
    pub fn step(&mut self, world: &mut E::World) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "event queue went backwards");
        self.now = ev.at;
        self.processed += 1;
        ev.event.fire(world, self);
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
    pub fn run(&mut self, world: &mut E::World) -> Result<SimTime, SimError> {
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
    pub fn run_until(
        &mut self,
        world: &mut E::World,
        deadline: SimTime,
    ) -> Result<SimTime, SimError> {
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

    /// The test world's event vocabulary; the world is the log of pushed
    /// values.
    enum Ev {
        /// Pushes a value.
        Push(u64),
        /// Pushes `value`, then schedules `Push(next)` `delay` ns later.
        PushThen { value: u64, delay: u64, next: u64 },
        /// Pushes a value and reschedules itself 1 ns later, forever.
        Tick,
        /// Schedules a no-op at an absolute time.
        ScheduleAt(u64),
    }

    impl Event for Ev {
        type World = Vec<u64>;

        fn fire(self, world: &mut Vec<u64>, sim: &mut Sim<Ev>) {
            match self {
                Ev::Push(v) => world.push(v),
                Ev::PushThen { value, delay, next } => {
                    world.push(value);
                    sim.schedule_in(SimDuration::from_nanos(delay), Ev::Push(next));
                }
                Ev::Tick => {
                    world.push(0);
                    sim.schedule_in(SimDuration::from_nanos(1), Ev::Tick);
                }
                Ev::ScheduleAt(t) => sim.schedule_at(SimTime::from_nanos(t), Ev::Push(t)),
            }
        }
    }

    fn at(t: u64) -> SimTime {
        SimTime::from_nanos(t)
    }

    #[test]
    fn reset_matches_a_fresh_simulator() {
        let mut sim: Sim<Ev> = Sim::new().with_event_budget(3);
        sim.set_probe(Rc::new(NoProbe));
        sim.schedule_at(at(4), Ev::Push(4));
        sim.schedule_at(at(9), Ev::Push(9));
        let mut world = Vec::new();
        sim.run_until(&mut world, at(5)).unwrap();
        sim.reset();
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(sim.pending(), 0, "queued events are dropped");
        assert_eq!(sim.processed, 0);
        assert!(sim.probe.is_none());
        assert_eq!(sim.event_budget, Sim::<Ev>::DEFAULT_EVENT_BUDGET);
        // Sequence numbers restart: same-time events stay FIFO from 0.
        sim.schedule_now(Ev::Push(1));
        sim.schedule_now(Ev::Push(2));
        assert_eq!(sim.next_seq, 2);
        sim.run(&mut world).unwrap();
        assert_eq!(world, vec![4, 1, 2]);
    }

    struct NoProbe;
    impl EngineProbe<Vec<u64>> for NoProbe {}

    #[test]
    fn events_fire_in_time_order() {
        let mut sim: Sim<Ev> = Sim::new();
        for t in [30, 10, 20] {
            sim.schedule_at(at(t), Ev::Push(t));
        }
        let mut world = Vec::new();
        let end = sim.run(&mut world).unwrap();
        assert_eq!(world, vec![10, 20, 30]);
        assert_eq!(end, at(30));
    }

    #[test]
    fn same_time_events_fire_fifo() {
        let mut sim: Sim<Ev> = Sim::new();
        for i in 0..16 {
            sim.schedule_at(at(5), Ev::Push(i));
        }
        let mut world = Vec::new();
        sim.run(&mut world).unwrap();
        assert_eq!(world, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim: Sim<Ev> = Sim::new();
        let push_then = Ev::PushThen {
            value: 1,
            delay: 4,
            next: 2,
        };
        sim.schedule_at(at(1), push_then);
        let mut world = Vec::new();
        let end = sim.run(&mut world).unwrap();
        assert_eq!(world, vec![1, 2]);
        assert_eq!(end, at(5));
    }

    #[test]
    fn schedule_now_runs_after_current_time_events() {
        let mut sim: Sim<Ev> = Sim::new();
        let push_then = Ev::PushThen {
            value: 1,
            delay: 0,
            next: 3,
        };
        sim.schedule_at(at(5), push_then);
        sim.schedule_at(at(5), Ev::Push(2));
        let mut world = Vec::new();
        sim.run(&mut world).unwrap();
        assert_eq!(world, vec![1, 2, 3]);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim: Sim<Ev> = Sim::new();
        sim.schedule_at(at(10), Ev::Push(10));
        sim.schedule_at(at(20), Ev::Push(20));
        let mut world = Vec::new();
        let t = sim.run_until(&mut world, at(15)).unwrap();
        assert_eq!(world, vec![10]);
        assert_eq!(t, at(15));
        assert_eq!(sim.pending(), 1);
        sim.run(&mut world).unwrap();
        assert_eq!(world, vec![10, 20]);
    }

    #[test]
    fn runaway_loop_hits_budget() {
        let mut sim: Sim<Ev> = Sim::new().with_event_budget(1000);
        sim.schedule_now(Ev::Tick);
        let err = sim.run(&mut Vec::new()).unwrap_err();
        assert!(matches!(err, SimError::EventBudgetExhausted { .. }));
        assert!(format!("{err}").contains("budget"));
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim: Sim<Ev> = Sim::new();
        sim.schedule_at(at(10), Ev::ScheduleAt(5));
        sim.run(&mut Vec::new()).unwrap();
    }

    #[test]
    fn probe_sees_every_event_and_the_drain() {
        use std::cell::RefCell;

        #[derive(Default)]
        struct Recorder {
            after: RefCell<Vec<u64>>,
            drains: RefCell<u32>,
        }
        impl EngineProbe<Vec<u64>> for Recorder {
            fn after_event(&self, now: SimTime, world: &mut Vec<u64>) {
                self.after.borrow_mut().push(now.as_nanos());
                world.push(100);
            }
            fn on_drain(&self, _now: SimTime, _world: &mut Vec<u64>) {
                *self.drains.borrow_mut() += 1;
            }
        }

        let probe = Rc::new(Recorder::default());
        let mut sim: Sim<Ev> = Sim::new();
        sim.set_probe(probe.clone());
        sim.schedule_at(at(3), Ev::Push(3));
        sim.schedule_at(at(7), Ev::Push(7));
        let mut world = Vec::new();
        sim.run(&mut world).unwrap();
        assert_eq!(*probe.after.borrow(), vec![3, 7]);
        assert_eq!(*probe.drains.borrow(), 1);
        assert_eq!(world, vec![3, 100, 7, 100]);
    }

    #[test]
    fn processed_and_pending_counters() {
        let mut sim: Sim<Ev> = Sim::new();
        sim.schedule_at(at(1), Ev::Push(1));
        sim.schedule_at(at(2), Ev::Push(2));
        assert_eq!(sim.pending(), 2);
        sim.run(&mut Vec::new()).unwrap();
        assert_eq!(sim.processed, 2);
        assert_eq!(sim.pending(), 0);
    }
}
