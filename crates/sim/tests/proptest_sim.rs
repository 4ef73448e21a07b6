//! Property-based tests for the simulation engine.

use proptest::prelude::*;
use sim::{Cdf, DetRng, Event, Sim, SimDuration, SimTime};

/// The test world's event vocabulary.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Records the clock.
    Stamp,
    /// Counts down the remaining delays, one event each; at zero records
    /// the clock.
    Chain { remaining: usize },
    /// Records `(now, id)` and, while `depth` lasts, spawns a same-time
    /// child and a delayed child.
    Spawn { id: u64, depth: u32 },
}

/// What the events do: the log of fired events, and the delays a chain
/// walks (last first).
#[derive(Debug, Default)]
struct World {
    log: Vec<(u64, u64)>,
    delays: Vec<u64>,
}

/// The scheduling surface both the engine and the oracle offer handlers.
trait Schedule {
    fn now(&self) -> u64;
    fn at(&mut self, t: u64, ev: Ev);
}

impl Schedule for Sim<Ev> {
    fn now(&self) -> u64 {
        Sim::now(self).as_nanos()
    }
    fn at(&mut self, t: u64, ev: Ev) {
        self.schedule_at(SimTime::from_nanos(t), ev);
    }
}

/// The delay of `id`'s delayed child: a fixed hash, zero one time in
/// five so delayed children also tie with same-time ones.
fn child_delay(id: u64) -> u64 {
    let h = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
    if h.is_multiple_of(5) {
        0
    } else {
        h % 97
    }
}

fn handle(ev: Ev, world: &mut World, s: &mut impl Schedule) {
    let now = s.now();
    match ev {
        Ev::Stamp => world.log.push((now, 0)),
        Ev::Chain { remaining: 0 } => world.log.push((now, 0)),
        Ev::Chain { remaining } => {
            let d = world.delays[remaining - 1];
            s.at(
                now + d,
                Ev::Chain {
                    remaining: remaining - 1,
                },
            );
        }
        Ev::Spawn { id, depth } => {
            world.log.push((now, id));
            if depth > 0 {
                s.at(
                    now,
                    Ev::Spawn {
                        id: id * 2 + 1,
                        depth: depth - 1,
                    },
                );
                s.at(
                    now + child_delay(id),
                    Ev::Spawn {
                        id: id * 2 + 2,
                        depth: depth - 1,
                    },
                );
            }
        }
    }
}

impl Event for Ev {
    type World = World;
    fn fire(self, world: &mut World, sim: &mut Sim<Ev>) {
        handle(self, world, sim);
    }
}

/// The oracle: a `Vec` of `(time, seq, event)` searched for its
/// minimum on every pop, with the engine's clock rules.
#[derive(Default)]
struct NaiveQueue {
    now: u64,
    seq: u64,
    pending: Vec<(u64, u64, Ev)>,
}

impl Schedule for NaiveQueue {
    fn now(&self) -> u64 {
        self.now
    }
    fn at(&mut self, t: u64, ev: Ev) {
        assert!(t >= self.now);
        self.pending.push((t, self.seq, ev));
        self.seq += 1;
    }
}

impl NaiveQueue {
    /// Fires every event at or before `deadline`, then parks the clock
    /// on the deadline if it is later.
    fn run_until(&mut self, world: &mut World, deadline: u64) -> u64 {
        self.fire_through(world, deadline);
        self.now = self.now.max(deadline);
        self.now
    }

    /// Fires every event; the clock stays on the last one.
    fn run(&mut self, world: &mut World) -> u64 {
        self.fire_through(world, u64::MAX);
        self.now
    }

    fn fire_through(&mut self, world: &mut World, deadline: u64) {
        loop {
            let next = (0..self.pending.len())
                .min_by_key(|&i| (self.pending[i].0, self.pending[i].1))
                .filter(|&i| self.pending[i].0 <= deadline);
            let Some(i) = next else { break };
            let (t, _, ev) = self.pending.remove(i);
            self.now = t;
            handle(ev, world, self);
        }
    }
}

proptest! {
    /// Against the naive oracle: the same firing order, the same clock
    /// after every `run_until` and at the end, and the same pending
    /// count, with handlers that schedule same-time and delayed events.
    #[test]
    fn engine_matches_naive_queue(
        roots in proptest::collection::vec((0u64..200, 0u32..5), 1..12),
        deadlines in proptest::collection::vec(0u64..600, 0..6),
    ) {
        let mut sim: Sim<Ev> = Sim::new();
        let mut oracle = NaiveQueue::default();
        for (i, &(t, depth)) in roots.iter().enumerate() {
            let ev = Ev::Spawn { id: 1000 * (i as u64 + 1), depth };
            sim.at(t, ev);
            oracle.at(t, ev);
        }
        let mut deadlines = deadlines;
        deadlines.sort_unstable();
        let (mut got, mut want) = (World::default(), World::default());
        for &d in &deadlines {
            let t = sim.run_until(&mut got, SimTime::from_nanos(d)).unwrap();
            prop_assert_eq!(t.as_nanos(), oracle.run_until(&mut want, d));
            prop_assert_eq!(sim.pending(), oracle.pending.len());
            prop_assert_eq!(&got.log, &want.log);
        }
        let end = sim.run(&mut got).unwrap();
        prop_assert_eq!(end.as_nanos(), oracle.run(&mut want));
        prop_assert_eq!(got.log, want.log);
        prop_assert_eq!(sim.pending(), 0);
    }

    /// Events always fire in nondecreasing time order regardless of the
    /// order they were scheduled in.
    #[test]
    fn events_fire_in_time_order(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut sim: Sim<Ev> = Sim::new();
        for &t in &times {
            sim.schedule_at(SimTime::from_nanos(t), Ev::Stamp);
        }
        let mut world = World::default();
        sim.run(&mut world).unwrap();
        let fired: Vec<u64> = world.log.iter().map(|&(t, _)| t).collect();
        prop_assert_eq!(fired.len(), times.len());
        for pair in fired.windows(2) {
            prop_assert!(pair[0] <= pair[1]);
        }
        let mut expected = times.clone();
        expected.sort_unstable();
        prop_assert_eq!(fired, expected);
    }

    /// The final clock equals the maximum scheduled time.
    #[test]
    fn final_time_is_max(times in proptest::collection::vec(0u64..1_000_000, 1..100)) {
        let mut sim: Sim<Ev> = Sim::new();
        for &t in &times {
            sim.schedule_at(SimTime::from_nanos(t), Ev::Stamp);
        }
        let end = sim.run(&mut World::default()).unwrap();
        prop_assert_eq!(end.as_nanos(), *times.iter().max().unwrap());
    }

    /// Chained events accumulate durations exactly.
    #[test]
    fn chained_delays_accumulate(delays in proptest::collection::vec(1u64..10_000, 1..50)) {
        let total: u64 = delays.iter().sum();
        let mut sim: Sim<Ev> = Sim::new();
        sim.schedule_in(SimDuration::ZERO, Ev::Chain { remaining: delays.len() });
        let mut world = World { delays, ..World::default() };
        sim.run(&mut world).unwrap();
        prop_assert_eq!(world.log, vec![(total, 0)]);
    }

    /// DetRng::next_below always stays below its bound.
    #[test]
    fn rng_below_bound(seed in any::<u64>(), n in 1u64..1_000_000) {
        let mut rng = DetRng::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.next_below(n) < n);
        }
    }

    /// DetRng::uniform stays within bounds.
    #[test]
    fn rng_uniform_in_bounds(seed in any::<u64>(), lo in -1e6f64..1e6, width in 0.0f64..1e6) {
        let hi = lo + width;
        let mut rng = DetRng::new(seed);
        for _ in 0..50 {
            let x = rng.uniform(lo, hi);
            prop_assert!(x >= lo && (x < hi || (x == lo && width == 0.0)));
        }
    }

    /// Shuffle is a permutation.
    #[test]
    fn shuffle_is_permutation(seed in any::<u64>(), len in 0usize..200) {
        let mut rng = DetRng::new(seed);
        let mut v: Vec<usize> = (0..len).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..len).collect::<Vec<_>>());
    }

    /// Cdf quantile is monotone in q and bounded by the extremes.
    #[test]
    fn cdf_quantile_monotone(samples in proptest::collection::vec(-1e9f64..1e9, 1..200)) {
        let mut cdf: Cdf = samples.iter().copied().collect();
        let lo = cdf.quantile(0.0).unwrap();
        let hi = cdf.quantile(1.0).unwrap();
        prop_assert!(lo <= hi);
        let mut prev = lo;
        for i in 1..=10 {
            let q = cdf.quantile(i as f64 / 10.0).unwrap();
            prop_assert!(q >= prev);
            prev = q;
        }
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(lo, min);
        prop_assert_eq!(hi, max);
    }
}
