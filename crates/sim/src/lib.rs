//! Deterministic discrete-event simulation engine.
//!
//! This crate is the foundation of the FlashOverlap reproduction: every
//! simulated GPU kernel, stream operation, and inter-GPU transfer is an
//! event scheduled on a [`Sim`] instance. The engine is intentionally
//! minimal:
//!
//! - Time is a nanosecond-resolution monotonic counter ([`SimTime`]).
//! - Events are a closed enum the world defines ([`Event`]), stored by
//!   value in one heap ordered by `(time, insertion sequence)`, so
//!   same-time events fire in FIFO order, every run is exactly
//!   reproducible, and scheduling allocates nothing once the heap has
//!   grown.
//! - Randomness comes from [`rng::DetRng`], a small splitmix64/xoshiro
//!   generator owned by the caller, never from global state.
//!
//! # Examples
//!
//! ```
//! use sim::{Event, Sim, SimDuration};
//!
//! struct Push(u32);
//!
//! impl Event for Push {
//!     type World = Vec<u32>;
//!     fn fire(self, world: &mut Vec<u32>, _sim: &mut Sim<Push>) {
//!         world.push(self.0);
//!     }
//! }
//!
//! let mut sim: Sim<Push> = Sim::new();
//! sim.schedule_in(SimDuration::from_nanos(10), Push(1));
//! sim.schedule_in(SimDuration::from_nanos(5), Push(2));
//! let mut world = Vec::new();
//! sim.run(&mut world).unwrap();
//! assert_eq!(world, vec![2, 1]);
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::{EngineProbe, Event, Sim, SimError};
pub use rng::DetRng;
pub use stats::Cdf;
pub use time::{SimDuration, SimTime};
