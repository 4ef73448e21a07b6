//! Deterministic discrete-event simulation engine.
//!
//! This crate is the foundation of the FlashOverlap reproduction: every
//! simulated GPU kernel, stream operation, and inter-GPU transfer is an
//! event scheduled on a [`Sim`] instance. The engine is intentionally
//! minimal:
//!
//! - Time is a nanosecond-resolution monotonic counter ([`SimTime`]).
//! - Events are boxed `FnOnce(&mut W, &mut Sim<W>)` closures ordered by
//!   `(time, insertion sequence)`, so same-time events fire in FIFO order
//!   and every run is exactly reproducible.
//! - Randomness comes from [`rng::DetRng`], a small splitmix64/xoshiro
//!   generator owned by the caller, never from global state.
//!
//! # Examples
//!
//! ```
//! use sim::{Sim, SimDuration};
//!
//! let mut sim: Sim<Vec<u32>> = Sim::new();
//! sim.schedule_in(SimDuration::from_nanos(10), |world, _| world.push(1));
//! sim.schedule_in(SimDuration::from_nanos(5), |world, _| world.push(2));
//! let mut world = Vec::new();
//! sim.run(&mut world);
//! assert_eq!(world, vec![2, 1]);
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use engine::{EngineProbe, Sim, SimError};
pub use rng::DetRng;
pub use stats::Cdf;
pub use time::{SimDuration, SimTime};
pub use trace::Trace;
