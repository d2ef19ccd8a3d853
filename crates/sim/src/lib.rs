#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

//! Discrete-event simulation engine used by the CDNA reproduction.
//!
//! The engine is deliberately small and deterministic: a monotone event
//! queue keyed by [`SimTime`], a [`World`] trait implemented by the
//! full-machine model in `cdna-system`, a seeded random number generator,
//! and a handful of statistics helpers used by the measurement harness.
//!
//! # Example
//!
//! ```
//! use cdna_sim::{Scheduler, SimTime, Simulation, World};
//!
//! struct Counter {
//!     fired: u32,
//! }
//!
//! impl World for Counter {
//!     type Event = u32;
//!     fn handle(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
//!         self.fired += ev;
//!         if ev < 4 {
//!             sched.after(now, SimTime::from_us(5), ev + 1);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Counter { fired: 0 });
//! sim.schedule(SimTime::ZERO, 1);
//! sim.run_until(SimTime::from_ms(1));
//! assert_eq!(sim.world().fired, 1 + 2 + 3 + 4);
//! ```

mod engine;
pub mod par;
pub mod queue;
mod rng;
mod stats;
mod time;

pub use engine::{Scheduler, Simulation, World};
pub use queue::{EventQueue, QueueKind};
pub use rng::SimRng;
pub use stats::{RateMeter, RunningStats};
pub use time::SimTime;
