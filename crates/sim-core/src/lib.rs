//! # fluxpm-sim — deterministic discrete-event simulation engine
//!
//! Every component of the flux-power-rs stack (brokers, power-sampling
//! loops, policy controllers, application progress integrators) runs as an
//! event on a single totally-ordered queue. Determinism is a hard
//! requirement: the paper's experiments must be exactly reproducible from a
//! seed, so the engine
//!
//! * orders events by `(time, sequence-number)` — same-time events fire in
//!   FIFO scheduling order,
//! * uses an owned pseudo-random generator ([`rng::Xoshiro256pp`]) seeded
//!   explicitly, never from the OS, and
//! * models "threads" (e.g. the monitor's sampling thread) as periodic
//!   tasks rather than real OS threads.
//!
//! The engine is generic over a world type `W`; events are closures that
//! receive `&mut W` and the engine itself (to schedule follow-up events)
//! — or, for the few kinds a user schedules by the million, values of a
//! type implementing [`Event`], which the engine stores without boxing.
//!
//! ```
//! use fluxpm_sim::{Engine, SimTime};
//!
//! let mut engine: Engine<Vec<u64>> = Engine::new();
//! engine.schedule(SimTime::from_secs(1), |w, _| w.push(1));
//! engine.schedule(SimTime::from_secs(2), |w, _| w.push(2));
//! let mut world = Vec::new();
//! engine.run(&mut world);
//! assert_eq!(world, vec![1, 2]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
pub mod engine;
pub mod rng;
pub mod sharded;
pub mod time;
pub mod trace;

pub use engine::{Engine, Event, EventId, NoEvent, Periodic};
pub use rng::{SplitMix64, Xoshiro256pp};
pub use sharded::{Inbound, Outbound, ShardSim, ShardedEngine, ShardedRunStats};
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceEntry, TraceLevel};
