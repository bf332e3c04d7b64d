//! Deterministic discrete-event simulation kernel.
//!
//! This crate is the substrate under every experiment in the MNP
//! reproduction: a virtual clock, an event queue with deterministic
//! tie-breaking, and seedable random-number streams.
//!
//! The original paper evaluated MNP inside TOSSIM, TinyOS's discrete-event
//! simulator. TOSSIM is not available here, so this crate reimplements the
//! properties the protocol evaluation relies on:
//!
//! * **Virtual time** with microsecond resolution ([`SimTime`],
//!   [`SimDuration`]).
//! * **Deterministic ordering** — events scheduled for the same instant pop
//!   in insertion order, so a run is a pure function of its seed
//!   ([`EventQueue`]); a seeded-permutation tie-break ([`TieBreak`]) lets
//!   the fuzz harness explore alternative same-instant schedules without
//!   giving up replayability.
//! * **Reproducible randomness** — independent per-node streams derived from
//!   one experiment seed ([`SimRng`]).
//! * **Seeded property tests** — [`check`] runs a property on cases drawn
//!   from `SimRng` streams named by the property, and [`replay`] re-runs
//!   one failing case from its reported seed.
//! * **Self-profiling** — span-based wall-clock accounting of the kernel's
//!   hot phases, inert unless enabled ([`profile`]).
//!
//! # Example
//!
//! ```
//! use mnp_sim::{EventQueue, SimDuration, SimTime};
//!
//! let mut queue = EventQueue::new();
//! queue.push(SimTime::ZERO + SimDuration::from_millis(5), "later");
//! queue.push(SimTime::ZERO, "now");
//! let (t, ev) = queue.pop().unwrap();
//! assert_eq!(t, SimTime::ZERO);
//! assert_eq!(ev, "now");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod profile;
mod property;
mod queue;
mod rng;
mod time;

pub use property::{check, replay};
pub use queue::{EventQueue, TieBreak};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
