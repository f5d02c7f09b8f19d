//! Std-only infrastructure shared across the `HyperEar` workspace.
//!
//! The workspace builds hermetically — no external registry crates —
//! so the cross-cutting machinery that would normally come from the
//! ecosystem lives here instead:
//!
//! - [`rng`]: deterministic xoshiro256++ / splitmix64 randomness.
//! - [`json`]: minimal JSON parse/serialize for config and report I/O.
//! - [`prop`]: a seeded, shrinking property-test harness.
//! - [`bench`]: a warmup + median/p95 micro-benchmark harness.
//! - [`alloc_counter`]: an allocation-counting global allocator for
//!   zero-allocation hot-path tests.
//! - [`pool`]: a thread pool with one deterministic,
//!   index-addressed fork/join primitive.
//!
//! Everything here is deliberately small: each module implements only
//! what the simulation, pipeline, and experiment crates actually use,
//! with deterministic behaviour so experiments reproduce bit-for-bit.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::module_name_repetitions
)]

#[allow(unsafe_code)]
pub mod alloc_counter;
pub mod bench;
pub mod json;
#[allow(unsafe_code)]
pub mod pool;
pub mod prop;
pub mod rng;

pub use json::{FromJson, Json, JsonError, ToJson};
pub use rng::Xoshiro256pp;
