//! Shared helpers for the HyperEar workspace integration tests and examples.
pub use hyperear as core_api;

/// Compiles README.md's Rust examples under `cargo test`.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
