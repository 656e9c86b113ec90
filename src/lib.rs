//! Workspace root package for the AN2 reproduction.
//!
//! The library lives in `crates/an2`; this package hosts the cross-crate
//! integration tests (`tests/`), the runnable examples (`examples/`) and the
//! application workloads they drive ([`workload`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod workload;
