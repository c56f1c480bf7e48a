//! The query corpora more than one test binary runs: the differential
//! harness and the batteries run them against the engine's strategies,
//! `spec_oracle` against the definitional oracle, and `printer_law`
//! through the Core printer. A binary includes this module with
//! `mod corpus;` and uses what it needs.
#![allow(dead_code)]

pub mod binders;
pub mod conformance;
pub mod differential;
pub mod paths;
pub mod xmark;
