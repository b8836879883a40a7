//! The perf ledger (see `README.md` in this directory).
pub mod diff;
pub mod inputs;
pub mod json;
pub mod oracle;
pub mod report;
pub mod staged;
pub mod stats;
pub mod workload;
