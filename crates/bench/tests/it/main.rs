//! The integration tests of `osml-bench` and of the workspace as a whole, as
//! one binary: every file here is a module, so the suite links once and
//! `osml_bench::suite::trained_suite()` trains once for all of them. Select a
//! file's tests by its module path, e.g. `cargo test -p osml-bench --test it
//! replay::`.

mod cluster;
mod control;
mod determinism;
mod end_to_end;
mod faults;
mod figures;
mod model_quality;
mod properties;
mod recovery;
mod replay;
mod support;
mod telemetry;
