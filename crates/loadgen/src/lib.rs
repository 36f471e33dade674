//! # seminal-loadgen — the fleet-scale chaos-under-load harness
//!
//! `seminal serve` claims to be overload-resilient: bounded admission,
//! deadline-aware load shedding, graceful drain. This crate is the
//! proof. It replays the paper's Figure 6 recompile-session model —
//! students re-submitting the *same* broken file a geometric-with-tail
//! number of times — as N concurrent TCP clients against a live
//! server, optionally salting a share of requests with chaos
//! injection, and distills the run into a versioned
//! `seminal-bench/serve-v1` artifact (`BENCH_serve.json`) that
//! `seminal metrics-check --baseline` trends in CI.
//!
//! The harness is also the saturation oracle: every response line must
//! parse as a well-formed `seminal-api/v1` response (completed,
//! degraded, or typed `overloaded` with a `retry_after_ms` hint), and
//! every clean `check` response must satisfy the probe-accounting
//! identity (`memo.cross_request_hits + oracle.real_calls +
//! probes.baseline >= oracle_calls`) no matter how hard the server is
//! being squeezed.
//! Violations are counted into the report, and the suite pins them at
//! zero.

pub mod bench;
pub mod replay;

pub use bench::{bench_serve_json, percentile, BENCH_SERVE_SCHEMA};
pub use replay::{replay, run_self_hosted, LoadConfig, LoadReport};
