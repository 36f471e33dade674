//! # seminal-serve — the versioned request API and the daemon behind it
//!
//! The paper frames the search as an interactive tool a student
//! re-invokes on every edit; a cold process per invocation throws the
//! memo away each time. This crate is the serving story (ROADMAP
//! item 1) in two layers:
//!
//! * [`api`] — `seminal-api/v1`: strict-schema [`Request`]/[`Response`]
//!   types (NDJSON wire form, unknown fields rejected, canonical
//!   byte-identical re-serialization) plus the shared process
//!   exit-code table.
//! * [`dispatch`](mod@dispatch) — the **single** entry point mapping a `Request`
//!   onto a `SearchConfig`/`Budget` and running it against shared
//!   [`ServerState`]: the process-lifetime [`VerdictMemo`] that
//!   keeps probe outcomes warm across requests, and the merged
//!   process metrics a `metrics` request snapshots.
//! * [`overload`] — bounded admission in front of the dispatcher:
//!   `--max-inflight` concurrent work requests, deadline-aware load
//!   shedding with typed `overloaded` responses, and the queue-wait
//!   measurement that keeps `deadline_ms` an end-to-end bound.
//! * [`server`] — the transport: newline-delimited JSON over stdio
//!   ([`serve_stdio`]) or TCP ([`serve_tcp`], a bounded thread per
//!   connection over the same state, graceful drain on shutdown),
//!   plus the [`forward`] client mode behind `seminal serve
//!   --connect` (reconnect backoff, `retry_after_ms`-honoring
//!   resends).
//!
//! The one-shot CLI subcommands build the same `Request` values from
//! their flags and call the same [`dispatch()`], so exit codes and
//! statuses cannot drift between `seminal check` and a served `check`.
//!
//! ```
//! use seminal_serve::{dispatch, CheckRequest, Request, Response, ServerState};
//!
//! let state = ServerState::new();
//! let req = Request::Check(CheckRequest::new(1, "let x = 1 + true"));
//! let cold = dispatch(&state, &req);
//! let warm = dispatch(&state, &req);
//! let (Response::Check(cold), Response::Check(warm)) = (cold.response, warm.response) else {
//!     panic!("check requests get check responses");
//! };
//! assert_eq!(cold.payload, warm.payload);
//! // Every probe of the second, identical request was answered from
//! // the memo; only its baseline check reached the checker.
//! assert_eq!(warm.metrics.counter("oracle.real_calls"), 0);
//! assert!(warm.metrics.counter("memo.cross_request_hits") > 0);
//! ```
//!
//! [`VerdictMemo`]: seminal_core::VerdictMemo

pub mod api;
pub mod dispatch;
pub mod overload;
pub mod server;

pub use api::{
    render_exit_table_help, render_exit_table_markdown, AnalyzeRequest, AnalyzeResponse, ApiError,
    CheckRequest, CheckResponse, ErrorResponse, MetricsRequest, MetricsResponse,
    OverloadedResponse, PayloadEntry, Request, Response, ShutdownRequest, ShutdownResponse,
    StatsSummary, Status, EXIT_CODES, SCHEMA,
};
pub use dispatch::{dispatch, dispatch_with, DispatchHooks, Dispatched, ServerConfig, ServerState};
pub use overload::{Admission, OverloadPolicy, Permit, DEFAULT_MAX_INFLIGHT};
pub use server::{
    forward, forward_with, serve_lines, serve_stdio, serve_tcp, ForwardOptions, ServeOptions,
    ServeSummary,
};
