//! `pdbt-serve` — the multi-session translation service.
//!
//! A zero-dependency (`std::net`) TCP daemon that accepts guest-run
//! requests over a length-prefixed, versioned binary protocol
//! ([`proto`]) and multiplexes them onto a pool of session workers
//! (`pdbt_par::TaskQueue`). Sessions of one guest image share one
//! [`pdbt_runtime::SharedTranslationState`] — ruleset plus warm code
//! cache — so the first session translates a block and every later
//! session reuses the translation, which is how the paper's
//! train-once-amortize-forever economics extend from translations
//! *within* a run to translations *across* runs.
//!
//! What stays per-session: metrics, attribution, dispatch state (jump
//! cache, chain links, superblocks), resilience counters, and the
//! report. A session's stripped report is bit-identical to a cold
//! standalone run; only wall-clock and the server-lifetime counters
//! reveal the sharing.
//!
//! # Quickstart
//!
//! ```no_run
//! use pdbt_obs::json::Json;
//! use pdbt_serve::{submit, ServeConfig, Server};
//! use std::time::Duration;
//!
//! let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
//! let addr = server.local_addr().unwrap();
//! std::thread::spawn(move || server.serve().unwrap());
//!
//! let req = Json::obj([
//!     ("workload", Json::str("mcf")),
//!     ("scale", Json::str("tiny")),
//! ]);
//! let resp = submit(addr, &req, Duration::from_secs(60)).unwrap();
//! assert_eq!(resp.get("outcome").and_then(Json::as_str), Some("completed"));
//! ```

mod client;
pub mod loadgen;
pub mod proto;
mod server;

pub use client::{
    list_artifacts, ping, pull_artifact, push_artifact, shutdown, stats, submit, ClientError,
    PulledArtifact,
};
pub use loadgen::{LoadgenConfig, LoadgenReport};
pub use server::{ServeConfig, ServeSummary, Server};
