//! Placement-as-a-service: a resident daemon wrapping the batch
//! [`JobEngine`](placer_jobs::JobEngine) behind a line-framed TCP
//! protocol.
//!
//! The offline `jobs` binary answers one batch per process; this crate
//! keeps the engine — and, critically, its compiled-artifact cache —
//! resident, so a stream of requests against the same circuits skips
//! parsing and plan construction after the first hit. On top of the
//! engine it adds the service layer the batch path never needed:
//!
//! * [`queue`] — bounded admission with per-tenant quotas,
//!   deadline-earliest-first dispatch and fair-share preemption
//!   (overload evicts the latest-deadline running job via its
//!   [`CancelFlag`](eplace::CancelFlag); the checkpoint/resume machinery
//!   makes the eventual report bit-identical to an uninterrupted run);
//! * [`protocol`] — the versioned JSONL wire dialect: typed frames both
//!   ways, except job reports, which pass through **verbatim** so daemon
//!   output compares byte-for-byte with the offline binary;
//! * [`server`] — the daemon itself: accept loop, per-connection handler
//!   threads, a worker pool sharing one
//!   [`ArtifactCache`](eplace::ArtifactCache), per-request ledger
//!   records, and optional per-connection progress streaming tapped from
//!   `placer-obs`;
//! * [`client`] — a blocking client that demultiplexes interleaved
//!   admission answers, reports and progress frames.
//!
//! Everything is hand-rolled on `std::net` + threads: the workspace is
//! offline, so no async runtime, no serde — the same flat-JSON parser
//! the job files use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod queue;
pub mod server;

pub use client::{report_id, Client, ClientError, Reply};
pub use protocol::{ErrorCode, ProtocolError, Request, SweepRequest};
pub use queue::{AdmissionQueue, AdmitError, Lease, QueueConfig, QueueStats};
pub use server::{Server, ServerConfig, MAX_FRAME_BYTES};
