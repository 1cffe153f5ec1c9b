//! # ipds-service — `ipdsd`, the long-lived multi-session protection service
//!
//! Everything below this crate is batch: one program, one campaign, exit.
//! This crate is the deployment mode the paper gestures at when it frames
//! BSV/BAT checking as an always-on hardware monitor — IPDS as a
//! *persistent* fleet service that protects many concurrent guest sessions
//! against shared, checksummed table images:
//!
//! * [`ImageCache`] — immutable [`WorkloadArtifact`]s behind `Arc`, keyed
//!   by workload + content checksum. An image is verified (checksum +
//!   structural load) **once**; every later registration of identical
//!   bytes shares the verified artifact. Corrupted images never enter the
//!   cache.
//! * [`SessionPool`] — pooled per-session checker state (tables stay
//!   borrowed from the shared artifact; BSV arenas are recycled on session
//!   close instead of reallocated).
//! * [`Service`] — sharded ingestion: guest sessions push
//!   [`GuestEvent`] batches over *bounded* `mpsc` channels (back-pressure
//!   instead of unbounded queue growth) into persistent-pool worker
//!   threads that replay each event through the session's checker (a
//!   hostile stream opens a `ProtocolViolation` incident, never a panic).
//!   Per-session results merge in session-id order, so fleet results are
//!   bit-identical for every ingestion-worker count.
//! * [`Incident`] / [`RootCause`] — per-session anomalies open typed
//!   incidents; [`correlate`] folds concurrent incidents into fleet-level
//!   root causes (one tampered image vs. one hot memory region vs.
//!   isolated noise).
//! * [`ServiceSpec`] — a deterministic synthetic fleet driver: seeded
//!   per-session attack/fault schedules (from the in-repo xoshiro stream)
//!   with shadow-validated injections, ground-truth verification and
//!   throughput accounting. This is what `ipdsc serve` and the `exp_all`
//!   fleet phase run.
//!
//! The crate is std-only — threads + `mpsc`, no async runtime — and every
//! observable result is deterministic given the spec. See
//! `docs/SERVICE.md` for the architecture, the session lifecycle and the
//! canonical counter tables below.

#![deny(missing_docs)]

mod cache;
mod engine;
mod error;
mod event;
mod fleet;
mod incident;
mod pool;

pub use cache::{CacheStats, ImageCache, WorkloadArtifact};
pub use engine::{Service, ServiceReport, SessionSummary, DEFAULT_INGEST_CAPACITY};
pub use error::ServiceError;
pub use event::GuestEvent;
pub use fleet::{FleetOutcome, FleetPlan, FleetReport, ServiceSpec};
pub use incident::{correlate, Incident, IncidentKind, RootCause};
pub use pool::{SessionPool, SessionPoolStats, SessionState};

/// Canonical `service.*` counter keys, in the order documented in
/// `docs/SERVICE.md` (asserted by `tests/docs_metrics.rs`).
///
/// All of them are invariant across ingestion-worker counts except the
/// final three: `service.pool_reuses` / `service.pool_high_water` describe
/// how sessions landed on per-worker pools and — like
/// `pool.chunks_claimed` / `pool.chunks_stolen` in the campaign engine —
/// legitimately vary with sharding, and `service.backpressure_stalls`
/// counts submits that found their shard's bounded channel full (pure
/// timing). The fleet-wide concurrency high water is the invariant
/// `service.peak_sessions`.
pub const SERVICE_COUNTERS: &[&str] = &[
    "service.images_verified",
    "service.image_hits",
    "service.image_rejects",
    "service.sessions_opened",
    "service.sessions_closed",
    "service.sessions_rejected",
    "service.peak_sessions",
    "service.batches_ingested",
    "service.events_ingested",
    "service.incidents_opened",
    "service.pool_checkouts",
    "service.pool_reuses",
    "service.pool_high_water",
    "service.backpressure_stalls",
];

/// Canonical `service.*` histogram keys (events per ingested batch).
pub const SERVICE_HISTOGRAMS: &[&str] = &["service.batch_events"];

/// Canonical `fleet.*` counter keys emitted by the correlation stage.
pub const FLEET_COUNTERS: &[&str] = &[
    "fleet.root_causes",
    "fleet.tampered_images",
    "fleet.hot_regions",
    "fleet.isolated_noise",
];
