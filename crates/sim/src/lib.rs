//! # ipds-sim — execution substrate: interpreter, attacks, timing
//!
//! The paper evaluated IPDS in two simulators: Bochs (whole-system, for the
//! attack/detection experiments) and SimpleScalar (cycle-level, for the
//! performance experiments). This crate plays both roles for our IR:
//!
//! * [`memory`] — a flat cell memory with stack frames laid out
//!   contiguously, so out-of-bounds writes clobber neighbouring variables
//!   exactly like a real stack smash;
//! * [`interp`] — a step-able interpreter emitting execution events
//!   (instructions, memory accesses, branches, calls) to pluggable
//!   [`observer`]s;
//! * [`attack`] — the §6 experiment protocol: golden run, single-location
//!   memory tampering at a chosen instant (format-string = any live cell,
//!   buffer-overflow = stack cells), control-flow diffing and detection
//!   measurement over seeded campaigns, run by [`run_campaign`];
//! * [`faults`] — a deterministic seeded fault-injection engine striking
//!   the table image, live checker state and guest memory, grading each
//!   fault detected/masked/crashed and measuring detection latency in
//!   committed branches, run by [`run_fault_campaign`];
//! * [`rng`] — the in-repo splitmix64/xoshiro256** generator behind every
//!   seeded protocol (no external `rand` dependency);
//! * [`pipeline`] — a simplified superscalar timing model with the Table 1
//!   caches, 2-level branch predictor and the IPDS request queue /
//!   spill-fill costs, producing the Fig. 9 normalized-performance numbers
//!   and the mean detection latency.
//!
//! Both campaign engines shard their independently seeded tasks over the
//! persistent [`ipds_parallel`] worker pool (one reusable runner arena per
//! worker) and fold the outcomes in seed order, so results are
//! bit-identical at every thread count; `threads <= 1` and small batches
//! run inline on the caller's thread. Both return their merged
//! [`MetricsRegistry`]. Both also warm-start from one [`WarmStart`] per
//! campaign: an attack or a live fault restores the golden snapshot
//! nearest its trigger instead of replaying the clean prefix, and skips
//! the tail once its run has rejoined the clean run, with outcomes equal
//! to a cold run's. The attack engine also threads an [`EventSink`]
//! (re-exported from [`ipds-telemetry`](ipds_telemetry)) through the hot
//! path; with [`NullSink`] the hooks monomorphize away and the
//! uninstrumented behaviour — and performance — is preserved bit-for-bit.

pub mod attack;
pub mod faults;
pub mod interp;
pub mod memory;
pub mod observer;
pub mod pipeline;
pub mod rng;

pub use ipds_telemetry as telemetry;

pub use attack::{
    attack_seed, run_campaign, AttackModel, AttackOutcome, AttackRunner, Campaign, CampaignResult,
    GoldenRun, WarmStart,
};
pub use faults::{
    fault_plan, fault_seed, fault_site, run_fault_campaign, AnomalyReport, FaultCampaign,
    FaultCampaignResult, FaultMutation, FaultOutcome, FaultPlan, FaultRunner, FaultSite,
    FAULT_COUNTERS, FAULT_HISTOGRAMS,
};
pub use interp::{ExecLimits, ExecStatus, Input, Interp};
pub use ipds_parallel::{default_threads, POOL_COUNTERS};
pub use memory::Memory;
pub use observer::{expectation_of, ExecObserver, IpdsObserver, NullObserver};
pub use pipeline::{PerfReport, TimingModel};
pub use rng::{SplitMix64, StdRng};
pub use telemetry::{
    CounterSnapshot, CountingSink, EventSink, JsonlSink, MetricsRegistry, NullSink,
};

/// Runs tasks `0..tasks` over up to `threads` workers of the persistent
/// pool, each worker owning one `init()` state plus a private
/// [`MetricsRegistry`]. Returns the results in index order, the final
/// worker states, and the merged registry with the [`POOL_COUNTERS`]
/// added. Every registry fold commutes, so the merged metrics are
/// bit-identical at every thread count except the chunk-accounting pair
/// (`pool.chunks_claimed`, `pool.chunks_stolen`), which describes how the
/// scheduler carved the index space (see `docs/PERF.md`).
///
/// # Panics
///
/// Propagates a panic from any worker.
fn shard<W, R>(
    tasks: u32,
    threads: usize,
    init: impl Fn() -> W + Sync,
    run: impl Fn(&mut W, &mut MetricsRegistry, u32) -> R + Sync,
) -> (Vec<R>, Vec<W>, MetricsRegistry)
where
    W: Send,
    R: Send,
{
    let (results, states, pool) = ipds_parallel::map_indexed_stats(
        tasks,
        threads,
        |_| (init(), MetricsRegistry::new()),
        |(state, metrics), i| run(state, metrics, i),
    );
    let mut metrics = MetricsRegistry::new();
    let states = states
        .into_iter()
        .map(|(state, local)| {
            metrics.merge(&local);
            state
        })
        .collect();
    metrics.add("pool.tasks_executed", pool.tasks_executed);
    metrics.add("pool.chunks_claimed", pool.chunks_claimed);
    metrics.add("pool.chunks_stolen", pool.chunks_stolen);
    (results, states, metrics)
}
