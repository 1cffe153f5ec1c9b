//! The long-lived service: control plane + sharded ingestion workers.

use std::collections::{HashMap, HashSet};
use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;

use ipds_runtime::IpdsStats;
use ipds_telemetry::MetricsRegistry;

use crate::cache::WorkloadArtifact;
use crate::event::GuestEvent;
use crate::incident::{correlate, Incident, IncidentKind, RootCause};
use crate::pool::{SessionPool, SessionPoolStats, SessionState};
use crate::ServiceError;

/// What the control plane sends an ingestion worker.
enum WorkerMsg {
    /// A session opened against artifact index `workload`.
    Open { session: u64, workload: usize },
    /// One batch of the session's committed event stream.
    Batch {
        session: u64,
        events: Vec<GuestEvent>,
    },
    /// The session closed; summarize and recycle its state.
    Close { session: u64 },
}

/// One session's life, summarized at close (or at service shutdown for
/// sessions still open). Pure function of the session's event stream —
/// the bit-identity unit for the worker-count determinism guarantee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSummary {
    /// The guest session id.
    pub session: u64,
    /// The workload it ran.
    pub workload: String,
    /// Whether the session was rejected at open (image never verified).
    pub rejected: bool,
    /// Whether the guest closed the session (false: still open at
    /// shutdown, or rejected).
    pub closed: bool,
    /// Events ingested.
    pub events: u64,
    /// Batches ingested.
    pub batches: u64,
    /// The checker's final statistics.
    pub stats: IpdsStats,
    /// Incidents the session opened.
    pub incidents: Vec<Incident>,
}

/// What one worker thread hands back at shutdown.
struct WorkerOutput {
    summaries: Vec<SessionSummary>,
    pool: SessionPoolStats,
    metrics: MetricsRegistry,
}

/// Everything the service observed, merged deterministically at shutdown.
#[derive(Debug)]
pub struct ServiceReport {
    /// Every session, in session-id order (including rejected ones).
    pub sessions: Vec<SessionSummary>,
    /// Every incident, in session-id order (stable within a session).
    pub incidents: Vec<Incident>,
    /// The correlation stage's fleet-level verdicts.
    pub root_causes: Vec<RootCause>,
    /// The `service.*` / `fleet.*` counters and histograms (see
    /// `docs/SERVICE.md` for the canonical table and the one
    /// scheduler-shaped pair).
    pub metrics: MetricsRegistry,
    /// Summed per-worker pool traffic.
    pub pool: SessionPoolStats,
}

/// Ingestion-channel depth [`Service::start`] uses: deep enough that a
/// bursty guest rarely stalls, shallow enough that a session outpacing its
/// worker blocks on back-pressure instead of growing the queue without
/// bound (ROADMAP #2). [`Service::start_bounded`] overrides it.
pub const DEFAULT_INGEST_CAPACITY: usize = 256;

/// The `ipdsd` engine: a control plane routing guest sessions to sharded
/// ingestion workers over bounded `mpsc` channels.
///
/// Sessions shard by `session_id % workers`; each worker drains its
/// channel in order, so one session's stream is always replayed in
/// submission order no matter how many workers run. The channels are
/// *bounded*: a submit that finds its shard's channel full blocks until
/// the worker catches up (counted in `service.backpressure_stalls`), so
/// guest memory use is capped per worker. Worker threads come from the
/// process-wide [`ipds_parallel::Pool`] — starting and finishing services
/// repeatedly reuses the same OS threads. Per-session results merge by
/// session id at [`Service::finish`] — fleet results are bit-identical for
/// every worker count (the per-worker pool pair
/// `service.pool_reuses`/`service.pool_high_water` and the timing-shaped
/// `service.backpressure_stalls` are the documented scheduler-shaped
/// exceptions).
#[derive(Debug)]
pub struct Service {
    txs: Vec<SyncSender<WorkerMsg>>,
    outputs: Vec<Receiver<WorkerOutput>>,
    names: HashMap<String, usize>,
    open: HashSet<u64>,
    /// Minimum same-PC cluster size the correlation stage folds into a
    /// [`RootCause::HotMemoryRegion`] (default 3).
    pub min_cluster: usize,
    opened: u64,
    closed: u64,
    live: u64,
    peak: u64,
    batches: u64,
    events: u64,
    stalls: u64,
    rejected: Vec<(u64, String)>,
}

impl Service {
    /// Starts `workers` ingestion workers over the verified artifacts and
    /// returns the running service, with the default
    /// [`DEFAULT_INGEST_CAPACITY`] channel depth. Sessions open by
    /// workload *name*; a name with no verified artifact is refused (see
    /// [`Service::open`]).
    pub fn start(artifacts: Vec<Arc<WorkloadArtifact>>, workers: usize) -> Service {
        Service::start_bounded(artifacts, workers, DEFAULT_INGEST_CAPACITY)
    }

    /// [`Service::start`] with an explicit ingestion-channel depth
    /// (`capacity` messages per worker, minimum 1).
    pub fn start_bounded(
        artifacts: Vec<Arc<WorkloadArtifact>>,
        workers: usize,
        capacity: usize,
    ) -> Service {
        let workers = workers.max(1);
        let names = artifacts
            .iter()
            .enumerate()
            .map(|(i, a)| (a.name.clone(), i))
            .collect();
        let shared = Arc::new(artifacts);
        let mut txs = Vec::with_capacity(workers);
        let mut outputs = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = sync_channel(capacity.max(1));
            let (out_tx, out_rx) = channel();
            let artifacts = Arc::clone(&shared);
            txs.push(tx);
            outputs.push(out_rx);
            // Long-lived loops ride the persistent pool's detached lane:
            // each is guaranteed its own thread, reused across services.
            ipds_parallel::Pool::global().spawn(move || {
                let _ = out_tx.send(worker_loop(&artifacts, rx));
            });
        }
        Service {
            txs,
            outputs,
            names,
            open: HashSet::new(),
            min_cluster: 3,
            opened: 0,
            closed: 0,
            live: 0,
            peak: 0,
            batches: 0,
            events: 0,
            stalls: 0,
            rejected: Vec::new(),
        }
    }

    /// True if `session` is currently open.
    pub fn is_open(&self, session: u64) -> bool {
        self.open.contains(&session)
    }

    /// Opens a guest session against `workload`.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownWorkload`] if no verified artifact carries
    /// that name. For the service this *is* the tamper surface — a
    /// rejected image never produced an artifact — so the refusal is also
    /// recorded as an [`IncidentKind::ImageTamper`] incident for the
    /// correlation stage.
    ///
    /// [`ServiceError::SessionAlreadyOpen`] if `session` is open already;
    /// the open session is left as it was.
    pub fn open(&mut self, session: u64, workload: &str) -> Result<(), ServiceError> {
        if self.open.contains(&session) {
            return Err(ServiceError::SessionAlreadyOpen { session });
        }
        let Some(&idx) = self.names.get(workload) else {
            self.rejected.push((session, workload.to_string()));
            return Err(ServiceError::UnknownWorkload {
                name: workload.to_string(),
            });
        };
        self.open.insert(session);
        self.opened += 1;
        self.live += 1;
        self.peak = self.peak.max(self.live);
        self.route(
            session,
            WorkerMsg::Open {
                session,
                workload: idx,
            },
        );
        Ok(())
    }

    /// Submits one batch of the session's committed event stream.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] if the session is not open.
    pub fn submit(&mut self, session: u64, events: Vec<GuestEvent>) -> Result<(), ServiceError> {
        if !self.open.contains(&session) {
            return Err(ServiceError::UnknownSession { session });
        }
        self.batches += 1;
        self.events += events.len() as u64;
        self.route(session, WorkerMsg::Batch { session, events });
        Ok(())
    }

    /// Closes a session; its state recycles into the worker's pool.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] if the session is not open.
    pub fn close(&mut self, session: u64) -> Result<(), ServiceError> {
        if !self.open.remove(&session) {
            return Err(ServiceError::UnknownSession { session });
        }
        self.closed += 1;
        self.live = self.live.saturating_sub(1);
        self.route(session, WorkerMsg::Close { session });
        Ok(())
    }

    fn route(&mut self, session: u64, msg: WorkerMsg) {
        let shard = (session % self.txs.len() as u64) as usize;
        match self.txs[shard].try_send(msg) {
            Ok(()) => {}
            Err(TrySendError::Full(msg)) => {
                // Back-pressure: the guest outpaced this shard's worker.
                // Block until the worker catches up — the queue stays
                // bounded — and count the stall.
                self.stalls += 1;
                let _ = self.txs[shard].send(msg);
            }
            // A worker can only be gone if it panicked; `finish` will
            // surface that panic, so a failed send is ignorable here.
            Err(TrySendError::Disconnected(_)) => {}
        }
    }

    /// Shuts the service down: drains and joins every worker, merges
    /// per-session results in session-id order, runs the correlation
    /// stage and assembles the canonical counters.
    ///
    /// # Panics
    ///
    /// Propagates a worker thread's panic.
    pub fn finish(self) -> ServiceReport {
        drop(self.txs);
        let mut sessions: Vec<SessionSummary> = Vec::new();
        let mut pool = SessionPoolStats::default();
        let mut metrics = MetricsRegistry::new();
        for out_rx in self.outputs {
            // A worker that panicked never sends its output; the closed
            // channel surfaces it here, like the join it replaces did.
            let out = out_rx.recv().expect("ingestion worker panicked");
            sessions.extend(out.summaries);
            pool.checkouts += out.pool.checkouts;
            pool.reuses += out.pool.reuses;
            pool.recycled += out.pool.recycled;
            pool.high_water += out.pool.high_water;
            metrics.merge(&out.metrics);
        }
        for (session, workload) in &self.rejected {
            sessions.push(SessionSummary {
                session: *session,
                workload: workload.clone(),
                rejected: true,
                closed: false,
                events: 0,
                batches: 0,
                stats: IpdsStats::default(),
                incidents: vec![Incident {
                    session: *session,
                    workload: workload.clone(),
                    kind: IncidentKind::ImageTamper,
                    seq: 0,
                    alarm_count: 0,
                }],
            });
        }
        sessions.sort_by_key(|s| s.session);
        let incidents: Vec<Incident> = sessions
            .iter()
            .flat_map(|s| s.incidents.iter().cloned())
            .collect();
        let root_causes = correlate(&incidents, self.min_cluster);
        metrics.add("service.sessions_opened", self.opened);
        metrics.add("service.sessions_closed", self.closed);
        metrics.add("service.sessions_rejected", self.rejected.len() as u64);
        metrics.add("service.peak_sessions", self.peak);
        metrics.add("service.batches_ingested", self.batches);
        metrics.add("service.events_ingested", self.events);
        metrics.add("service.incidents_opened", incidents.len() as u64);
        metrics.add("service.pool_checkouts", pool.checkouts);
        metrics.add("service.pool_reuses", pool.reuses);
        metrics.add("service.pool_high_water", pool.high_water);
        metrics.add("service.backpressure_stalls", self.stalls);
        metrics.add("fleet.root_causes", root_causes.len() as u64);
        let count = |f: fn(&RootCause) -> bool| root_causes.iter().filter(|c| f(c)).count() as u64;
        metrics.add(
            "fleet.tampered_images",
            count(|c| matches!(c, RootCause::TamperedImage { .. })),
        );
        metrics.add(
            "fleet.hot_regions",
            count(|c| matches!(c, RootCause::HotMemoryRegion { .. })),
        );
        metrics.add(
            "fleet.isolated_noise",
            count(|c| matches!(c, RootCause::IsolatedNoise { .. })),
        );
        ServiceReport {
            sessions,
            incidents,
            root_causes,
            metrics,
            pool,
        }
    }
}

/// One ingestion worker: drains its channel in order, driving each open
/// session's pooled checker, and summarizes sessions as they close.
fn worker_loop(artifacts: &[Arc<WorkloadArtifact>], rx: Receiver<WorkerMsg>) -> WorkerOutput {
    let mut pool = SessionPool::new(artifacts);
    let mut live: HashMap<u64, SessionState<'_>> = HashMap::new();
    let mut summaries = Vec::new();
    let mut metrics = MetricsRegistry::new();
    let summarize = |state: &SessionState<'_>, closed: bool| SessionSummary {
        session: state.session(),
        workload: artifacts[state.workload].name.clone(),
        rejected: false,
        closed,
        events: state.events(),
        batches: state.batches(),
        stats: *state.checker.stats(),
        incidents: state.incidents().to_vec(),
    };
    for msg in rx {
        match msg {
            WorkerMsg::Open { session, workload } => {
                live.insert(session, pool.checkout(session, workload));
            }
            WorkerMsg::Batch { session, events } => {
                if let Some(state) = live.get_mut(&session) {
                    metrics.observe("service.batch_events", events.len() as u64);
                    state.ingest(&artifacts[state.workload].name, &events);
                }
            }
            WorkerMsg::Close { session } => {
                if let Some(state) = live.remove(&session) {
                    summaries.push(summarize(&state, true));
                    pool.recycle(state);
                }
            }
        }
    }
    // Sessions still open at shutdown summarize too, in id order.
    let mut leftovers: Vec<u64> = live.keys().copied().collect();
    leftovers.sort_unstable();
    for session in leftovers {
        let state = live.remove(&session).expect("keyed by live keys");
        summaries.push(summarize(&state, false));
        pool.recycle(state);
    }
    WorkerOutput {
        summaries,
        pool: pool.stats(),
        metrics,
    }
}
