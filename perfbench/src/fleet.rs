//! `fleet`: repeated executes of one seeded `ipdsd` fleet plan.
//!
//! Set-up is `ServiceSpec::plan` (compile, inject, shadow-validate every
//! session stream). The timed loop calls `FleetPlan::execute` with
//! `max(1, nproc - 1)` ingestion workers, so the submitting thread and the
//! workers fit in `nproc`; the submitting thread blocks on the bounded
//! channels. One op and one pass are one execute; one item is one ingested
//! event. Every execute must report `FleetReport::ok()`.

use std::time::{Duration, Instant};

use ipds::analysis::TableImage;
use ipds::{correlate, FleetPlan, ImageCache, Protected, RootCause, ServiceSpec};
use ipds_service::Incident;

use crate::refspeed::Stopwatch;
use crate::trace::{SpanId, Tracer};
use crate::{nproc, stats, Measured, Op, Size, Tally, Timed, Workload};

/// Root span of one execute.
pub const ROOT_SPAN: &str = "bench.execute";

/// `ServiceSpec`'s default minimum same-PC cluster for a hot region.
const MIN_CLUSTER: usize = 3;

/// Set-up state of the fleet workload.
pub struct Fleet {
    /// `None` when planning failed (counted in the set-up tally).
    plan: Option<FleetPlan>,
    setup: Tally,
    workers: usize,
    size: Size,
    /// Per execute of the last loop: `(wall ms, stalls / batches, reuses /
    /// checkouts)`.
    executes: Vec<(f64, f64, f64)>,
    /// What the last execute reported, for the exact counts and the
    /// `correlate` probe.
    last: Option<(Vec<Incident>, Vec<RootCause>, [u64; 3])>,
}

impl Workload for Fleet {
    const SETUP_REPS: usize = 9;

    fn setup(seed: u64, size: Size) -> Fleet {
        let workers = nproc().saturating_sub(1).max(1);
        // `ServiceSpec::plan` panics when its search finds no detectable
        // memory tamper for a session (seeds 18, 167, 209 and 237 of 0..300
        // do this). That is the program's failure on this input: count it
        // and report the run as incorrect rather than abort without a
        // result.
        let plan = std::panic::catch_unwind(|| {
            ServiceSpec::new()
                .sessions(size.sessions)
                .seed(seed)
                .threads(workers)
                .plan()
        })
        .ok();
        let mut setup = Tally::default();
        setup.check(plan.is_some());
        Fleet {
            plan,
            setup,
            workers,
            size,
            executes: Vec::new(),
            last: None,
        }
    }

    fn setup_tally(&self) -> Tally {
        self.setup
    }

    fn run_for(&mut self, budget: Duration, tracer: &mut Tracer) -> Timed {
        let mut timed = Timed::default();
        self.executes.clear();
        let Some(plan) = &self.plan else {
            return timed;
        };
        let started = Instant::now();
        let mut op = 0u64;
        while started.elapsed() < budget {
            let root = tracer.begin(ROOT_SPAN, op, SpanId::NONE);
            let span = tracer.begin("service.execute", op, root);
            let watch = Stopwatch::start();
            let report = plan.execute(self.workers);
            let lap = watch.stop();
            tracer.end(span);
            tracer.end(root);
            let cost = lap.at_host_speed();

            let m = &report.metrics;
            let events = m.counter("service.events_ingested");
            timed.ops.push(Op {
                key: 0,
                items: events,
                cost,
            });
            let ratio = |a: &str, b: &str| m.counter(a) as f64 / m.counter(b).max(1) as f64;
            self.executes.push((
                cost.wall_s * 1e3,
                ratio("service.backpressure_stalls", "service.batches_ingested"),
                ratio("service.pool_reuses", "service.pool_checkouts"),
            ));
            timed
                .tally
                .check(report.ok() && events == plan.events() && events > 0);
            self.last = Some((
                report.outcome.incidents,
                report.outcome.root_causes,
                [
                    events,
                    m.counter("service.incidents_opened"),
                    m.counter("fleet.root_causes"),
                ],
            ));
            op += 1;
        }
        timed
    }

    fn layers(&mut self, tally: &mut Tally) -> Vec<Measured> {
        let reps = self.size.probe_reps.max(1);

        // Image verification as the service does it at registration: one
        // fresh cache, every paper workload's image loaded once.
        let images: Vec<(&str, TableImage)> = ipds_workloads::all()
            .iter()
            .map(|w| {
                let p = Protected::compile(w).expect("paper workloads compile");
                (w.name, TableImage::build(&p.analysis))
            })
            .collect();
        let mut verify_us = Vec::new();
        for _ in 0..reps {
            let start = Instant::now();
            let mut cache = ImageCache::new();
            let loaded = images
                .iter()
                .filter(|(name, image)| cache.load(name, image).is_ok())
                .count();
            verify_us.push(start.elapsed().as_secs_f64() * 1e6 / images.len() as f64);
            tally.check(loaded == images.len());
        }

        let mut correlate_us = Vec::new();
        if let Some((incidents, causes, _)) = &self.last {
            for _ in 0..reps * 10 {
                let start = Instant::now();
                let got = correlate(incidents, MIN_CLUSTER);
                correlate_us.push(start.elapsed().as_secs_f64() * 1e6);
                tally.check(&got == causes);
            }
        }

        let column = |f: fn(&(f64, f64, f64)) -> f64| {
            stats::mean(&self.executes.iter().map(f).collect::<Vec<_>>())
        };
        let exact = |i: usize| self.last.as_ref().map(|(_, _, c)| c[i] as f64);
        vec![
            ("service.image_verify_us", stats::median(&verify_us)),
            ("service.execute_ms", column(|e| e.0)),
            ("service.correlate_us", stats::median(&correlate_us)),
            ("service.stall_ratio", column(|e| e.1)),
            ("service.pool_reuse_ratio", column(|e| e.2)),
            ("service.events_ingested", exact(0)),
            ("service.incidents_opened", exact(1)),
            ("fleet.root_causes", exact(2)),
        ]
    }
}
