//! Session-layer tests for the `ipdsd` fleet service (`crates/service`,
//! re-exported from the `ipds::` root): image-cache sharing, session-pool
//! recycling, worker-count bit-identity and the incident-correlation
//! rules.

use std::sync::Arc;

use ipds::analysis::TableImage;
use ipds::{
    correlate, BranchStatus, GuestEvent, ImageCache, Incident, IncidentKind, Protected, RootCause,
    Service, ServiceError, ServiceSpec,
};

fn cached_artifact(
    w: &ipds::workloads::Workload,
) -> (ImageCache, Arc<ipds::WorkloadArtifact>, TableImage) {
    let p = Protected::compile(w).unwrap();
    let image = TableImage::build(&p.analysis);
    let mut cache = ImageCache::new();
    let artifact = cache.load(w.name, &image).unwrap();
    (cache, artifact, image)
}

#[test]
fn image_cache_shares_verified_artifacts() {
    let w = &ipds::workloads::all()[0];
    let (mut cache, first, image) = cached_artifact(w);
    // Registering identical bytes again is a cache hit on the *same*
    // artifact — verified once, shared everywhere.
    let second = cache.load(w.name, &image).unwrap();
    assert!(Arc::ptr_eq(&first, &second));
    assert_eq!(cache.stats().verified, 1);
    assert_eq!(cache.stats().hits, 1);
    assert_eq!(cache.len(), 1);
}

#[test]
fn image_cache_rejects_tampered_bytes_without_poisoning() {
    let w = &ipds::workloads::all()[0];
    let (mut cache, _first, image) = cached_artifact(w);
    let mut bytes = image.as_bytes().to_vec();
    let payload = image.payload_offset().unwrap();
    bytes[payload] ^= 1;
    let bad = TableImage::from_bytes(bytes);
    let err = cache.load(w.name, &bad).unwrap_err();
    assert!(matches!(err, ServiceError::Image { .. }));
    // Unified error classification reaches the service layer too.
    assert_eq!(ipds::Error::from(err).kind(), ipds::ErrorKind::Service);
    // The reject never entered the cache: the verified entry is intact
    // and identical genuine bytes still hit it.
    assert_eq!(cache.stats().rejects, 1);
    assert_eq!(cache.len(), 1);
    let again = cache.load(w.name, &image).unwrap();
    assert_eq!(again.checksum, _first.checksum);
    assert_eq!(cache.stats().hits, 1);
}

#[test]
fn session_pool_recycles_and_reports_high_water() {
    let w = &ipds::workloads::all()[0];
    let (_cache, artifact, _image) = cached_artifact(w);
    let mut service = Service::start(vec![artifact], 1);
    // Three windows of four concurrent sessions on one worker: 12
    // checkouts, the first window's 4 are fresh, the remaining 8 recycle.
    let mut next = 0u64;
    for _window in 0..3 {
        let ids: Vec<u64> = (0..4)
            .map(|_| {
                let id = next;
                next += 1;
                id
            })
            .collect();
        for &id in &ids {
            service.open(id, w.name).unwrap();
        }
        for &id in &ids {
            service.close(id).unwrap();
        }
    }
    let report = service.finish();
    assert_eq!(report.pool.checkouts, 12);
    assert_eq!(report.pool.reuses, 8);
    assert_eq!(report.pool.recycled, 12);
    assert_eq!(report.pool.high_water, 4);
    assert_eq!(report.metrics.counter("service.pool_checkouts"), 12);
    assert_eq!(report.metrics.counter("service.pool_reuses"), 8);
    assert_eq!(report.metrics.counter("service.peak_sessions"), 4);
    assert_eq!(report.metrics.counter("service.sessions_opened"), 12);
    assert_eq!(report.metrics.counter("service.sessions_closed"), 12);
    assert!(report.incidents.is_empty());
}

#[test]
fn unknown_workload_is_refused_and_recorded_as_image_tamper() {
    let w = &ipds::workloads::all()[0];
    let (_cache, artifact, _image) = cached_artifact(w);
    let mut service = Service::start(vec![artifact], 2);
    let err = service.open(7, "no-such-workload").unwrap_err();
    assert!(matches!(err, ServiceError::UnknownWorkload { .. }));
    assert!(!service.is_open(7));
    // Submitting against the refused session fails too.
    let err = service.submit(7, vec![GuestEvent::Return]).unwrap_err();
    assert!(matches!(err, ServiceError::UnknownSession { session: 7 }));
    let report = service.finish();
    assert_eq!(report.sessions.len(), 1);
    assert!(report.sessions[0].rejected);
    assert_eq!(report.incidents.len(), 1);
    assert_eq!(report.incidents[0].kind, IncidentKind::ImageTamper);
    assert_eq!(
        report.root_causes,
        vec![RootCause::TamperedImage {
            workload: "no-such-workload".into(),
            sessions: 1,
        }]
    );
}

#[test]
fn malformed_stream_opens_protocol_violation() {
    let w = &ipds::workloads::all()[0];
    let (_cache, artifact, _image) = cached_artifact(w);
    let mut service = Service::start(vec![artifact], 1);
    service.open(0, w.name).unwrap();
    // A bare Return with no frame underflows the checker's frame stack.
    service.submit(0, vec![GuestEvent::Return]).unwrap();
    service.close(0).unwrap();
    let report = service.finish();
    assert_eq!(report.sessions[0].stats.underflows, 1);
    assert_eq!(report.incidents.len(), 1);
    assert!(matches!(
        report.incidents[0].kind,
        IncidentKind::ProtocolViolation
    ));
    // A lone malformed stream convicts its own session only.
    assert_eq!(
        report.root_causes,
        vec![RootCause::IsolatedNoise {
            workload: w.name.to_string(),
            session: 0,
        }]
    );
}

#[test]
fn hostile_streams_open_protocol_violations_without_panicking() {
    let w = &ipds::workloads::all()[0];
    let (_cache, artifact, _image) = cached_artifact(w);
    let main = Protected::compile(w).unwrap().program.main().unwrap().id;
    let functions = artifact.analysis.functions.len() as u32;
    let mut service = Service::start(vec![artifact], 2);
    let hostile = [
        // A branch before any call: no active frame.
        vec![GuestEvent::Branch {
            pc: 0x40,
            taken: true,
        }],
        // A branch at a PC `main` does not own.
        vec![
            GuestEvent::Call(main),
            GuestEvent::Branch {
                pc: u64::MAX,
                taken: false,
            },
        ],
        // A call to a function the image does not define.
        vec![GuestEvent::Call(ipds::ir::FuncId(functions))],
    ];
    for (session, events) in hostile.into_iter().enumerate() {
        service.open(session as u64, w.name).unwrap();
        service.submit(session as u64, events).unwrap();
        service.close(session as u64).unwrap();
    }
    // A well-formed session sharing a worker with a hostile one.
    service.open(3, w.name).unwrap();
    service
        .submit(3, vec![GuestEvent::Call(main), GuestEvent::Return])
        .unwrap();
    service.close(3).unwrap();

    let report = service.finish();
    assert_eq!(report.sessions.len(), 4);
    for (session, seq) in [(0, 0), (1, 1), (2, 0)] {
        let incidents = &report.sessions[session].incidents;
        assert_eq!(incidents.len(), 1, "session {session}: {incidents:?}");
        assert_eq!(incidents[0].kind, IncidentKind::ProtocolViolation);
        assert_eq!(incidents[0].seq, seq, "session {session}");
    }
    let healthy = &report.sessions[3];
    assert!(healthy.closed && healthy.incidents.is_empty());
    assert_eq!(healthy.stats.calls, 1);
    assert_eq!(
        report.root_causes,
        (0..3)
            .map(|session| RootCause::IsolatedNoise {
                workload: w.name.to_string(),
                session,
            })
            .collect::<Vec<_>>()
    );
}

#[test]
fn correlation_rules_are_deterministic() {
    let inc = |session: u64, workload: &str, kind| Incident {
        session,
        workload: workload.into(),
        kind,
        seq: 0,
        alarm_count: 1,
    };
    let path = |pc| IncidentKind::InfeasiblePath {
        pc,
        expected: BranchStatus::Taken,
        actual: false,
    };
    let incidents = vec![
        inc(5, "b", path(10)),
        inc(1, "b", path(10)),
        inc(3, "b", path(10)),
        inc(7, "c", path(20)),
        inc(2, "a", IncidentKind::ImageTamper),
        inc(9, "d", IncidentKind::ProtocolViolation),
    ];
    let causes = correlate(&incidents, 3);
    assert_eq!(
        causes,
        vec![
            // Image tampers convict the image, regardless of cluster size.
            RootCause::TamperedImage {
                workload: "a".into(),
                sessions: 1,
            },
            // Three sessions at one PC cluster into a hot region...
            RootCause::HotMemoryRegion {
                workload: "b".into(),
                pc: 10,
                sessions: 3,
            },
            // ...a lone same-kind incident at another PC does not.
            RootCause::IsolatedNoise {
                workload: "c".into(),
                session: 7,
            },
            RootCause::IsolatedNoise {
                workload: "d".into(),
                session: 9,
            },
        ]
    );
}

#[test]
fn bounded_ingestion_backpressure_never_changes_results() {
    let w = &ipds::workloads::all()[0];
    let (_cache, artifact, _image) = cached_artifact(w);
    let main = Protected::compile(w).unwrap().program.main().unwrap().id;
    let batch = || vec![GuestEvent::Call(main), GuestEvent::Return];
    // Depth-1 channels: a burst of submits outruns the worker, so the
    // control plane blocks on the full channel (counted as stalls)
    // instead of queueing without bound. Same stream through the default
    // capacity for comparison.
    let mut tight = Service::start_bounded(vec![artifact.clone()], 1, 1);
    let mut roomy = Service::start(vec![artifact], 1);
    for service in [&mut tight, &mut roomy] {
        service.open(0, w.name).unwrap();
        for _ in 0..256 {
            service.submit(0, batch()).unwrap();
        }
        service.close(0).unwrap();
    }
    let tight = tight.finish();
    let roomy = roomy.finish();
    // Back-pressure is pure flow control: every observable result is
    // identical to the unconstrained run.
    assert_eq!(tight.sessions, roomy.sessions);
    assert_eq!(tight.incidents, roomy.incidents);
    assert_eq!(tight.sessions[0].batches, 256);
    assert_eq!(tight.metrics.counter("service.events_ingested"), 512);
    // Stall *counts* are timing-shaped, but the counter is always emitted.
    for report in [&tight, &roomy] {
        assert!(report
            .metrics
            .counters()
            .any(|(k, _)| k == "service.backpressure_stalls"));
    }
}

#[test]
fn fleet_is_bit_identical_across_worker_counts() {
    // One plan (shadow-validated injections included), executed at four
    // worker counts: the outcome — sessions, incidents, causes and every
    // non-scheduler counter — must be byte-for-byte identical, and every
    // injected tamper class must have surfaced with its fleet-level cause.
    let wl: Vec<_> = ipds::workloads::all().into_iter().take(4).collect();
    let plan = ServiceSpec::new()
        .workloads(wl)
        .sessions(64)
        .batch(128)
        .window(16)
        .seed(11)
        .plan();
    assert_eq!(plan.sessions(), 64);
    let base = plan.execute(1);
    assert!(base.ok(), "{:?}", base.missed);
    let causes = &base.outcome.root_causes;
    assert!(causes
        .iter()
        .any(|c| matches!(c, RootCause::TamperedImage { .. })));
    assert!(causes
        .iter()
        .any(|c| matches!(c, RootCause::HotMemoryRegion { .. })));
    assert!(causes
        .iter()
        .any(|c| matches!(c, RootCause::IsolatedNoise { .. })));
    for workers in [2, 4, 8] {
        let run = plan.execute(workers);
        assert!(run.ok(), "{workers} workers: {:?}", run.missed);
        assert_eq!(base.outcome, run.outcome, "{workers} workers");
    }
}
