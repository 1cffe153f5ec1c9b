//! Session-id discipline of the `ipdsd` fleet service: a second open of a
//! session id that is already open is refused with a typed error in every
//! build profile, and the open session keeps its state and incidents.

use ipds::analysis::TableImage;
use ipds::{GuestEvent, ImageCache, IncidentKind, Protected, Service, ServiceError};

#[test]
fn duplicate_open_is_refused_and_keeps_the_open_session() {
    let w = &ipds::workloads::all()[0];
    let p = Protected::compile(w).unwrap();
    let image = TableImage::build(&p.analysis);
    let mut cache = ImageCache::new();
    let artifact = cache.load(w.name, &image).unwrap();
    let mut service = Service::start(vec![artifact], 1);

    service.open(0, w.name).unwrap();
    // A bare Return underflows the checker: one ProtocolViolation incident.
    service.submit(0, vec![GuestEvent::Return]).unwrap();
    let err = service.open(0, w.name).unwrap_err();
    assert!(
        matches!(err, ServiceError::SessionAlreadyOpen { session: 0 }),
        "{err:?}"
    );
    assert_eq!(err.to_string(), "session 0 is already open");
    assert!(service.is_open(0));
    service.close(0).unwrap();

    let report = service.finish();
    assert_eq!(report.sessions.len(), 1);
    assert_eq!(report.sessions[0].stats.underflows, 1);
    assert_eq!(report.incidents.len(), 1);
    assert_eq!(report.incidents[0].kind, IncidentKind::ProtocolViolation);
    assert_eq!(report.metrics.counter("service.sessions_opened"), 1);
    assert_eq!(report.metrics.counter("service.sessions_closed"), 1);
    assert_eq!(report.pool.checkouts, report.pool.recycled);
}
