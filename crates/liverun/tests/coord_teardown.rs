//! A shut-down amcoordd ensemble leaves no threads behind.
//!
//! This binary holds a single test on purpose: it counts the threads of
//! the whole process (`/proc/self/task`), which tests running in
//! parallel would disturb.

use std::time::{Duration, Instant};

use bytes::Bytes;
use coord::{CoordClientOptions, Registry};
use liverun::coordsvc::CoordEnsemble;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// Every replica thread — ring loop, listeners, peer readers and
/// writers, client connections, gossip links — ends with
/// `CoordEnsemble::shutdown`.
#[test]
fn ensemble_shutdown_leaves_no_threads_behind() {
    let before = threads();
    let base = 27000 + (std::process::id() % 100) as u16 * 8;
    let ensemble = CoordEnsemble::localhost(3, base, None).expect("ensemble launches");

    let client = Registry::connect(&ensemble.client_addrs(), CoordClientOptions::default())
        .expect("client connects");
    let v = client
        .set_meta_cas("teardown", Bytes::from_static(b"x"), 0)
        .expect("write commits");
    assert_eq!(client.meta_versioned("teardown").map(|(v, _)| v), Some(v));
    drop(client);
    ensemble.shutdown();

    let deadline = Instant::now() + Duration::from_secs(2);
    while threads() > before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let after = threads();
    assert!(
        after <= before,
        "{after} threads 2 s after shutdown, {before} before launch"
    );
}
