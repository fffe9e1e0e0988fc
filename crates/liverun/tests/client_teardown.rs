//! A dropped client leaves no threads behind, on either end of its
//! connections.
//!
//! This binary holds a single test on purpose: it counts the threads of
//! the whole process (`/proc/self/task`), which tests running in
//! parallel would disturb.

use std::time::{Duration, Instant};

use bytes::Bytes;
use common::ids::ClientId;
use liverun::config::generate_localhost_mrpstore;
use liverun::{ClientOptions, Deployment, DeploymentConfig, StoreClient};
use mrpstore::KvResponse;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// Polls until the thread count holds still for 500 ms, then returns it.
fn settled_threads() -> usize {
    let mut last = threads();
    let mut since = Instant::now();
    let deadline = Instant::now() + Duration::from_secs(10);
    while since.elapsed() < Duration::from_millis(500) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
        let now = threads();
        if now != last {
            last = now;
            since = Instant::now();
        }
    }
    last
}

fn insert_one(config: &DeploymentConfig, client: u32, key: &str) {
    let opts = ClientOptions {
        timeout: Duration::from_secs(20),
        ..ClientOptions::default()
    };
    let mut client = StoreClient::connect(config, ClientId::new(client), opts).unwrap();
    assert_eq!(
        client.insert(key, Bytes::from_static(b"v")).unwrap(),
        KvResponse::Ok
    );
}

/// Dropping a client closes its sockets: its reply readers end, the
/// nodes read EOF, and the nodes' reader and writer threads for those
/// connections end too — while the deployment keeps running.
#[test]
fn dropped_client_leaves_no_threads_behind() {
    let base = 44000 + (std::process::id() % 200) as u16 * 8;
    let text = generate_localhost_mrpstore(1, 3, base, None);
    let config = DeploymentConfig::parse(&text).unwrap();
    let deployment = Deployment::launch(config.clone()).unwrap();

    // A first client warms the deployment up (peer links are dialled
    // lazily on first use), so the baseline holds only steady threads.
    insert_one(&config, 1, "warm");
    let before = settled_threads();

    insert_one(&config, 2, "k");
    let deadline = Instant::now() + Duration::from_secs(2);
    while threads() > before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let after = threads();
    deployment.shutdown();
    assert!(
        after <= before,
        "{after} threads 2 s after the client dropped, {before} before it connected"
    );
}
