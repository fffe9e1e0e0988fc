//! Checkpoint files and log trimming in live deployments: acceptors
//! trim behind a quorum of checkpoints, and a WAL-backed replica
//! restarts in place from its own checkpoint file.
//!
//! A binary of its own: both tests keep a deployment under sustained
//! load for seconds, which would slow the timing-sensitive tests of
//! `live_deployment.rs` if they ran alongside them.

use std::time::Duration;

use bytes::Bytes;
use common::ids::ClientId;
use common::wire::Wire;
use liverun::config::generate_localhost_mrpstore;
use liverun::{ClientOptions, Deployment, DeploymentConfig, StoreClient};
use mrpstore::KvResponse;

fn client_opts() -> ClientOptions {
    ClientOptions {
        timeout: Duration::from_secs(20),
        retry_every: Duration::from_secs(2),
        ..ClientOptions::default()
    }
}

/// Ports 20000..26000, at offsets `live_deployment.rs` leaves unused.
fn base_port(offset: u16) -> u16 {
    20000 + (std::process::id() % 150) as u16 * 40 + offset
}

/// Live acceptors run the §5.2 trim protocol at the checkpoint cadence.
/// A WAL-on 1×3 deployment with a short `checkpoint_ms` takes sustained
/// writes over many checkpoint intervals; afterwards every acceptor's
/// trim floor has advanced on every ring, and the log it still retains
/// is smaller than the prefix it dropped. The checkpoints behind the
/// trims are files under each node's WAL directory.
#[test]
fn live_acceptors_trim_behind_quorum_checkpoints() {
    use std::time::Instant;

    let wal_dir = std::env::temp_dir().join(format!("liverun-trim-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let text = generate_localhost_mrpstore(1, 3, base_port(180), wal_dir.to_str()).replacen(
        "checkpoint_ms = 500",
        "checkpoint_ms = 150",
        1,
    );
    let config = DeploymentConfig::parse(&text).unwrap();
    let deployment = Deployment::launch(config.clone()).unwrap();
    let mut client = StoreClient::connect(&config, ClientId::new(41), client_opts()).unwrap();

    let start = Instant::now();
    let mut i = 0u32;
    while start.elapsed() < Duration::from_secs(3) {
        assert_eq!(
            client
                .insert(&format!("trim{i:06}"), Bytes::from(vec![7u8; 64]))
                .unwrap(),
            KvResponse::Ok
        );
        i += 1;
    }

    for node in &config.nodes {
        let stats = liverun::fetch_stats(node.client_addr, Duration::from_secs(5)).unwrap();
        for ring in &config.rings {
            let r = ring.id.raw();
            let floor = stats
                .gauge(&format!("ring{r}_acceptor_trim_floor"))
                .unwrap_or(0);
            let entries = stats
                .gauge(&format!("ring{r}_acceptor_log_entries"))
                .unwrap_or(i64::MAX);
            assert!(
                floor > 0,
                "node {} never trimmed ring {r} ({i} writes)",
                node.id
            );
            assert!(
                entries < floor,
                "node {} retains {entries} entries on ring {r}, trimmed only {floor}",
                node.id
            );
        }
        assert!(
            stats.gauge("ckpt_file_bytes").unwrap_or(0) > 0,
            "node {} has no checkpoint file",
            node.id
        );
    }
    deployment.shutdown();
    let _ = std::fs::remove_dir_all(&wal_dir);
}

/// A WAL-backed replica restarts in place from its *own* checkpoint
/// file. First checkpoints land in node order (node `n` at
/// `(1 + n/4) × checkpoint_ms`), and no node takes its second before
/// `2.25 × checkpoint_ms`; so right after node 2's first checkpoint
/// file lands, it is the freshest checkpoint in the partition for about
/// two seconds. Killed then, with increments in flight, and restarted in
/// place, it installs that file and catches up from the acceptors
/// without fetching a checkpoint from a peer, and serves exactly-once
/// counts.
#[test]
fn restart_in_place_recovers_from_own_checkpoint_file() {
    use common::ids::{NodeId, RingId};
    use mrpstore::KvCommand;
    use std::time::Instant;

    let wal_dir = std::env::temp_dir().join(format!("liverun-ownckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let text = generate_localhost_mrpstore(1, 3, base_port(170), wal_dir.to_str()).replacen(
        "checkpoint_ms = 500",
        "checkpoint_ms = 3000",
        1,
    );
    let config = DeploymentConfig::parse(&text).unwrap();
    let mut deployment = Deployment::launch(config.clone()).unwrap();
    let mut client = StoreClient::connect(&config, ClientId::new(43), client_opts()).unwrap();
    // Checkpoints are watched on disk, not through the stats plane: a
    // stats probe is a fresh connection per poll, and the TIME_WAIT
    // ports it leaves behind may be ones a later test wants to bind.
    let files = |n: u32| -> usize {
        std::fs::read_dir(liverun::node_wal_dir(&wal_dir, NodeId::new(n)))
            .map(|dir| {
                dir.flatten()
                    .filter_map(|e| e.file_name().to_str().map(str::to_owned))
                    .filter(|n| n.starts_with("ckpt-") && n.ends_with(".ckpt"))
                    .count()
            })
            .unwrap_or(0)
    };

    // Count until the victim's first checkpoint file lands.
    let victim = NodeId::new(2);
    let mut total = 0u64;
    let deadline = Instant::now() + Duration::from_secs(30);
    while files(2) == 0 {
        total += 1;
        assert_eq!(client.add("ctr", 1).unwrap(), total);
        assert!(Instant::now() < deadline, "node 2 never checkpointed");
    }
    assert_eq!(
        (files(0), files(1)),
        (1, 1),
        "peers checkpointed once, before the victim"
    );

    // Kill mid-counter — increments in flight — and restart in place at
    // once, well before either peer's second checkpoint.
    let ring0 = RingId::new(0);
    let add = KvCommand::Add {
        key: "ctr".into(),
        delta: 1,
    }
    .to_bytes();
    for _ in 0..4 {
        client.raw().submit(ring0, add.clone()).unwrap();
    }
    deployment.kill(victim).unwrap();
    deployment.restart(victim).unwrap();
    let peers_at_restart = (files(0), files(1));
    let mut replies = 0;
    let drain_end = Instant::now() + Duration::from_secs(30);
    while replies < 4 && Instant::now() < drain_end {
        if client
            .raw()
            .poll_reply(Duration::from_millis(250))
            .is_some()
        {
            replies += 1;
        }
    }
    assert_eq!(replies, 4, "every in-flight increment completes");
    total += 4;
    client.raw().reconnect(victim).unwrap();
    for _ in 0..5 {
        total += 1;
        assert_eq!(client.add("ctr", 1).unwrap(), total);
    }

    // The restarted replica answers the exact count from its own state.
    let raw = client
        .raw()
        .request_from(
            ring0,
            KvCommand::Read { key: "ctr".into() }.to_bytes(),
            victim,
        )
        .unwrap();
    assert_eq!(
        KvResponse::decode(&mut raw.clone()).unwrap(),
        KvResponse::Value(Some(Bytes::copy_from_slice(&total.to_le_bytes()))),
        "restarted replica serves the exactly-once count"
    );
    let stats = liverun::fetch_stats(config.nodes[2].client_addr, Duration::from_secs(5)).unwrap();
    assert_eq!(
        stats.counter("ckpt_fetches_sent"),
        Some(0),
        "recovered from its own file, not a peer's checkpoint \
         (peer checkpoints at restart: {peers_at_restart:?})"
    );
    deployment.shutdown();
    let _ = std::fs::remove_dir_all(&wal_dir);
}
