//! Quickstart: atomic broadcast on a live localhost deployment.
//!
//! Three replicas of one MRP-Store partition form one Ring Paxos ring
//! over real TCP sockets (real threads — not the simulator). A network
//! client issues a few inserts and exactly-once counter increments; every
//! replica logs each command it delivers in its write-ahead log. After
//! shutdown we replay the three logs and show that every node delivered
//! the identical totally-ordered stream.
//!
//! Run: `cargo run --example quickstart`

use std::time::{Duration, Instant};

use atomic_multicast::common::ids::{ClientId, NodeId};
use atomic_multicast::common::value::SESSION_CTL;
use atomic_multicast::common::wire::Wire;
use atomic_multicast::liverun::config::generate_localhost_mrpstore;
use atomic_multicast::liverun::{
    node_wal_dir, ClientOptions, Deployment, DeploymentConfig, StoreClient, WalRecord,
};
use atomic_multicast::mrpstore::KvCommand;
use atomic_multicast::storage::wal::SegmentedWal;
use bytes::Bytes;

fn main() {
    // One partition, three replicas; every replica is proposer + acceptor
    // + learner of the partition's ring, and the first acceptor
    // coordinates (paper §8.3.1's smallest deployment).
    let wal_dir = std::env::temp_dir().join(format!("amcast-quickstart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let base_port = 26000 + (std::process::id() % 100) as u16 * 8;
    let text = generate_localhost_mrpstore(1, 3, base_port, wal_dir.to_str());
    let config = DeploymentConfig::parse(&text).expect("generated config parses");
    let deployment = Deployment::launch(config.clone()).expect("start deployment");

    let opts = ClientOptions {
        timeout: Duration::from_secs(10),
        ..ClientOptions::default()
    };
    let mut client = StoreClient::connect(&config, ClientId::new(1), opts).expect("connect");
    for (key, value) in [("alice", "1"), ("bob", "2"), ("carol", "3")] {
        client
            .insert(key, Bytes::from_static(value.as_bytes()))
            .expect("insert");
    }
    for _ in 0..3 {
        client.add("visits", 1).expect("add");
    }
    println!("visits = {}", client.add("visits", 0).expect("add"));
    drop(client);

    // The client completes on the first reply; give the other replicas a
    // moment to deliver (and log) the last commands too.
    let replay = || -> Vec<Vec<WalRecord>> {
        (0..3)
            .map(|n| {
                SegmentedWal::replay::<WalRecord>(node_wal_dir(&wal_dir, NodeId::new(n)))
                    .expect("replay node WAL")
                    .into_iter()
                    .map(|(_, rec)| rec)
                    .collect()
            })
            .collect()
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        let streams = replay();
        if streams.iter().all(|s| s.len() == streams[0].len()) {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    deployment.shutdown();

    // Every replica logged the same stream, in the same order.
    let streams = replay();
    for (n, stream) in streams.iter().enumerate() {
        println!("node {n} delivered {} commands", stream.len());
    }
    assert!(!streams[0].is_empty(), "nothing was delivered");
    assert_eq!(streams[0], streams[1]);
    assert_eq!(streams[1], streams[2]);

    println!("\ntotal order on every node:");
    for (i, rec) in streams[0].iter().enumerate() {
        let env = &rec.env;
        let what = if env.session == SESSION_CTL {
            "session control".to_string()
        } else {
            match KvCommand::decode(&mut env.cmd.clone()) {
                Ok(cmd) => format!("{cmd:?}"),
                Err(_) => format!("{} opaque bytes", env.cmd.len()),
            }
        };
        println!(
            "  {i:>3}: client {} seq {} -> {what}",
            env.client.raw(),
            env.req.raw()
        );
    }

    let _ = std::fs::remove_dir_all(&wal_dir);
    println!("\nok: all three nodes delivered the identical sequence");
}
