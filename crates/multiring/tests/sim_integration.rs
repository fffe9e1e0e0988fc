//! End-to-end simulations of Multi-Ring Paxos hosts: clients, multiple
//! rings with rate leveling, checkpointing, trimming and crash recovery.

use std::collections::HashMap;
use std::time::Duration;

use bytes::Bytes;
use common::ids::{ClientId, NodeId, PartitionId, RingId};
use common::SimTime;
use coord::{PartitionInfo, Registry, RingConfig};
use multiring::client::{ClosedLoopClient, CommandSpec};
use multiring::{EchoApp, HostOptions, MultiRingHost};
use ringpaxos::options::{RateLeveling, RingOptions};
use simnet::{CpuModel, Sim, Topology};
use storage::{DiskProfile, StorageMode};

fn lan_sim(seed: u64) -> Sim {
    let mut topo = Topology::lan();
    topo.set_jitter_frac(0.01);
    Sim::with_topology(seed, topo)
}

fn ring_opts() -> RingOptions {
    RingOptions {
        storage: StorageMode::InMemory,
        heartbeat_interval: Duration::from_millis(20),
        failure_timeout: Duration::from_millis(200),
        proposal_retry: Duration::from_millis(500),
        ..RingOptions::default()
    }
}

/// 3 hosts form one ring (all acceptors, all replicas of partition 0);
/// one closed-loop client drives requests at host 0.
#[test]
fn single_ring_service_executes_and_replies() {
    let registry = Registry::new();
    let ring = RingId::new(0);
    let members: Vec<NodeId> = (0..3).map(NodeId::new).collect();
    registry
        .register_ring(RingConfig::new(ring, members.clone(), members.clone()).unwrap())
        .unwrap();
    registry
        .register_partition(
            PartitionId::new(0),
            PartitionInfo {
                rings: vec![ring],
                replicas: members.clone(),
            },
        )
        .unwrap();

    let mut sim = lan_sim(1);
    for m in &members {
        let host = MultiRingHost::new(
            *m,
            registry.clone(),
            &[ring],
            &[ring],
            Some(PartitionId::new(0)),
            Box::new(EchoApp::new()),
            HostOptions {
                ring: ring_opts(),
                ..HostOptions::default()
            },
        );
        sim.add_node_with_cpu(0, host, CpuModel::free());
    }
    let client = ClosedLoopClient::new(
        ClientId::new(1),
        registry.clone(),
        HashMap::from([(ring, NodeId::new(0))]),
        move |_rng: &mut rand::rngs::StdRng| {
            CommandSpec::simple(ring, Bytes::from_static(b"cmd"), vec![PartitionId::new(0)])
        },
        4,
    );
    let stats = client.stats();
    sim.add_node_with_cpu(0, client, CpuModel::free());

    sim.run_until(SimTime::from_secs(2));

    let s = stats.borrow();
    assert!(
        s.completed > 100,
        "client should complete many requests, got {}",
        s.completed
    );
    // Latency should be a few ring hops on a 0.1 ms RTT LAN.
    let p50 = s.latency.quantile(0.5);
    assert!(
        p50 < 5_000_000,
        "median latency should be sub-5ms, got {p50}ns"
    );
}

/// Two rings with unbalanced load: ring 0 carries traffic, ring 1 is
/// idle. Without rate leveling the merge would stall; skips keep it
/// moving.
#[test]
fn rate_leveling_unblocks_idle_ring() {
    let registry = Registry::new();
    let r0 = RingId::new(0);
    let r1 = RingId::new(1);
    let members: Vec<NodeId> = (0..3).map(NodeId::new).collect();
    for r in [r0, r1] {
        registry
            .register_ring(RingConfig::new(r, members.clone(), members.clone()).unwrap())
            .unwrap();
    }
    registry
        .register_partition(
            PartitionId::new(0),
            PartitionInfo {
                rings: vec![r0, r1],
                replicas: members.clone(),
            },
        )
        .unwrap();

    let mut sim = lan_sim(2);
    for m in &members {
        let mut opts = ring_opts();
        opts.rate_leveling = Some(RateLeveling {
            delta: Duration::from_millis(5),
            lambda: 9000,
        });
        let host = MultiRingHost::new(
            *m,
            registry.clone(),
            &[r0, r1],
            &[r0, r1],
            Some(PartitionId::new(0)),
            Box::new(EchoApp::new()),
            HostOptions {
                ring: opts,
                ..HostOptions::default()
            },
        );
        sim.add_node_with_cpu(0, host, CpuModel::free());
    }
    let client = ClosedLoopClient::new(
        ClientId::new(1),
        registry.clone(),
        HashMap::from([(r0, NodeId::new(0))]),
        move |_rng: &mut rand::rngs::StdRng| {
            CommandSpec::simple(
                r0,
                Bytes::from_static(b"only-ring-0"),
                vec![PartitionId::new(0)],
            )
        },
        2,
    );
    let stats = client.stats();
    sim.add_node_with_cpu(0, client, CpuModel::free());

    sim.run_until(SimTime::from_secs(2));
    let done = stats.borrow().completed;
    assert!(
        done > 50,
        "requests multicast to ring 0 must deliver despite idle ring 1 (got {done})"
    );
}

/// The Figure 8 scenario in miniature: checkpoints + trimming run, a
/// replica crashes, restarts, fetches a checkpoint from a peer and
/// catches up from the acceptors.
#[test]
fn replica_recovers_after_crash_with_trimming() {
    let registry = Registry::new();
    let ring = RingId::new(0);
    let members: Vec<NodeId> = (0..3).map(NodeId::new).collect();
    registry
        .register_ring(RingConfig::new(ring, members.clone(), members.clone()).unwrap())
        .unwrap();
    registry
        .register_partition(
            PartitionId::new(0),
            PartitionInfo {
                rings: vec![ring],
                replicas: members.clone(),
            },
        )
        .unwrap();

    let mut sim = lan_sim(3);
    let host_opts = HostOptions {
        ring: RingOptions {
            storage: StorageMode::Async(DiskProfile::ssd()),
            heartbeat_interval: Duration::from_millis(20),
            failure_timeout: Duration::from_millis(300),
            proposal_retry: Duration::from_millis(500),
            ..RingOptions::default()
        },
        checkpoint_interval: Some(Duration::from_millis(500)),
        trim_interval: Some(Duration::from_millis(700)),
        checkpoint_storage: StorageMode::Sync(DiskProfile::ssd()),
        ..HostOptions::default()
    };
    for m in &members {
        let host = MultiRingHost::new(
            *m,
            registry.clone(),
            &[ring],
            &[ring],
            Some(PartitionId::new(0)),
            Box::new(EchoApp::new()),
            host_opts.clone(),
        );
        sim.add_node_with_cpu(0, host, CpuModel::free());
    }
    let client = ClosedLoopClient::new(
        ClientId::new(1),
        registry.clone(),
        HashMap::from([(ring, NodeId::new(0))]),
        move |_rng: &mut rand::rngs::StdRng| {
            CommandSpec::simple(
                ring,
                Bytes::from_static(b"recovering"),
                vec![PartitionId::new(0)],
            )
        },
        2,
    );
    let stats = client.stats();
    sim.add_node_with_cpu(0, client, CpuModel::free());

    // Crash replica 2 at t=2s, restart at t=5s, run until t=9s.
    sim.schedule_crash(NodeId::new(2), SimTime::from_secs(2));
    sim.schedule_restart(NodeId::new(2), SimTime::from_secs(5));
    sim.run_until(SimTime::from_secs(9));

    // Service stayed available throughout (majority up).
    let done = stats.borrow().completed;
    assert!(done > 200, "service must stay available, got {done}");

    // The metrics show the crash/restart happened.
    let m = sim.metrics();
    assert_eq!(m.borrow().counter("node.crashes"), 1);
    assert_eq!(m.borrow().counter("node.restarts"), 1);
}

/// What [`LossyFetch`] observed of the host it wraps.
#[derive(Default)]
struct FetchProbe {
    /// `CheckpointData` replies delivered to the host.
    data_delivered: u32,
    /// `CheckpointData` replies dropped on the way in.
    data_dropped: u32,
    /// The wrapped host is still recovering (after its last event).
    recovering: bool,
}

/// Wraps a host and loses the first `CheckpointData` reply it receives,
/// as an unlucky network would.
struct LossyFetch {
    host: MultiRingHost,
    probe: std::rc::Rc<std::cell::RefCell<FetchProbe>>,
}

impl LossyFetch {
    fn note(&self) {
        self.probe.borrow_mut().recovering = self.host.is_recovering();
    }
}

impl simnet::Process for LossyFetch {
    fn on_start(&mut self, ctx: &mut simnet::Ctx<'_>) {
        self.host.on_start(ctx);
        self.note();
    }

    fn on_message(&mut self, from: NodeId, msg: common::msg::Msg, ctx: &mut simnet::Ctx<'_>) {
        use common::msg::{Msg, RecoveryMsg};
        if let Msg::Recovery(RecoveryMsg::CheckpointData { .. }) = &msg {
            let mut probe = self.probe.borrow_mut();
            if probe.data_dropped == 0 {
                probe.data_dropped += 1;
                return;
            }
            probe.data_delivered += 1;
        }
        self.host.on_message(from, msg, ctx);
        self.note();
    }

    fn on_timer(&mut self, timer: simnet::Timer, ctx: &mut simnet::Ctx<'_>) {
        self.host.on_timer(timer, ctx);
        self.note();
    }

    fn on_crash(&mut self, now: SimTime) {
        self.host.on_crash(now);
    }

    fn on_restart(&mut self, ctx: &mut simnet::Ctx<'_>) {
        self.host.on_restart(ctx);
        self.note();
    }
}

/// A recovering replica's first checkpoint fetch is lost, and by the
/// time its retry arrives the serving peer has checkpointed several
/// times and no longer retains the requested checkpoint: it ships its
/// latest instead. That reply dominates the request and must be
/// installed; refusing it would re-request the evicted checkpoint on
/// every retry, shipping a full state each time, forever.
#[test]
fn lost_checkpoint_fetch_accepts_a_fresher_checkpoint() {
    let registry = Registry::new();
    let ring = RingId::new(0);
    let members: Vec<NodeId> = (0..3).map(NodeId::new).collect();
    registry
        .register_ring(RingConfig::new(ring, members.clone(), members.clone()).unwrap())
        .unwrap();
    registry
        .register_partition(
            PartitionId::new(0),
            PartitionInfo {
                rings: vec![ring],
                replicas: members.clone(),
            },
        )
        .unwrap();

    let mut sim = lan_sim(5);
    // Checkpoints every ~100–190 ms against a 1 s recovery retry: the
    // peer checkpoints at least twice between the lost reply and the
    // retry, evicting the requested checkpoint (it retains two).
    let host_opts = HostOptions {
        ring: ring_opts(),
        checkpoint_interval: Some(Duration::from_millis(100)),
        recovery_retry: Duration::from_secs(1),
        checkpoint_storage: StorageMode::Sync(DiskProfile::ssd()),
        ..HostOptions::default()
    };
    let probe = std::rc::Rc::new(std::cell::RefCell::new(FetchProbe::default()));
    for m in &members {
        let host = MultiRingHost::new(
            *m,
            registry.clone(),
            &[ring],
            &[ring],
            Some(PartitionId::new(0)),
            Box::new(EchoApp::new()),
            host_opts.clone(),
        );
        if m.raw() == 2 {
            let lossy = LossyFetch {
                host,
                probe: probe.clone(),
            };
            sim.add_node_with_cpu(0, lossy, CpuModel::free());
        } else {
            sim.add_node_with_cpu(0, host, CpuModel::free());
        }
    }
    let client = ClosedLoopClient::new(
        ClientId::new(1),
        registry.clone(),
        HashMap::from([(ring, NodeId::new(0))]),
        move |_rng: &mut rand::rngs::StdRng| {
            CommandSpec::simple(
                ring,
                Bytes::from_static(b"fetch"),
                vec![PartitionId::new(0)],
            )
        },
        2,
    );
    sim.add_node_with_cpu(0, client, CpuModel::free());

    // Replica 2 crashes at 2 s and restarts at 3 s behind its peers'
    // checkpoints, so it must fetch one.
    sim.schedule_crash(NodeId::new(2), SimTime::from_secs(2));
    sim.schedule_restart(NodeId::new(2), SimTime::from_secs(3));
    sim.run_until(SimTime::from_secs(8));

    let p = probe.borrow();
    assert_eq!(p.data_dropped, 1, "the first checkpoint reply was lost");
    assert_eq!(
        p.data_delivered, 1,
        "one retry fetched a (fresher) checkpoint; more means the retry livelocked"
    );
    assert!(!p.recovering, "replica 2 finished recovery");
}
