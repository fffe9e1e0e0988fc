//! `amcoord` — the replicated coordination service (`amcoordd` runtime).
//!
//! Each `amcoordd` replica is one member of a dedicated Ring Paxos ring
//! that serves as the service's replicated log — the stack is
//! self-hosting: the consensus protocol whose deployments amcoord
//! coordinates also orders amcoord's own state changes. No new consensus
//! code exists here. A replica is one loop thread, `amcoord-srv-<id>`,
//! that owns
//!
//! * one [`ringpaxos::RingNode`] (the log), talking to the other replicas
//!   over the node runtime's peer transport,
//! * the replica's decided-log WAL and one [`coord::CoordState`] applied
//!   in decided order (the state),
//!
//! plus a framed-TCP front end speaking [`common::wire::coord`] to clients
//! (liverun nodes, CLIs, fellow replicas), whose reader threads feed the
//! loop. Each loop step feeds peer messages, proposals and due timers
//! into the ring node, group-commits every value the step decided once,
//! and only then applies them in order — through the same function WAL
//! replay uses — and answers the waiting clients.
//!
//! Mutating operations are proposed to the ring tagged with the serving
//! replica and a sequence number; when the decision comes back around,
//! *every* replica applies it and the proposer answers its waiting
//! client. Reads are answered from applied state (the Zookeeper
//! consistency model). Watch events fan out to every connection that sent
//! [`CoordOp::WatchAll`].
//!
//! **Sessions.** TTL liveness is tracked per replica off the *applied*
//! keep-alive stream (every replica sees every keep-alive, so any replica
//! can time any session against its own clock). When a TTL lapses, the
//! observing replica proposes [`CoordOp::ExpireSession`] carrying the
//! refresh counter it saw — a keep-alive racing through the log wins the
//! CAS and the session survives.
//!
//! **The bootstrap ring.** The one ring amcoord cannot coordinate through
//! itself is its own: members gossip deterministic, epoch-guarded
//! reconfigurations ([`CoordOp::InstallConfig`]) to each other instead.
//! This mirrors Zookeeper's statically configured ensemble (§7.1): the
//! replica list is fixed at launch, and losing a minority only costs the
//! gossiped failover hop.
//!
//! **Durability & restart-in-place.** With a `wal_dir`, a replica's
//! decided log is group-committed through a rotated
//! [`storage::wal::SegmentedWal`] (bounded `seg-*.wal` files under
//! `amcoord-<id>.walseg/`, guarded by writer locks) and its applied
//! [`CoordState`] is checkpointed every
//! [`CoordServerConfig::checkpoint_every`] applied records via
//! [`storage::CheckpointFile`]. Each successful periodic checkpoint also
//! *prunes* the log: closed segments whose records all sit below the
//! checkpoint cursor are deleted, so checkpoints bound replay **and**
//! rotation bounds disk. Boot follows Zookeeper's snapshot + log-replay
//! recipe: load the latest checkpoint, replay the WAL suffix at or beyond
//! its cursor, fetch a [`CoordOp::SnapshotRequest`] snapshot from a live
//! peer and install it if it is ahead (the jump is checkpointed before the
//! cursor moves, so a crash never leaves a hole between checkpoint and
//! log), re-admit the replica to the ensemble's ring — and only then
//! create the ring member at the final cursor and serve clients. A
//! sweep-time watchdog repeats the peer fetch if the learner ever blocks
//! on a gap the ring will not re-circulate. One caveat remains: the
//! acceptor's *vote* log is volatile, so safety across a restart leans on
//! the surviving majority's intact logs (the usual minority-failure
//! assumption), not on the restarted replica's own promises.

use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};

use common::error::{Error, Result};
use common::ids::{InstanceId, NodeId, RingId, SessionId};
use common::msg::{AcceptedEntry, Msg, RingMsg};
use common::obs::{Counter, Gauge, Obs};
use common::transport::{encode_frame, FrameBuf, TimerHeap, WallClock};
use common::value::Value;
use common::wire::coord::{
    CoordCmd, CoordEvent, CoordMsg, CoordOk, CoordOp, CoordReply, OpKind, RingConfigWire,
};
use common::wire::Wire;
use common::Ballot;
use coord::state::ApplyResult;
use coord::{CoordState, Registry, RingConfig};
use ringpaxos::{Output, RingNode, RingOptions, RingTimer};
use storage::checkpoint::CheckpointFile;
use storage::wal::{DecidedLog, SegmentedWal, SyncPolicy};

use crate::node::{spawn_listener, spawn_peer_reader, ListenerHandle, PeerTransport};

/// The ring id the ensemble replicates its own log on (a private
/// namespace — this ring never appears in any deployment's registry).
pub const COORD_RING: RingId = RingId::new(0);

/// Static description of one amcoordd ensemble, identical in every
/// replica (like a Zookeeper server list).
#[derive(Clone, Debug)]
pub struct CoordServerConfig {
    /// This replica's id (an index into the address lists).
    pub id: NodeId,
    /// Ring (replica ↔ replica consensus) addresses, one per replica.
    pub ring_addrs: Vec<SocketAddr>,
    /// Client-serving addresses, one per replica.
    pub client_addrs: Vec<SocketAddr>,
    /// Directory for the replica's durable state — the rotated
    /// decided-log segments (`amcoord-<id>.walseg/seg-*.wal`) and the
    /// state checkpoint (`amcoord-<id>.ckpt`). `None` disables
    /// durability (a restarted replica then relies entirely on peer
    /// catch-up).
    pub wal_dir: Option<PathBuf>,
    /// How often the replica sweeps for lapsed sessions.
    pub session_check: Duration,
    /// Write a `CoordState` checkpoint every this many applied log
    /// records (0 disables checkpointing; replay then walks the whole
    /// WAL). Only meaningful with `wal_dir`.
    pub checkpoint_every: u64,
}

impl CoordServerConfig {
    /// A localhost ensemble of `n` replicas with sequential ports from
    /// `base_port` (ring ports first, then client ports); `id` names this
    /// replica.
    pub fn localhost(id: u32, n: u16, base_port: u16) -> Self {
        let ring_addrs = (0..n)
            .map(|i| format!("127.0.0.1:{}", base_port + i).parse().unwrap())
            .collect();
        let client_addrs = (0..n)
            .map(|i| format!("127.0.0.1:{}", base_port + n + i).parse().unwrap())
            .collect();
        CoordServerConfig {
            id: NodeId::new(id),
            ring_addrs,
            client_addrs,
            wal_dir: None,
            session_check: Duration::from_millis(500),
            checkpoint_every: 256,
        }
    }

    /// The replica ids, in ring order.
    pub fn members(&self) -> Vec<NodeId> {
        (0..self.ring_addrs.len() as u32).map(NodeId::new).collect()
    }

    /// This replica's client-serving address.
    ///
    /// # Errors
    ///
    /// Fails if `id` is out of range or the address lists disagree.
    pub fn my_client_addr(&self) -> Result<SocketAddr> {
        self.validate()?;
        Ok(self.client_addrs[self.id.raw() as usize])
    }

    fn validate(&self) -> Result<()> {
        if self.ring_addrs.is_empty() || self.ring_addrs.len() != self.client_addrs.len() {
            return Err(Error::Config(
                "amcoordd needs equal, non-empty ring/client address lists".into(),
            ));
        }
        if self.id.raw() as usize >= self.ring_addrs.len() {
            return Err(Error::Config(format!(
                "amcoordd id {} out of range for {} replicas",
                self.id,
                self.ring_addrs.len()
            )));
        }
        Ok(())
    }
}

/// Write half of one client connection (bounded, never blocks the loop).
#[derive(Clone)]
struct ConnWriter {
    tx: Sender<CoordReply>,
}

impl ConnWriter {
    fn new(stream: TcpStream) -> Self {
        let (tx, rx) = crossbeam::channel::bounded::<CoordReply>(4096);
        std::thread::spawn(move || {
            let mut stream = stream;
            while let Ok(reply) = rx.recv() {
                if stream.write_all(&encode_frame(&reply)).is_err() {
                    break;
                }
            }
            // Close the *socket*, not just our fd: the reader thread
            // holds a clone, and the client must observe EOF (and
            // reconnect with a fresh watch + cache) when this half dies.
            let _ = stream.shutdown(std::net::Shutdown::Both);
        });
        ConnWriter { tx }
    }

    /// Queues a frame; false when the connection's queue is full (stalled
    /// client). Correlated replies may shed — the client times out and
    /// retries — but a dropped *watch event* must kill the connection,
    /// or the client's config cache would go silently stale forever.
    #[must_use]
    fn send(&self, reply: CoordReply) -> bool {
        self.tx.try_send(reply).is_ok()
    }
}

struct ConnState {
    writer: ConnWriter,
    watch_all: bool,
}

enum SrvEvent {
    /// A client connection opened.
    Conn(u64, ConnWriter),
    /// A frame arrived on a connection.
    Msg(u64, CoordMsg),
    /// A connection closed.
    Gone(u64),
    /// A ring message from a fellow replica.
    Ring(NodeId, RingMsg),
    /// A gap-watchdog peer fetch finished (off-thread — the fetch can
    /// block seconds and must not stall the ring), `None` if no peer
    /// answered.
    CatchUp(Option<PeerSnapshot>),
    /// Stop the replica.
    Shutdown,
}

/// Adopts a peer's view of the ensemble's own consensus ring and
/// re-admits `me` if that view no longer contains it (the survivors
/// detected our death and reconfigured around us). Both steps are
/// epoch-guarded local CASes whose RingChanged events the loop gossips
/// to the peers.
fn rejoin_ensemble_ring(ring_registry: &Registry, me: NodeId, peer_ring: Option<RingConfigWire>) {
    let Some(wire) = peer_ring else { return };
    let _ = ring_registry.install_config(wire);
    if let Ok(cur) = ring_registry.ring(COORD_RING) {
        if !cur.contains(me) {
            let _ = ring_registry.rejoin(COORD_RING, me, true);
        }
    }
}

/// Handle to one running amcoordd replica.
pub struct CoordServerHandle {
    tx: Sender<SrvEvent>,
    join: Option<JoinHandle<()>>,
    listeners: Vec<ListenerHandle>,
    client_addr: SocketAddr,
}

impl CoordServerHandle {
    /// The address clients connect to.
    pub fn client_addr(&self) -> SocketAddr {
        self.client_addr
    }

    /// Stops the replica: closes the peer and client listeners, stops
    /// the loop (and with it the ring member), joins the loop thread.
    pub fn shutdown(mut self) {
        for l in self.listeners.drain(..) {
            l.stop();
        }
        let _ = self.tx.send(SrvEvent::Shutdown);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// The decided-log segment directory of replica `id` under `dir`. The
/// log is rotated: bounded `seg-<first-instance>.wal` files, closed
/// segments wholly below the checkpoint cursor deleted on each periodic
/// checkpoint (checkpoints bound *replay*; rotation bounds *disk*).
pub fn wal_seg_dir(dir: &std::path::Path, id: NodeId) -> PathBuf {
    dir.join(format!("amcoord-{}.walseg", id.raw()))
}

/// The checkpoint path of replica `id` under `dir`.
pub fn checkpoint_path(dir: &std::path::Path, id: NodeId) -> PathBuf {
    dir.join(format!("amcoord-{}.ckpt", id.raw()))
}

/// Why [`apply_log_entry`] left a decided-log record unapplied.
enum Unapplied {
    /// Below the cursor: a checkpoint or a peer snapshot covers it.
    Covered,
    /// Beyond the cursor: a hole, never crossed.
    Hole,
}

/// Applies one decided-log record to `state`, advancing `applied` — the
/// one apply path of live delivery and WAL replay. Returns the command
/// with its result and watch events; `None` for payloads that are not a
/// [`CoordCmd`] (no-ops, skips), which only advance the cursor.
///
/// Refuses a **hole**: a record *beyond* the cursor. The log is
/// contiguous in normal operation, but a peer-snapshot install jumps
/// the cursor past instances this replica never logged; if the
/// checkpoint recording that jump is later lost (corrupt slot falls back
/// to whole-log replay), crossing the hole would silently build
/// divergent state. Replay stops there — a consistent prefix plus peer
/// catch-up is correct, a gapped replay is not.
fn apply_log_entry(
    state: &mut CoordState,
    applied: &mut InstanceId,
    inst: InstanceId,
    value: &Value,
) -> std::result::Result<Option<(CoordCmd, ApplyResult, Vec<CoordEvent>)>, Unapplied> {
    if inst < *applied {
        return Err(Unapplied::Covered);
    }
    if inst > *applied {
        return Err(Unapplied::Hole);
    }
    *applied = inst.plus(value.instance_span());
    let cmd = value
        .payload()
        .and_then(|bytes| CoordCmd::decode(&mut bytes.clone()).ok());
    Ok(cmd.map(|cmd| {
        let (result, events) = state.apply(&cmd.op);
        (cmd, result, events)
    }))
}

/// A peer's answer to the catch-up RPC.
struct PeerSnapshot {
    /// The peer's applied log cursor.
    applied: u64,
    /// The peer's view of the ensemble's own consensus ring.
    ensemble_ring: Option<common::wire::coord::RingConfigWire>,
    /// The encoded `CoordState` at `applied`.
    state: bytes::Bytes,
}

/// Fetches a [`CoordOk::Snapshot`] from **every** reachable peer
/// (waiting up to `timeout` per peer) and keeps the one with the
/// highest applied cursor — judging "caught up" against whichever peer
/// happens to answer first could adopt a *behind* peer's view and stop
/// looking (e.g. two freshly restarted replicas electing each other's
/// empty state while the one up-to-date peer is transiently
/// unreachable). The ensemble-ring view is taken from the
/// highest-epoch answer; installs of both are guarded anyway.
fn fetch_peer_snapshot(peers: &[SocketAddr], timeout: Duration) -> Option<PeerSnapshot> {
    let mut best: Option<PeerSnapshot> = None;
    for addr in peers {
        let Some(snap) = fetch_one_snapshot(*addr, timeout) else {
            continue;
        };
        match &mut best {
            None => best = Some(snap),
            Some(b) => {
                if snap
                    .ensemble_ring
                    .as_ref()
                    .map(|c| c.epoch)
                    .cmp(&b.ensemble_ring.as_ref().map(|c| c.epoch))
                    .is_gt()
                {
                    b.ensemble_ring = snap.ensemble_ring.clone();
                }
                if snap.applied > b.applied {
                    b.applied = snap.applied;
                    b.state = snap.state;
                }
            }
        }
    }
    best
}

/// One peer's catch-up answer, or `None` if unreachable/unresponsive.
fn fetch_one_snapshot(addr: SocketAddr, timeout: Duration) -> Option<PeerSnapshot> {
    let Ok(mut stream) = TcpStream::connect_timeout(&addr, Duration::from_millis(250)) else {
        return None;
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(timeout));
    let frame = encode_frame(&CoordMsg {
        req: 1,
        op: CoordOp::SnapshotRequest,
    });
    if stream.write_all(&frame).is_err() {
        return None;
    }
    let mut buf = FrameBuf::new();
    let mut chunk = [0u8; 64 * 1024];
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => {
                buf.extend(&chunk[..n]);
                loop {
                    match buf.try_next::<CoordReply>() {
                        Ok(Some(CoordReply::Ok {
                            req: 1,
                            body:
                                CoordOk::Snapshot {
                                    applied,
                                    ensemble_ring,
                                    state,
                                },
                        })) => {
                            return Some(PeerSnapshot {
                                applied,
                                ensemble_ring,
                                state,
                            })
                        }
                        Ok(Some(_)) => {}
                        Ok(None) => break,
                        Err(_) => return None,
                    }
                }
            }
        }
    }
    None
}

/// The replica's state machine with its decided log and checkpoint —
/// everything boot recovers before the ring member exists.
struct Durable {
    state: CoordState,
    /// The next log instance to apply (everything below is in `state`).
    applied: InstanceId,
    wal: Option<SegmentedWal>,
    ckpt: Option<CheckpointFile>,
    checkpoint_every: u64,
    /// Records applied since the last checkpoint.
    since_ckpt: u64,
}

impl Durable {
    /// Recovers the replica's durable state: the latest checkpoint, then
    /// the WAL suffix at or beyond its cursor (Zookeeper's snapshot + log
    /// replay, §7.1 analogue). Without a `wal_dir` the state starts empty.
    fn recover(config: &CoordServerConfig) -> Result<Self> {
        let mut durable = Durable {
            state: CoordState::new(),
            applied: InstanceId::ZERO,
            wal: None,
            ckpt: None,
            checkpoint_every: config.checkpoint_every,
            since_ckpt: 0,
        };
        let Some(dir) = &config.wal_dir else {
            return Ok(durable);
        };
        std::fs::create_dir_all(dir)?;
        let seg_dir = wal_seg_dir(dir, config.id);
        // Open (taking the directory's writer lock) *before* reading
        // anything: a previous owner still flushing its final group
        // commit would otherwise race our replay to the log tail (open
        // refuses a live holder and steals only dead-pid locks). Segments
        // roll every `checkpoint_every` records so each periodic
        // checkpoint retires roughly one segment.
        let roll_every = if config.checkpoint_every > 0 {
            config.checkpoint_every
        } else {
            4096
        };
        let wal = SegmentedWal::open(&seg_dir, SyncPolicy::EveryWrite, roll_every)?;
        let slot = CheckpointFile::new(checkpoint_path(dir, config.id));
        if let Some((cursor, bytes)) = slot.load() {
            if let Ok(st) = CoordState::decode_snapshot(&mut bytes.clone()) {
                durable.state = st;
                durable.applied = InstanceId::new(cursor);
            }
            // A corrupt checkpoint falls back to whole-log replay.
        }
        for (_, rec) in SegmentedWal::replay::<AcceptedEntry>(&seg_dir)? {
            let (state, applied) = (&mut durable.state, &mut durable.applied);
            if let Err(Unapplied::Hole) = apply_log_entry(state, applied, rec.inst, &rec.value) {
                break; // stop at the consistent prefix
            }
        }
        durable.wal = Some(wal);
        durable.ckpt = Some(slot);
        Ok(durable)
    }

    /// Group commit: stages every value one loop step decided and hits
    /// the log (and, under its sync policy, the disk) once.
    fn commit(&mut self, decided: &[(InstanceId, Value)]) {
        let Some(wal) = &mut self.wal else { return };
        for (inst, value) in decided {
            wal.stage(inst.raw(), &mut |buf| {
                AcceptedEntry {
                    inst: *inst,
                    vballot: Ballot::ZERO,
                    value: value.clone(),
                }
                .encode(buf)
            });
        }
        let _ = wal.commit();
    }

    /// Counts one applied record and checkpoints the state every
    /// `checkpoint_every` of them. A failed save (full disk, torn rename
    /// target) retries on the next record; the WAL remains authoritative
    /// either way. A successful one prunes the log: segments wholly below
    /// the checkpointed cursor can never be needed by a replay again.
    fn note_applied(&mut self) {
        let Some(slot) = &self.ckpt else { return };
        if self.checkpoint_every == 0 {
            return;
        }
        self.since_ckpt += 1;
        if self.since_ckpt >= self.checkpoint_every
            && slot
                .save(self.applied.raw(), &self.state.snapshot())
                .is_ok()
        {
            self.since_ckpt = 0;
            self.prune_below(self.applied);
        }
    }

    fn prune_below(&mut self, pos: InstanceId) {
        if let Some(wal) = &mut self.wal {
            let _ = wal.prune_below(pos.raw());
        }
    }

    /// Installs a peer snapshot if it is ahead. The jump is checkpointed
    /// durably *before* the state moves: later WAL appends continue from
    /// the new cursor, so a replay must never have to cross the hole
    /// between the old cursor and the snapshot.
    ///
    /// Returns `Ok(true)` when our state is now at least as current as
    /// the peer's answer (installed, or we were already ahead).
    /// `Ok(false)` means the peer is ahead but its snapshot did not
    /// decode (version skew, corruption) — the caller must keep trying,
    /// **not** conclude it caught up.
    fn install_snapshot(&mut self, peer_applied: u64, bytes: &Bytes) -> Result<bool> {
        if peer_applied <= self.applied.raw() {
            return Ok(true);
        }
        let Ok(state) = CoordState::decode_snapshot(&mut bytes.clone()) else {
            return Ok(false);
        };
        if let Some(slot) = &self.ckpt {
            slot.save(peer_applied, bytes)?;
            // The jump is durable: everything below it is
            // checkpoint-covered, so log segments below it can go.
            self.prune_below(InstanceId::new(peer_applied));
        }
        self.state = state;
        self.applied = InstanceId::new(peer_applied);
        self.since_ckpt = 0;
        Ok(true)
    }
}

/// Starts one amcoordd replica of `config`.
///
/// Boot is the recovery path: with a `wal_dir`, the latest checkpoint
/// and the WAL suffix are replayed into the state machine; then a live
/// peer's snapshot is fetched (and installed if ahead) and the replica
/// re-admits itself to the ensemble's ring if the survivors reconfigured
/// it out. Only then is the ring member created, at the final delivery
/// cursor, and the listeners bound — a restarted replica never serves
/// reads older than what the ensemble committed while it was down, and
/// never needs a fresh ensemble.
///
/// # Errors
///
/// Fails if the configuration is inconsistent, a listener cannot bind or
/// the WAL cannot open (e.g. another live process holds its lock).
pub fn start_coord_server(config: CoordServerConfig) -> Result<CoordServerHandle> {
    config.validate()?;
    let me = config.id;
    let members = config.members();

    // The ensemble's own ring lives in a local registry seeded from the
    // static replica list; InstallConfig gossip keeps replicas aligned
    // across failovers (see module docs). The loop gossips every change
    // it watches — including the rejoin below, so watch first.
    let ring_registry = Registry::new();
    ring_registry.register_ring(RingConfig::new(
        COORD_RING,
        members.clone(),
        members.clone(),
    )?)?;
    let watch = ring_registry.watch();

    let mut durable = Durable::recover(&config)?;

    // Per-process metrics registry. Restart-in-place semantics: the
    // monotonic apply counter is re-seeded from the recovered delivery
    // cursor (it survives the restart the same way the state does),
    // while volatile gauges start from zero.
    let obs = Obs::for_node(me.raw());
    obs.reset_gauges();
    obs.counter("coord_applied").seed(durable.applied.raw());
    if let Some(wal) = &mut durable.wal {
        wal.instrument(&obs);
    }

    // Catch the tail up from a live peer before serving: everything the
    // ensemble decided while this replica was down is in some peer's
    // applied state, and the ring will not re-circulate old decisions.
    let peer_clients: Vec<SocketAddr> = config
        .client_addrs
        .iter()
        .enumerate()
        .filter(|(i, _)| *i as u32 != me.raw())
        .map(|(_, a)| *a)
        .collect();
    // If no peer answers (whole-ensemble restart, transient blip), the
    // sweep keeps retrying the fetch until one does — without this, an
    // idle ensemble would never trigger the gap watchdog (no new
    // decisions → no buffered gap) and a behind replica could serve
    // stale reads indefinitely.
    let mut catchup_needed = !peer_clients.is_empty();
    if let Some(snap) = fetch_peer_snapshot(&peer_clients, Duration::from_secs(2)) {
        // Caught up only if we are now at least as current as the
        // answering peer — an undecodable snapshot from an ahead peer
        // must keep the sweep retrying.
        catchup_needed = !durable.install_snapshot(snap.applied, &snap.state)?;
        // Rejoin the ensemble's own consensus ring if the survivors
        // reconfigured this replica out while it was down: adopt their
        // (newer-epoch) view, then re-admit ourselves with the same
        // deterministic local CAS data rings use. The loop gossips the
        // RingChanged events, so the survivors install the rejoined
        // config and their coordinator re-runs Phase 1 around us.
        rejoin_ensemble_ring(&ring_registry, me, snap.ensemble_ring);
    }

    let opts = RingOptions {
        heartbeat_interval: Duration::from_millis(25),
        failure_timeout: Duration::from_millis(400),
        proposal_retry: Duration::from_millis(300),
        obs: obs.clone(),
        ..RingOptions::default()
    };
    let mut node = RingNode::new(me, COORD_RING, ring_registry.clone(), opts)?;
    // Recovered state covers everything below the cursor: the learner
    // resumes there instead of re-delivering it.
    node.set_next_delivery(durable.applied);

    let ring_listener = TcpListener::bind(config.ring_addrs[me.raw() as usize])?;
    let client_listener = TcpListener::bind(config.client_addrs[me.raw() as usize])?;
    let client_addr = client_listener.local_addr()?;

    let (tx, rx) = unbounded::<SrvEvent>();
    let ring_addrs = members
        .iter()
        .copied()
        .zip(config.ring_addrs.iter().copied())
        .collect();
    let session_check = config.session_check;
    let replica = Replica {
        me,
        node,
        out: Output::new(),
        timers: TimerHeap::new(),
        clock: WallClock::start(),
        transport: PeerTransport::new(me, ring_addrs, &obs),
        ring_registry,
        coord_applied: obs.counter("coord_applied"),
        session_count: obs.gauge("session_count"),
        obs,
        conns: HashMap::new(),
        pending: HashMap::new(),
        // Command sequence numbers become ValueIds in the replicated log
        // and the ring dedups by id, so they must never repeat across
        // replica incarnations (a restarted replica re-proposing seq 1
        // would see its command silently swallowed). Wall-clock
        // microseconds since the epoch are monotone across restarts for
        // any realistic downtime.
        next_cmd: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(1),
        // Wall-clock session liveness, driven by *applied* keep-alives.
        // Sessions recovered from the checkpoint/WAL/peer snapshot get a
        // fresh grace stamp: their owners may well be alive and
        // keep-alive'ing — expiring them at boot because *we* never saw
        // a keep-alive would churn every ephemeral in the system.
        session_seen: durable
            .state
            .sessions()
            .map(|(id, _)| (id, Instant::now()))
            .collect(),
        expiring: HashSet::new(),
        durable,
        peer_clients,
        gossip: HashMap::new(),
        session_check,
        next_sweep: Instant::now() + session_check,
        catchup_needed,
        gap_since: None,
        catchup_inflight: false,
        self_tx: tx.clone(),
    };
    let join = std::thread::Builder::new()
        .name(format!("amcoord-srv-{}", me.raw()))
        .spawn(move || replica.run(&rx, &watch))
        .map_err(Error::Io)?;

    let ring_tx = tx.clone();
    let ring_listener = spawn_listener(
        ring_listener,
        format!("amcoord-peers-{}", me.raw()),
        move |stream| {
            let tx = ring_tx.clone();
            spawn_peer_reader(stream, move |from, msg| match msg {
                Msg::Ring(COORD_RING, msg) => tx.send(SrvEvent::Ring(from, msg)).is_ok(),
                _ => true,
            });
        },
    );
    let conn_tx = tx.clone();
    let mut next_conn = 0u64;
    let client_listener = spawn_listener(
        client_listener,
        format!("amcoord-clients-{}", me.raw()),
        move |stream| {
            next_conn += 1;
            spawn_conn_reader(next_conn, stream, conn_tx.clone());
        },
    );

    Ok(CoordServerHandle {
        tx,
        join: Some(join),
        listeners: vec![ring_listener, client_listener],
        client_addr,
    })
}

/// Reads [`CoordMsg`] frames off one accepted client connection.
fn spawn_conn_reader(conn: u64, mut stream: TcpStream, tx: Sender<SrvEvent>) {
    std::thread::spawn(move || {
        let _ = stream.set_nodelay(true);
        let writer = match stream.try_clone() {
            Ok(w) => ConnWriter::new(w),
            Err(_) => return,
        };
        if tx.send(SrvEvent::Conn(conn, writer)).is_err() {
            return;
        }
        let mut buf = FrameBuf::new();
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    buf.extend(&chunk[..n]);
                    loop {
                        match buf.try_next::<CoordMsg>() {
                            Ok(Some(msg)) => {
                                if tx.send(SrvEvent::Msg(conn, msg)).is_err() {
                                    return;
                                }
                            }
                            Ok(None) => break,
                            Err(_) => return, // corrupt stream: drop it
                        }
                    }
                }
            }
        }
        let _ = tx.send(SrvEvent::Gone(conn));
    });
}

/// Starts the gossip link to the peer replica serving clients at `addr`:
/// a bounded queue of encoded [`CoordOp::InstallConfig`] frames and a
/// thread that connects and writes them. The loop drives the ring, so it
/// never connects or writes to a peer itself — an unreachable or stalled
/// peer costs this thread, not heartbeats. Gossip is fire-and-forget: a
/// frame the peer cannot take (full queue, failed reconnect) is dropped,
/// and the next reconfiguration gossips again.
fn gossip_link(me: NodeId, addr: SocketAddr) -> Sender<Bytes> {
    let (tx, rx) = bounded::<Bytes>(64);
    let _ = std::thread::Builder::new()
        .name(format!("amcoord-gossip-{}", me.raw()))
        .spawn(move || {
            let mut conn: Option<TcpStream> = None;
            while let Ok(frame) = rx.recv() {
                // A connection the peer closed since the last frame fails
                // its first write; retry once on a fresh one.
                for _attempt in 0..2 {
                    if conn.is_none() {
                        match TcpStream::connect_timeout(&addr, Duration::from_millis(250)) {
                            Ok(s) => {
                                let _ = s.set_nodelay(true);
                                conn = Some(s);
                            }
                            Err(_) => break,
                        }
                    }
                    if conn.as_mut().is_some_and(|s| s.write_all(&frame).is_ok()) {
                        break;
                    }
                    conn = None;
                }
            }
        });
    tx
}

/// A replicated command this replica proposed for a waiting client.
struct Pending {
    conn: u64,
    req: u64,
    at: Instant,
}

/// Everything the `amcoord-srv-<id>` loop owns: the ring member and its
/// timers and transport, the durable state machine, and the client
/// front end's connections and waiting requests.
struct Replica {
    me: NodeId,
    node: RingNode,
    /// The ring member's effects of the current step.
    out: Output,
    timers: TimerHeap<RingTimer>,
    clock: WallClock,
    transport: PeerTransport,
    /// The ensemble's own ring (see the module docs).
    ring_registry: Registry,
    durable: Durable,
    obs: Obs,
    coord_applied: Counter,
    session_count: Gauge,
    conns: HashMap<u64, ConnState>,
    pending: HashMap<u64, Pending>,
    next_cmd: u64,
    session_seen: HashMap<SessionId, Instant>,
    /// Sessions with an expiry proposal in flight (not re-proposed every
    /// sweep).
    expiring: HashSet<SessionId>,
    /// The other replicas' client addresses (catch-up and gossip).
    peer_clients: Vec<SocketAddr>,
    gossip: HashMap<SocketAddr, Sender<Bytes>>,
    session_check: Duration,
    next_sweep: Instant,
    /// Boot catch-up found no peer at least as current as us yet.
    catchup_needed: bool,
    /// When the learner was first seen blocked on a delivery gap (or
    /// behind since boot).
    gap_since: Option<Instant>,
    /// A watchdog peer fetch is out.
    catchup_inflight: bool,
    self_tx: Sender<SrvEvent>,
}

impl Replica {
    /// Runs the replica until shutdown. Each step waits for the first
    /// event or the next ring timer or sweep, handles whatever else is
    /// queued, fires due timers, sweeps if due, then flushes the step's
    /// effects and gossips the ring changes it made.
    fn run(mut self, rx: &Receiver<SrvEvent>, watch: &Receiver<CoordEvent>) {
        self.node.start(self.clock.now(), &mut self.out);
        loop {
            self.flush();
            for event in watch.try_iter() {
                if let CoordEvent::RingChanged { cfg } = event {
                    if cfg.ring == COORD_RING {
                        self.gossip(&cfg);
                    }
                }
            }
            let sleep = self
                .timers
                .sleep_for(self.session_check)
                .min(self.next_sweep.saturating_duration_since(Instant::now()));
            let first = match rx.recv_timeout(sleep) {
                Ok(event) => Some(event),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => return,
            };
            for event in first.into_iter().chain(rx.try_iter().take(255)) {
                if !self.handle(event) {
                    // Drop what queued behind the shutdown: a client
                    // writer parked in the queue would keep its socket
                    // (and the client's reader) alive.
                    rx.try_iter().for_each(drop);
                    return;
                }
            }
            while let Some(timer) = self.timers.pop_due(Instant::now()) {
                self.node.on_timer(timer, self.clock.now(), &mut self.out);
            }
            if Instant::now() >= self.next_sweep {
                self.sweep();
            }
        }
    }

    /// Feeds one event into the replica; false on shutdown.
    fn handle(&mut self, event: SrvEvent) -> bool {
        match event {
            SrvEvent::Shutdown => return false,
            SrvEvent::Conn(conn, writer) => {
                self.conns.insert(
                    conn,
                    ConnState {
                        writer,
                        watch_all: false,
                    },
                );
            }
            SrvEvent::Gone(conn) => self.drop_conn(conn),
            SrvEvent::Msg(conn, msg) => self.on_client(conn, msg),
            SrvEvent::Ring(from, msg) => {
                self.node.on_msg(from, msg, self.clock.now(), &mut self.out)
            }
            SrvEvent::CatchUp(snap) => {
                self.catchup_inflight = false;
                if let Some(snap) = snap {
                    self.on_catch_up(snap);
                }
            }
        }
        true
    }

    fn drop_conn(&mut self, conn: u64) {
        self.conns.remove(&conn);
        self.pending.retain(|_, p| p.conn != conn);
    }

    fn reply(&self, conn: u64, reply: CoordReply) {
        if let Some(c) = self.conns.get(&conn) {
            let _ = c.writer.send(reply);
        }
    }

    fn on_client(&mut self, conn: u64, CoordMsg { req, op }: CoordMsg) {
        match op.kind() {
            OpKind::Local => {
                if let CoordOp::InstallConfig { cfg } = &op {
                    let _ = self.ring_registry.install_config(cfg.clone());
                }
                if let Some(c) = self.conns.get_mut(&conn) {
                    if matches!(op, CoordOp::WatchAll) {
                        c.watch_all = true;
                    }
                    let _ = c.writer.send(CoordReply::Ok {
                        req,
                        body: CoordOk::Unit,
                    });
                }
            }
            // The catch-up RPC: served from applied state with *this*
            // replica's log position and its view of the ensemble's own
            // ring (the state machine itself has neither).
            OpKind::Read if matches!(op, CoordOp::SnapshotRequest) => {
                let body = CoordOk::Snapshot {
                    applied: self.durable.applied.raw(),
                    ensemble_ring: self
                        .ring_registry
                        .ring(COORD_RING)
                        .ok()
                        .map(|c| c.to_wire()),
                    state: self.durable.state.snapshot(),
                };
                self.reply(conn, CoordReply::Ok { req, body });
            }
            // Metrics live in the process, not the replicated state
            // machine: answer from the local registry.
            OpKind::Read if matches!(op, CoordOp::Stats) => {
                let body = CoordOk::Stats(self.obs.snapshot());
                self.reply(conn, CoordReply::Ok { req, body });
            }
            OpKind::Read => {
                // Reads never mutate state or emit events.
                let (result, _) = self.durable.state.apply(&op);
                self.reply(conn, reply_of(req, result));
            }
            OpKind::Replicate => {
                let seq = self.propose(op);
                let at = Instant::now();
                self.pending.insert(seq, Pending { conn, req, at });
            }
        }
    }

    /// Proposes `op` to the ring under a fresh command sequence number.
    fn propose(&mut self, op: CoordOp) -> u64 {
        self.next_cmd += 1;
        let seq = self.next_cmd;
        let cmd = CoordCmd {
            origin: self.me,
            seq,
            op,
        };
        let value = Value::app(self.me, seq, cmd.to_bytes());
        self.node.propose(value, self.clock.now(), &mut self.out);
        seq
    }

    /// Drains the step's ring effects: sends leave, timers arm, and every
    /// decided value is group-committed once before any is applied or
    /// answered.
    fn flush(&mut self) {
        for (to, msg) in self.out.sends.drain(..) {
            self.transport.send(to, Msg::Ring(COORD_RING, msg));
        }
        for (after, timer) in self.out.timers.drain(..) {
            self.timers.push_after(after, timer);
        }
        if self.out.decided.is_empty() {
            return;
        }
        let decided = std::mem::take(&mut self.out.decided);
        self.durable.commit(&decided);
        for (inst, value) in &decided {
            self.deliver(*inst, value);
        }
    }

    /// Applies one decided value, answers its proposer's client and fans
    /// its watch events out.
    fn deliver(&mut self, inst: InstanceId, value: &Value) {
        let durable = &mut self.durable;
        let applied = apply_log_entry(&mut durable.state, &mut durable.applied, inst, value);
        // The learner delivers from the state's own cursor (set at boot
        // and by every snapshot install), in order.
        debug_assert!(
            applied.is_ok(),
            "decision {inst} off the applied cursor {}",
            durable.applied
        );
        let Ok(cmd) = applied else { return };
        self.coord_applied.inc();
        self.durable.note_applied();
        let Some((cmd, result, events)) = cmd else {
            return; // no-op / skip filler
        };
        track_sessions(
            &cmd.op,
            &result,
            &self.durable.state,
            &mut self.session_seen,
            &mut self.expiring,
        );
        if cmd.origin == self.me {
            if let Some(p) = self.pending.remove(&cmd.seq) {
                self.reply(p.conn, reply_of(p.req, result));
            }
        }
        if !events.is_empty() {
            // A watcher whose queue overflows is disconnected on the
            // spot: its cache would otherwise miss this event and serve
            // stale configuration forever. Reconnecting re-arms the watch
            // and clears the client's cache.
            let mut stalled = Vec::new();
            for (id, c) in self.conns.iter().filter(|(_, c)| c.watch_all) {
                for e in &events {
                    if !c.writer.send(CoordReply::Event(e.clone())) {
                        stalled.push(*id);
                        break;
                    }
                }
            }
            for id in stalled {
                self.drop_conn(id);
            }
        }
    }

    /// Installs a watchdog fetch's snapshot if it is ahead, and heals a
    /// lost ring membership the same way a restart does.
    fn on_catch_up(&mut self, snap: PeerSnapshot) {
        // Apply what this step decided first, so the learner sits at the
        // applied cursor and the install only ever moves it forward.
        self.flush();
        let before = self.durable.applied;
        if matches!(
            self.durable.install_snapshot(snap.applied, &snap.state),
            Ok(true)
        ) {
            // At least as current as the answering peer: a pending boot
            // catch-up is satisfied. (Ok(false) — an ahead peer whose
            // snapshot did not decode — keeps the sweep retrying.)
            self.catchup_needed = false;
        }
        if self.durable.applied > before {
            self.node.set_next_delivery(self.durable.applied);
            for (id, _) in self.durable.state.sessions() {
                self.session_seen.entry(id).or_insert_with(Instant::now);
            }
            // The install jumped state without per-op events, so
            // connected watchers' caches are silently behind. Disconnect
            // them: reconnecting re-arms the watch and clears the client
            // cache (the same contract the overflow path relies on).
            let watching: Vec<u64> = self
                .conns
                .iter()
                .filter(|(_, c)| c.watch_all)
                .map(|(id, _)| *id)
                .collect();
            for id in watching {
                self.drop_conn(id);
            }
            // Proposals whose decisions the jump skipped will never be
            // answered. Fail the waiting clients now instead of letting
            // them ride out the 10 s stale sweep — every registry
            // mutation is idempotent or epoch/version-guarded, so a retry
            // against the caught-up state is safe.
            for (_, p) in std::mem::take(&mut self.pending) {
                self.reply(
                    p.conn,
                    CoordReply::Err {
                        req: p.req,
                        reason: "state jumped by snapshot catch-up; retry".into(),
                    },
                );
            }
            // In-flight expiry markers are stale the same way: a session
            // whose CAS loss only the snapshot reflects would otherwise
            // stay marked forever and never be re-proposed for expiry (an
            // immortal session). The sweep re-proposes under the CAS
            // guard, so clearing is always safe.
            self.expiring.clear();
        }
        // A long partition can also have cost us our ring membership.
        rejoin_ensemble_ring(&self.ring_registry, self.me, snap.ensemble_ring);
    }

    /// Queues an [`CoordOp::InstallConfig`] of `cfg` on every peer's
    /// gossip link.
    fn gossip(&mut self, cfg: &RingConfigWire) {
        let frame = encode_frame(&CoordMsg {
            req: 0,
            op: CoordOp::InstallConfig { cfg: cfg.clone() },
        });
        for addr in &self.peer_clients {
            let me = self.me;
            let link = self
                .gossip
                .entry(*addr)
                .or_insert_with(|| gossip_link(me, *addr));
            let _ = link.try_send(frame.clone());
        }
    }

    /// The periodic sweep: gap watchdog, session expiry, stale requests.
    fn sweep(&mut self) {
        let now = Instant::now();
        self.next_sweep = now + self.session_check;
        self.session_count
            .set(self.durable.state.sessions().count() as i64);
        // Gap watchdog: a learner blocked on decisions it fully missed
        // (they circulated while this replica was down or partitioned)
        // will never heal from the ring alone — old decisions are not
        // re-sent. A persistent gap is resolved the same way boot
        // catch-up is: install a live peer's snapshot and jump the cursor
        // past the hole. The fetch runs on its own thread (connects +
        // reply wait can block for seconds; stalling this loop would stop
        // the ring member's heartbeats exactly while it tries to heal)
        // and comes back as [`SrvEvent::CatchUp`]. An unanswered *boot*
        // catch-up also retries here: on an idle ensemble no new decision
        // would ever surface a buffered gap, yet the replica may still be
        // behind.
        if self.node.buffered_gap().is_some() || self.catchup_needed {
            let since = *self.gap_since.get_or_insert(now);
            if !self.catchup_inflight
                && now.duration_since(since) >= self.session_check.max(Duration::from_millis(500))
            {
                self.gap_since = Some(now);
                let peers = self.peer_clients.clone();
                let tx = self.self_tx.clone();
                // Armed only if the thread actually started: a failed
                // spawn sends no CatchUp, and a stuck `catchup_inflight`
                // would disarm healing forever.
                self.catchup_inflight = std::thread::Builder::new()
                    .name(format!("amcoord-catchup-{}", self.me.raw()))
                    .spawn(move || {
                        let snap = fetch_peer_snapshot(&peers, Duration::from_secs(2));
                        let _ = tx.send(SrvEvent::CatchUp(snap));
                    })
                    .is_ok();
            }
        } else {
            self.gap_since = None;
        }
        let overdue: Vec<(SessionId, u64)> =
            self.durable
                .state
                .sessions()
                .filter(|(id, s)| {
                    !self.expiring.contains(id)
                        && self.session_seen.get(id).is_none_or(|at| {
                            now.duration_since(*at) > Duration::from_millis(s.ttl_ms)
                        })
                })
                .map(|(id, s)| (id, s.refresh_seq))
                .collect();
        for (session, seen_refresh) in overdue {
            self.propose(CoordOp::ExpireSession {
                session,
                seen_refresh,
            });
            self.expiring.insert(session);
        }
        // Stale pendings (e.g. the ring lost quorum): fail the client so
        // it can retry another replica rather than hang.
        let stale: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.at.elapsed() > Duration::from_secs(10))
            .map(|(seq, _)| *seq)
            .collect();
        for seq in stale {
            if let Some(p) = self.pending.remove(&seq) {
                self.reply(
                    p.conn,
                    CoordReply::Err {
                        req: p.req,
                        reason: "command not decided in time".into(),
                    },
                );
            }
        }
    }
}

fn reply_of(req: u64, result: coord::state::ApplyResult) -> CoordReply {
    match result {
        Ok(body) => CoordReply::Ok { req, body },
        Err(reason) => CoordReply::Err { req, reason },
    }
}

/// Keeps the wall-clock liveness table in step with the applied command
/// stream.
fn track_sessions(
    op: &CoordOp,
    result: &coord::state::ApplyResult,
    state: &CoordState,
    session_seen: &mut HashMap<SessionId, Instant>,
    expiring: &mut HashSet<SessionId>,
) {
    match (op, result) {
        (CoordOp::OpenSession { .. }, Ok(common::wire::coord::CoordOk::Session(id))) => {
            session_seen.insert(*id, Instant::now());
        }
        (CoordOp::KeepAlive { session }, Ok(_)) => {
            session_seen.insert(*session, Instant::now());
        }
        (CoordOp::CloseSession { session }, _) => {
            expiring.remove(session);
            session_seen.remove(session);
        }
        (CoordOp::ExpireSession { session, .. }, _) => {
            expiring.remove(session);
            if state.session(*session).is_some() {
                // A racing keep-alive won the CAS: the session is alive.
                // Count the survival as a sighting — treating it as
                // "never seen" would re-propose expiry immediately and
                // could race the next keep-alive to a false positive.
                session_seen.insert(*session, Instant::now());
            } else {
                session_seen.remove(session);
            }
        }
        _ => {}
    }
}

/// An in-process amcoordd ensemble — the coordination-service
/// counterpart of [`Deployment`](crate::Deployment): launches `n`
/// replicas over localhost TCP and drives the same kill /
/// restart-in-place orchestration for coord nodes that `Deployment`
/// drives for data nodes. A restart reuses the replica's original
/// `wal_dir`, so it comes back through the checkpoint + WAL + peer
/// catch-up recovery path and rejoins its original ensemble.
pub struct CoordEnsemble {
    configs: Vec<CoordServerConfig>,
    replicas: Vec<Option<CoordServerHandle>>,
}

impl CoordEnsemble {
    /// Launches one replica per entry of `configs` (all describing the
    /// same ensemble, differing only in `id`).
    ///
    /// # Errors
    ///
    /// Fails if any replica fails to start; already-started replicas are
    /// shut down.
    pub fn launch(configs: Vec<CoordServerConfig>) -> Result<Self> {
        let mut replicas: Vec<Option<CoordServerHandle>> = Vec::new();
        for config in &configs {
            match start_coord_server(config.clone()) {
                Ok(h) => replicas.push(Some(h)),
                Err(e) => {
                    for h in replicas.into_iter().flatten() {
                        h.shutdown();
                    }
                    return Err(e);
                }
            }
        }
        Ok(CoordEnsemble { configs, replicas })
    }

    /// A localhost ensemble of `n` replicas on sequential ports from
    /// `base_port`, persisting replica state under `wal_dir` when given.
    ///
    /// # Errors
    ///
    /// Fails if a replica cannot start (port in use, WAL locked).
    pub fn localhost(n: u16, base_port: u16, wal_dir: Option<&std::path::Path>) -> Result<Self> {
        let configs = (0..n)
            .map(|id| {
                let mut c = CoordServerConfig::localhost(u32::from(id), n, base_port);
                c.wal_dir = wal_dir.map(std::path::Path::to_path_buf);
                c
            })
            .collect();
        Self::launch(configs)
    }

    /// The replica client addresses, in id order (dead replicas included
    /// — clients rotate past them).
    pub fn client_addrs(&self) -> Vec<SocketAddr> {
        self.configs
            .iter()
            .filter_map(|c| c.my_client_addr().ok())
            .collect()
    }

    fn slot(&self, id: u32) -> Result<usize> {
        if (id as usize) < self.replicas.len() {
            Ok(id as usize)
        } else {
            Err(Error::Config(format!("no amcoordd replica {id}")))
        }
    }

    /// Kills replica `id`: its threads stop and its sockets close. The
    /// replica's WAL lock is verified released before returning, so a
    /// restart-in-place never races the dying replica for the log file.
    ///
    /// # Errors
    ///
    /// Fails if the replica is unknown, already dead, or its WAL lock
    /// outlives the shutdown.
    pub fn kill(&mut self, id: u32) -> Result<()> {
        let i = self.slot(id)?;
        let handle = self.replicas[i]
            .take()
            .ok_or_else(|| Error::Config(format!("amcoordd replica {id} is not running")))?;
        handle.shutdown();
        if let Some(dir) = &self.configs[i].wal_dir {
            // Both the directory-level lock and the active segment's
            // per-file lock must be gone before a restart-in-place may
            // race the dying replica for the log.
            let seg_dir = wal_seg_dir(dir, NodeId::new(id));
            let locks_left = || -> Vec<PathBuf> {
                let mut left: Vec<PathBuf> = std::fs::read_dir(&seg_dir)
                    .into_iter()
                    .flatten()
                    .flatten()
                    .map(|e| e.path())
                    .filter(|p| p.extension().is_some_and(|e| e == "lock"))
                    .collect();
                left.sort();
                left
            };
            let deadline = Instant::now() + Duration::from_secs(5);
            while !locks_left().is_empty() {
                if Instant::now() >= deadline {
                    return Err(Error::Storage(format!(
                        "amcoordd replica {id} wal locks {:?} survived shutdown",
                        locks_left()
                    )));
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        Ok(())
    }

    /// Restarts a killed replica in place: same id, same addresses, same
    /// `wal_dir` — the durable-recovery boot path (checkpoint + WAL
    /// replay + peer catch-up) brings it back into its original
    /// ensemble serving everything committed while it was down.
    ///
    /// # Errors
    ///
    /// Fails if the replica is unknown, still running, or fails to boot.
    pub fn restart(&mut self, id: u32) -> Result<()> {
        let i = self.slot(id)?;
        if self.replicas[i].is_some() {
            return Err(Error::Config(format!(
                "amcoordd replica {id} is still running"
            )));
        }
        self.replicas[i] = Some(start_coord_server(self.configs[i].clone())?);
        Ok(())
    }

    /// True when replica `id` is currently running.
    pub fn is_running(&self, id: u32) -> bool {
        self.slot(id)
            .map(|i| self.replicas[i].is_some())
            .unwrap_or(false)
    }

    /// Stops every running replica.
    pub fn shutdown(self) {
        for h in self.replicas.into_iter().flatten() {
            h.shutdown();
        }
    }
}
