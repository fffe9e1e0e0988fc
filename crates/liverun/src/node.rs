//! The live node: one [`MultiRingHost`] driven by an OS-thread event loop
//! over real TCP.
//!
//! Each node runs three kinds of threads:
//!
//! * the **node loop** — owns the host state machine; waits on its event
//!   queue with a deadline derived from the timer heap and the batcher,
//!   feeds events into the host through [`Ctx::external`], then routes
//!   the emitted sends to peer sockets / client connections and arms the
//!   emitted timers;
//! * **peer reader** threads — one per accepted peer connection,
//!   reassembling [`PeerFrame`]s into `Event::Peer`;
//! * **client reader** threads — one per client connection, speaking the
//!   [`common::wire::client`] protocol and feeding `Event::Client*`.
//!
//! Replies route back by node id: replicas answer `Envelope::reply_to`,
//! which for live clients is a synthetic node id above
//! [`CLIENT_NODE_BASE`]; the loop maps it to the client's connection and
//! writes a [`ClientReply::ResponseV2`] frame.

use std::collections::HashMap;
use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use bytes::Bytes;
use common::error::{Error, Result};
use common::ids::{ClientId, NodeId, RequestId, RingId};
use common::msg::{ClientMsg as SimClientMsg, Msg};
use common::obs::{Counter, Hist, Obs, WireCounters};
use common::transport::{encode_frame, FrameBuf, PeerFrame, TimerHeap, WallClock};
use common::value::Envelope;
use common::wire::client::{ClientMsg, ClientReply};
use common::wire::Wire;
use coord::Registry;
use multiring::{HostOptions, MultiRingHost, ServiceApp};
use rand::{rngs::StdRng, SeedableRng};
use simnet::{Ctx, Process, Timer};

use crate::batch::{BatchOptions, Batcher};

/// Client connections are addressed as synthetic nodes at and above this
/// id; deployment nodes must stay below it.
pub const CLIENT_NODE_BASE: u32 = 1 << 20;

/// The synthetic node id replies to `client` are routed by.
pub fn client_node_id(client: ClientId) -> NodeId {
    NodeId::new(CLIENT_NODE_BASE + client.raw())
}

/// Inverse of [`client_node_id`].
pub fn client_of_node(node: NodeId) -> Option<ClientId> {
    node.raw().checked_sub(CLIENT_NODE_BASE).map(ClientId::new)
}

/// Events feeding one node loop.
pub(crate) enum Event {
    /// A protocol message from a peer (or from this node to itself).
    Peer(NodeId, Msg),
    /// The listener accepted client connection `.0`; the loop keeps the
    /// socket so it can close it when the node stops.
    ClientOpen(u64, TcpStream),
    /// A client said hello on this node.
    ClientHello(ClientId, ClientConn),
    /// A client submitted a (sessioned) command.
    ClientRequestV2 {
        /// The submitting client.
        client: ClientId,
        /// The exactly-once session (or a `SESSION_CTL` control frame).
        session: u64,
        /// Per-session sequence number.
        seq: RequestId,
        /// The client's cumulative reply ack (cache pruning).
        ack: u64,
        /// Target multicast group.
        group: RingId,
        /// Service command bytes.
        cmd: Bytes,
    },
    /// Client connection `conn` closed; `client` is who said hello on it.
    ClientGone {
        /// The closed connection.
        conn: u64,
        /// The client that said hello on it, if any.
        client: Option<ClientId>,
    },
    /// Stop the loop.
    Shutdown,
}

/// One client's connection at the node loop: the accepted socket's id
/// (a close of an older connection must not evict a newer one) and its
/// reply writer.
pub(crate) struct ClientConn {
    conn: u64,
    writer: ClientWriter,
}

/// Write half of one client connection.
///
/// Like peer sends, client replies must never block the node loop: a
/// client that stops reading fills its TCP window and a blocking write
/// would stall the loop (and with it this node's heartbeats). Replies
/// therefore go through a bounded queue to a dedicated writer thread;
/// when the queue fills, replies are dropped — the same semantics as the
/// paper's UDP responses, which clients already retry around (retries
/// are deduplicated, so shedding stays safe).
#[derive(Clone)]
pub(crate) struct ClientWriter {
    tx: Sender<ClientReply>,
    depth: Arc<AtomicUsize>,
}

impl ClientWriter {
    fn new(stream: TcpStream, vectored: Counter) -> Self {
        let (tx, rx) = crossbeam::channel::bounded::<ClientReply>(4096);
        let depth = Arc::new(AtomicUsize::new(0));
        let loop_depth = Arc::clone(&depth);
        std::thread::spawn(move || client_writer_loop(stream, rx, loop_depth, vectored));
        ClientWriter { tx, depth }
    }

    fn send(&self, reply: &ClientReply) {
        if self.tx.try_send(reply.clone()).is_ok() {
            self.depth.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Replies queued behind the writer thread — the per-connection
    /// share of the `reply_queue_depth` gauge.
    fn queued(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }
}

/// Owns the write half of one client socket; exits when every handle to
/// the queue is gone or the socket breaks.
///
/// Replies queued behind the first one coalesce into a single
/// `write_vectored` syscall — under load (a delivered batch answering
/// many requests at once) the per-frame write cost amortizes across the
/// burst.
fn client_writer_loop(
    mut stream: TcpStream,
    rx: Receiver<ClientReply>,
    depth: Arc<AtomicUsize>,
    vectored: Counter,
) {
    let mut frames: Vec<Bytes> = Vec::new();
    while let Ok(reply) = rx.recv() {
        depth.fetch_sub(1, Ordering::Relaxed);
        frames.clear();
        frames.push(encode_frame(&reply));
        while frames.len() < 64 {
            match rx.try_recv() {
                Ok(reply) => {
                    depth.fetch_sub(1, Ordering::Relaxed);
                    frames.push(encode_frame(&reply));
                }
                Err(_) => break,
            }
        }
        if frames.len() > 1 {
            vectored.add(frames.len() as u64);
        }
        if write_all_vectored(&mut stream, &frames).is_err() {
            return;
        }
    }
}

/// Writes every frame fully with `write_vectored`, rebuilding the slice
/// list from the unwritten remainder after short writes (std's
/// `write_all_vectored` is unstable).
fn write_all_vectored(stream: &mut TcpStream, frames: &[Bytes]) -> std::io::Result<()> {
    let mut idx = 0;
    let mut off = 0;
    while idx < frames.len() {
        let slices: Vec<IoSlice> = std::iter::once(IoSlice::new(&frames[idx][off..]))
            .chain(frames[idx + 1..].iter().map(|f| IoSlice::new(f)))
            .collect();
        let mut n = match stream.write_vectored(&slices) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "failed to write frames",
                ))
            }
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        while idx < frames.len() && n >= frames[idx].len() - off {
            n -= frames[idx].len() - off;
            idx += 1;
            off = 0;
        }
        off += n;
    }
    Ok(())
}

/// Outgoing peer connections.
///
/// Sends must never block the node loop: a stalled loop stops this
/// node's own heartbeats, which its peers read as a failure (§5.1) — a
/// dead neighbour would take us down with it. Each peer therefore gets a
/// dedicated writer thread owning the socket, fed through a bounded
/// queue; connect retries and back-off happen on the writer thread, and
/// when the queue is full (peer down, backlog grown) messages are
/// dropped — the protocol's TTL'd circulation, retries and failure
/// detection absorb the loss.
pub(crate) struct PeerTransport {
    me: NodeId,
    addrs: HashMap<NodeId, SocketAddr>,
    links: HashMap<NodeId, Sender<Msg>>,
    /// Per-node wire accounting for everything this node sends.
    wire: WireCounters,
    /// The same accounting broken down by ring (`ring{r}_*` counters) —
    /// the observable the genuineness guard checks: a ring this node
    /// never ordered anything on must show zero here.
    wire_by_ring: HashMap<RingId, WireCounters>,
    /// Metrics registry the per-ring counter families register in.
    obs: Obs,
    /// Frames that left in multi-frame `write_vectored` bursts.
    vectored: Counter,
}

impl PeerTransport {
    /// A transport from `me` to the peers at `addrs`, accounting its
    /// traffic in `obs`. Links are dialled lazily on first send.
    pub(crate) fn new(me: NodeId, addrs: HashMap<NodeId, SocketAddr>, obs: &Obs) -> Self {
        PeerTransport {
            me,
            addrs,
            links: HashMap::new(),
            wire: WireCounters::new(obs),
            wire_by_ring: HashMap::new(),
            obs: obs.clone(),
            vectored: obs.counter("writer_vectored_frames"),
        }
    }

    pub(crate) fn send(&mut self, to: NodeId, msg: Msg) {
        let Some(addr) = self.addrs.get(&to).copied() else {
            return;
        };
        if let Msg::Ring(ring, rm) = &msg {
            self.wire.note(rm);
            self.wire_by_ring
                .entry(*ring)
                .or_insert_with(|| {
                    WireCounters::with_prefix(&self.obs, &format!("ring{}_", ring.raw()))
                })
                .note(rm);
        }
        let me = self.me;
        let vectored = self.vectored.clone();
        let link = self.links.entry(to).or_insert_with(|| {
            let (tx, rx) = crossbeam::channel::bounded::<Msg>(4096);
            std::thread::Builder::new()
                .name(format!("amcast-link-{}-{}", me.raw(), to.raw()))
                .spawn(move || peer_writer_loop(me, addr, rx, vectored))
                .expect("spawn peer writer");
            tx
        });
        let _ = link.try_send(msg);
    }
}

/// Owns the outgoing socket to one peer: connects (with back-off), writes
/// queued frames, reconnects once on a failed write. Exits when the node
/// loop drops its sender.
fn peer_writer_loop(me: NodeId, addr: SocketAddr, rx: Receiver<Msg>, vectored: Counter) {
    let mut conn: Option<TcpStream> = None;
    let mut ever_connected = false;
    let mut frames: Vec<Bytes> = Vec::new();
    loop {
        let Ok(msg) = rx.recv() else { return };
        // Write coalescing: everything queued behind this message goes
        // out in the same `write_vectored` syscall — no added latency,
        // no copy into a staging buffer, and under load the per-frame
        // write cost amortizes across the burst. The cap bounds how much
        // a failed write can lose at once (a dropped burst is healed by
        // TTL'd circulation, retries and the value-pull path, but
        // smaller losses heal faster).
        frames.clear();
        let mut total = 0usize;
        let first = encode_frame(&PeerFrame { from: me, msg });
        total += first.len();
        frames.push(first);
        while total < 64 * 1024 {
            match rx.try_recv() {
                Ok(msg) => {
                    let frame = encode_frame(&PeerFrame { from: me, msg });
                    total += frame.len();
                    frames.push(frame);
                }
                Err(_) => break,
            }
        }
        if frames.len() > 1 {
            vectored.add(frames.len() as u64);
        }
        // (Re)connect if needed, then write; a failed write drops the
        // socket and retries once with a fresh connection.
        let mut attempts_left = 2;
        while attempts_left > 0 {
            if conn.is_none() {
                match TcpStream::connect_timeout(&addr, Duration::from_millis(250)) {
                    Ok(s) => {
                        let _ = s.set_nodelay(true);
                        conn = Some(s);
                        ever_connected = true;
                    }
                    Err(_) if !ever_connected => {
                        // The peer has not come up yet (deployment still
                        // launching): HOLD the message and keep trying —
                        // dropping first-hop Phase 2 traffic here would
                        // leave permanently undecided instances. The
                        // bounded queue sheds load if this goes on.
                        std::thread::sleep(Duration::from_millis(20));
                        continue;
                    }
                    Err(_) => {
                        // Peer was up and died: drop this message and
                        // back off; failure detection and gap healing
                        // take over (§5.1–5.2).
                        std::thread::sleep(Duration::from_millis(50));
                        break;
                    }
                }
            }
            if let Some(s) = conn.as_mut() {
                if write_all_vectored(s, &frames).is_ok() {
                    break;
                }
                conn = None;
                attempts_left -= 1;
            }
        }
    }
}

/// A listener whose accept loop can be stopped from outside.
pub(crate) struct ListenerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl ListenerHandle {
    pub(crate) fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

pub(crate) fn spawn_listener(
    listener: TcpListener,
    name: String,
    mut on_conn: impl FnMut(TcpStream) + Send + 'static,
) -> ListenerHandle {
    let addr = listener
        .local_addr()
        .expect("bound listener has an address");
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let join = std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            for stream in listener.incoming() {
                if stop2.load(Ordering::SeqCst) {
                    return;
                }
                let Ok(stream) = stream else { break };
                on_conn(stream);
            }
        })
        .expect("spawn listener thread");
    ListenerHandle {
        addr,
        stop,
        join: Some(join),
    }
}

/// Reads [`PeerFrame`]s off one accepted peer connection into `sink`,
/// until the socket closes or `sink` returns false (its loop is gone).
pub(crate) fn spawn_peer_reader(
    mut stream: TcpStream,
    mut sink: impl FnMut(NodeId, Msg) -> bool + Send + 'static,
) {
    std::thread::spawn(move || {
        let mut buf = FrameBuf::new();
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => return,
                Ok(n) => {
                    buf.extend(&chunk[..n]);
                    loop {
                        match buf.try_next::<PeerFrame>() {
                            Ok(Some(f)) => {
                                if !sink(f.from, f.msg) {
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
    });
}

/// Speaks the client protocol on accepted client connection `conn`.
/// `grant` is the node's *live* credit window: the node loop resizes it
/// with backpressure, and a client connecting mid-overload is admitted
/// at the clamped window, not the configured maximum.
fn spawn_client_reader(
    mut stream: TcpStream,
    conn: u64,
    me: NodeId,
    grant: Arc<AtomicU32>,
    obs: Obs,
    tx: Sender<Event>,
) {
    use common::wire::client::{ErrorCode, FEAT_ALL};
    std::thread::spawn(move || {
        let _ = stream.set_nodelay(true);
        let writer = match stream.try_clone() {
            Ok(w) => ClientWriter::new(w, obs.counter("writer_vectored_frames")),
            Err(_) => return,
        };
        let mut session: Option<ClientId> = None;
        let mut buf = FrameBuf::new();
        let mut chunk = [0u8; 64 * 1024];
        'read: loop {
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    buf.extend(&chunk[..n]);
                    loop {
                        match buf.try_next::<ClientMsg>() {
                            Ok(Some(ClientMsg::HelloV2 { client, features })) => {
                                session = Some(client);
                                let hello = ClientConn {
                                    conn,
                                    writer: writer.clone(),
                                };
                                if tx.send(Event::ClientHello(client, hello)).is_err() {
                                    break 'read;
                                }
                                let window = grant.load(Ordering::Relaxed).max(1);
                                writer.send(&ClientReply::WelcomeV2 {
                                    node: me,
                                    features: features & FEAT_ALL,
                                    window,
                                });
                                // Grants are decoupled from the hello: the
                                // server may resize the window any time.
                                // Exercise that path from day one so
                                // clients must handle it.
                                writer.send(&ClientReply::CreditGrant { window });
                            }
                            Ok(Some(ClientMsg::RequestV2 {
                                session: sid,
                                seq,
                                ack,
                                group,
                                cmd,
                            })) => {
                                let Some(client) = session else {
                                    writer.send(&ClientReply::ErrorV2 {
                                        seq,
                                        code: ErrorCode::HelloRequired,
                                        detail: "hello required before requests".into(),
                                    });
                                    continue;
                                };
                                if tx
                                    .send(Event::ClientRequestV2 {
                                        client,
                                        session: sid,
                                        seq,
                                        ack,
                                        group,
                                        cmd,
                                    })
                                    .is_err()
                                {
                                    break 'read;
                                }
                            }
                            Ok(Some(ClientMsg::StatsRequest { token })) => {
                                // Stats are a read-only plane: answer
                                // straight off the registry, no hello and
                                // no trip through the node loop needed.
                                writer.send(&ClientReply::Stats {
                                    token,
                                    snapshot: obs.snapshot(),
                                });
                            }
                            Ok(None) => break,
                            Err(_) => {
                                // Corrupt stream (or a reserved tag): drop
                                // the connection, writer thread included.
                                let _ = stream.shutdown(Shutdown::Both);
                                break 'read;
                            }
                        }
                    }
                }
            }
        }
        // The writer thread drains what is queued and exits once the
        // loop drops this connection's last writer handle.
        let _ = tx.send(Event::ClientGone {
            conn,
            client: session,
        });
    });
}

/// Everything needed to (re)build one node's host.
pub(crate) struct NodeSetup {
    /// This node's id.
    pub me: NodeId,
    /// Rings the node participates in.
    pub member_of: Vec<RingId>,
    /// The subset of `member_of` where the node is an acceptor (needed to
    /// rejoin with the right role after a restart).
    pub acceptor_of: Vec<RingId>,
    /// Rings the node's replica delivers from.
    pub subscribe_to: Vec<RingId>,
    /// The replica's partition.
    pub partition: Option<common::ids::PartitionId>,
    /// Shared configuration registry.
    pub registry: Registry,
    /// Host tuning.
    pub host_opts: HostOptions,
    /// Batching limits for client proposals.
    pub batch_opts: BatchOptions,
    /// Peer address book.
    pub peer_addrs: HashMap<NodeId, SocketAddr>,
    /// This node's peer listener address.
    pub peer_addr: SocketAddr,
    /// This node's client listener address.
    pub client_addr: SocketAddr,
    /// Shared deployment clock.
    pub clock: WallClock,
    /// Credit window granted to clients at the handshake.
    pub client_window: u32,
    /// Floor the credit controller never shrinks the window below.
    pub credit_min_window: u32,
    /// Proposal backlog (batcher + event queue, in envelopes) above which
    /// credit halves; `0` derives a default from the batch size.
    pub credit_backlog_high: u32,
    /// This node's metrics registry. The same registry rides
    /// `host_opts.ring.obs` into the host and rings, so every layer of
    /// this node reports into one place.
    pub obs: Obs,
}

/// How often the node re-computes per-session credit from its backlog
/// gauges. Fast enough that overload clamps within a client RTT or two;
/// slow enough that the gauge reads (a lock and two histogram snapshots)
/// cost nothing.
const CREDIT_TICK: Duration = Duration::from_millis(100);

/// Reply-writer backlog (frames across all connections) above which the
/// node is considered overloaded on the egress side.
const CREDIT_REPLY_HIGH: i64 = 1024;

/// WAL group-commit mean (over one credit tick) above which the node is
/// considered overloaded on the durability side.
const CREDIT_WAL_HIGH: Duration = Duration::from_millis(25);

/// Admission control: turns the node's own backlog gauges into the credit
/// window granted to client sessions (AIMD — halve under pressure,
/// climb back additively once every signal clears).
///
/// Inputs are the signals the stats plane already exports: the proposal
/// backlog (`batcher_depth` plus the unprocessed event queue), the reply
/// backlog (`reply_queue_depth`), and the `wal_commit_nanos` delta-mean
/// since the previous tick. Overload therefore degrades into *queueing at
/// the client* (shrunken pipelines) instead of dropped frames and
/// recovery storms.
struct CreditController {
    max: u32,
    min: u32,
    backlog_high: i64,
    window: u32,
    wal_count: u64,
    wal_sum: u64,
}

impl CreditController {
    fn new(max: u32, min: u32, backlog_high: i64) -> Self {
        let min = min.clamp(1, max);
        CreditController {
            max,
            min,
            backlog_high: backlog_high.max(1),
            window: max,
            wal_count: 0,
            wal_sum: 0,
        }
    }

    /// One controller step. `wal` is the cumulative commit histogram; the
    /// controller keeps the previous totals so it reacts to the *recent*
    /// mean, not the lifetime average.
    fn tick(&mut self, backlog: i64, reply_backlog: i64, wal: &common::hist::Histogram) -> u32 {
        let (count, sum) = (wal.count(), wal.sum_saturating());
        let delta_n = count.saturating_sub(self.wal_count);
        let wal_mean_nanos = sum
            .saturating_sub(self.wal_sum)
            .checked_div(delta_n)
            .unwrap_or(0);
        self.wal_count = count;
        self.wal_sum = sum;
        let wal_slow = wal_mean_nanos > CREDIT_WAL_HIGH.as_nanos() as u64;
        if backlog > self.backlog_high || reply_backlog > CREDIT_REPLY_HIGH || wal_slow {
            self.window = (self.window / 2).max(self.min);
        } else if backlog <= self.backlog_high / 4
            && reply_backlog <= CREDIT_REPLY_HIGH / 4
            && self.window < self.max
        {
            self.window = self
                .window
                .saturating_add((self.max / 8).max(1))
                .min(self.max);
        }
        self.window
    }
}

/// Handle to one running live node.
pub struct NodeHandle {
    id: NodeId,
    tx: Sender<Event>,
    join: Option<JoinHandle<()>>,
    peer_listener: Option<ListenerHandle>,
    client_listener: Option<ListenerHandle>,
}

impl NodeHandle {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Stops the node: closes listeners, stops the loop, joins threads.
    /// The loop shuts down every client socket on its way out, ending the
    /// connections' reader and writer threads; peer sockets die when
    /// their reader threads observe the closed socket.
    pub fn shutdown(mut self) {
        if let Some(l) = self.peer_listener.take() {
            l.stop();
        }
        if let Some(l) = self.client_listener.take() {
            l.stop();
        }
        let _ = self.tx.send(Event::Shutdown);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// Starts one node: binds listeners, spawns the loop.
///
/// With `restart: true` the host comes up through the crash/recovery path
/// (rejoin rings, install the freshest checkpoint, catch up from the
/// acceptors — paper §5.2) instead of the cold-start path.
pub(crate) fn spawn_node(
    setup: NodeSetup,
    app: Box<dyn ServiceApp>,
    restart: bool,
) -> Result<NodeHandle> {
    let (tx, rx) = unbounded::<Event>();

    let peer_listener = TcpListener::bind(setup.peer_addr)?;
    let tx_peers = tx.clone();
    let peer_listener = spawn_listener(
        peer_listener,
        format!("amcast-peers-{}", setup.me.raw()),
        move |stream| {
            let tx = tx_peers.clone();
            spawn_peer_reader(stream, move |from, msg| {
                tx.send(Event::Peer(from, msg)).is_ok()
            })
        },
    );

    let client_listener = TcpListener::bind(setup.client_addr)?;
    let tx_clients = tx.clone();
    let me = setup.me;
    // Live credit grant, shared between the node loop (which adjusts it)
    // and client readers (which hand it to connecting sessions): a client
    // arriving mid-overload is admitted at the clamped window, not the
    // configured maximum.
    let grant = Arc::new(AtomicU32::new(setup.client_window.max(1)));
    let reader_grant = Arc::clone(&grant);
    let obs = setup.obs.clone();
    let mut next_conn = 0u64;
    let client_listener = spawn_listener(
        client_listener,
        format!("amcast-clients-{}", setup.me.raw()),
        move |stream| {
            // Registered from the accept thread, so the open is queued
            // ahead of the shutdown event (listeners stop first).
            let Ok(socket) = stream.try_clone() else {
                return;
            };
            next_conn += 1;
            let _ = tx_clients.send(Event::ClientOpen(next_conn, socket));
            spawn_client_reader(
                stream,
                next_conn,
                me,
                Arc::clone(&reader_grant),
                obs.clone(),
                tx_clients.clone(),
            )
        },
    );

    let loop_tx = tx.clone();
    let join = std::thread::Builder::new()
        .name(format!("amcast-node-{}", setup.me.raw()))
        .spawn(move || {
            let mut sockets = HashMap::new();
            node_loop(setup, app, restart, rx, loop_tx, grant, &mut sockets);
            for socket in sockets.values() {
                let _ = socket.shutdown(Shutdown::Both);
            }
        })
        .map_err(Error::Io)?;

    Ok(NodeHandle {
        id: me,
        tx,
        join: Some(join),
        peer_listener: Some(peer_listener),
        client_listener: Some(client_listener),
    })
}

/// Runs one node until shutdown. `sockets` holds every open client
/// connection by id; the caller closes what is left in it once the loop
/// returns.
fn node_loop(
    setup: NodeSetup,
    app: Box<dyn ServiceApp>,
    restart: bool,
    rx: Receiver<Event>,
    self_tx: Sender<Event>,
    grant: Arc<AtomicU32>,
    sockets: &mut HashMap<u64, TcpStream>,
) {
    let me = setup.me;
    let clock = setup.clock;
    if restart {
        // Failure detection removed this node from its rings while it was
        // down; rejoin *before* constructing the host — ring state
        // machines require membership.
        for ring in &setup.member_of {
            let _ = setup
                .registry
                .rejoin(*ring, me, setup.acceptor_of.contains(ring));
        }
    }
    let obs = setup.obs.clone();
    let mut clients: HashMap<ClientId, ClientConn> = HashMap::new();
    let mut host = MultiRingHost::new(
        me,
        setup.registry.clone(),
        &setup.member_of,
        &setup.subscribe_to,
        setup.partition,
        app,
        setup.host_opts,
    );
    let mut transport = PeerTransport::new(me, setup.peer_addrs, &obs);
    let stage_seal = obs.hist("stage_seal_nanos");
    let batcher_depth = obs.gauge("batcher_depth");
    let reply_queue_depth = obs.gauge("reply_queue_depth");
    let session_count = obs.gauge("session_count");
    let session_cached_replies = obs.gauge("session_cached_replies");
    let mut batcher = Batcher::new(setup.batch_opts);
    // Credit controller: backlog threshold defaults to four full batches
    // of headroom when the config leaves it at 0.
    let credit_window = obs.gauge("credit_window");
    let wal_commit = obs.hist("wal_commit_nanos");
    let backlog_high = if setup.credit_backlog_high > 0 {
        setup.credit_backlog_high as i64
    } else {
        (setup.batch_opts.max_envelopes as i64).saturating_mul(4)
    };
    let mut credit = CreditController::new(
        setup.client_window.max(1),
        setup.credit_min_window,
        backlog_high,
    );
    credit_window.set(credit.window as i64);
    let mut next_credit_tick = Instant::now() + CREDIT_TICK;
    // Session-expiry sweep state: last refresh reading per session and
    // when it last moved (the amcoord TTL-session shape applied to the
    // app-level client sessions).
    let mut session_seen: HashMap<u64, (u64, Instant)> = HashMap::new();
    let mut next_session_sweep = Instant::now() + Duration::from_secs(1);
    let mut expire_seq: u64 = 0;
    let mut timers: TimerHeap<Timer> = TimerHeap::new();
    let mut rng = StdRng::seed_from_u64(u64::from(me.raw()) ^ 0xa3c59ac2f1f0b7d1);
    let mut outbox: Vec<(NodeId, Msg)> = Vec::new();
    let mut timer_reqs: Vec<(common::SimTime, Timer)> = Vec::new();

    macro_rules! with_ctx {
        (|$ctx:ident| $body:expr) => {{
            let mut $ctx = Ctx::external(clock.now(), me, &mut outbox, &mut timer_reqs, &mut rng);
            $body;
        }};
    }
    macro_rules! route {
        () => {
            route_effects(
                &mut outbox,
                &mut timer_reqs,
                &mut transport,
                &clients,
                &self_tx,
                &mut timers,
                &clock,
                me,
            )
        };
    }

    with_ctx!(|ctx| if restart {
        // A restarted process lost its volatile state; run the host's
        // crash path so it rebuilds from stable storage + partition peers.
        host.on_crash(clock.now());
        host.on_restart(&mut ctx)
    } else {
        host.on_start(&mut ctx)
    });
    route!();

    // Advertise liveness: an ephemeral entry on the node's coordination
    // session. Against amcoord the entry lives exactly as long as the
    // session's TTL is kept alive — a killed process disappears from
    // `nodes/` without anyone reporting it.
    let _ = setup.registry.announce(
        format!("nodes/{}", me.raw()),
        Bytes::from(setup.peer_addr.to_string()),
    );

    macro_rules! handle_event {
        ($ev:expr) => {
            match $ev {
                Event::Shutdown => return,
                Event::Peer(from, msg) => {
                    with_ctx!(|ctx| host.on_message(from, msg, &mut ctx));
                }
                Event::ClientOpen(conn, socket) => {
                    sockets.insert(conn, socket);
                }
                Event::ClientHello(client, conn) => {
                    clients.insert(client, conn);
                }
                Event::ClientGone { conn, client } => {
                    sockets.remove(&conn);
                    // A client that reconnected already owns a newer
                    // connection: the old one's close must not evict it.
                    if let Some(client) = client {
                        if clients.get(&client).is_some_and(|c| c.conn == conn) {
                            clients.remove(&client);
                        }
                    }
                }
                Event::ClientRequestV2 {
                    client,
                    session,
                    seq,
                    ack,
                    group,
                    cmd,
                } => {
                    if !setup.member_of.contains(&group) {
                        // Point the client at a node that serves the
                        // group instead of making it guess (or silently
                        // proxying on its behalf).
                        if let Some(conn) = clients.get(&client) {
                            let target =
                                setup.registry.ring(group).ok().and_then(|cfg| {
                                    cfg.members().iter().copied().find(|m| *m != me)
                                });
                            match target {
                                Some(to) => {
                                    conn.writer.send(
                                        &common::wire::client::ClientReply::Redirect {
                                            seq,
                                            group,
                                            to,
                                        },
                                    );
                                }
                                None => {
                                    conn.writer
                                        .send(&common::wire::client::ClientReply::ErrorV2 {
                                            seq,
                                            code: common::wire::client::ErrorCode::UnknownGroup,
                                            detail: format!("no node serves group {group}"),
                                        });
                                }
                            }
                        }
                    } else {
                        let env = Envelope {
                            client,
                            req: seq,
                            reply_to: client_node_id(client),
                            session,
                            ack,
                            trace: obs.trace_stamp(),
                            cmd,
                        };
                        if let Some(batch) = batcher.push(group, env, Instant::now()) {
                            note_seal(&stage_seal, &batch);
                            with_ctx!(|ctx| host.propose_envelopes(group, batch, &mut ctx));
                        }
                    }
                }
            }
        };
    }

    loop {
        let mut sleep = timers.sleep_for(Duration::from_millis(50));
        if let Some(batch_deadline) = batcher.next_deadline() {
            sleep = sleep.min(batch_deadline.saturating_duration_since(Instant::now()));
        }
        match rx.recv_timeout(sleep) {
            Err(RecvTimeoutError::Disconnected) => return,
            Ok(ev) => {
                handle_event!(ev);
                // Greedily drain whatever queued behind the first event
                // before routing: effects coalesce (one routing pass, and
                // proposer batches actually fill) instead of paying the
                // full wake-route cycle per message.
                let mut drained = 0;
                while drained < 512 {
                    match rx.try_recv() {
                        Ok(ev) => {
                            handle_event!(ev);
                            drained += 1;
                        }
                        Err(_) => break,
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
        }
        // Fire due protocol timers.
        while let Some(t) = timers.pop_due(Instant::now()) {
            with_ctx!(|ctx| host.on_timer(t, &mut ctx));
        }
        // Flush batches that aged out.
        for (ring, batch) in batcher.take_due(Instant::now()) {
            note_seal(&stage_seal, &batch);
            with_ctx!(|ctx| host.propose_envelopes(ring, batch, &mut ctx));
        }
        // Session-expiry sweep: the replicated session table's liveness
        // counters advance only through ordered keep-alives, so every
        // replica reads the same values. A counter that has sat still
        // for its TTL gets an expiry proposed on the session ring; a
        // keep-alive racing through the log wins the CAS and the session
        // survives (the amcoord TTL-session shape).
        if Instant::now() >= next_session_sweep {
            next_session_sweep = Instant::now() + Duration::from_secs(1);
            // Periodic gauges ride the sweep's once-a-second cadence.
            batcher_depth.set(batcher.pending_len() as i64);
            reply_queue_depth.set(clients.values().map(|c| c.writer.queued() as i64).sum());
            let ids = host.app().session_ids();
            session_count.set(ids.len() as i64);
            session_cached_replies.set(host.app().cached_reply_count() as i64);
            let now = Instant::now();
            session_seen.retain(|id, _| ids.contains(id));
            for id in ids {
                // Expiries ride the session's own home ring (encoded
                // in the id), proposed only by that ring's members —
                // a session on partition 0's ring never costs the
                // other rings an ordered message.
                let Some(ring) =
                    multiring::session_home_ring(id).filter(|r| setup.member_of.contains(r))
                else {
                    continue;
                };
                let Some((refresh, ttl_ms)) = host.app().session_probe(id) else {
                    continue;
                };
                let entry = session_seen.entry(id).or_insert((refresh, now));
                if entry.0 != refresh {
                    *entry = (refresh, now);
                } else if now.duration_since(entry.1) > Duration::from_millis(ttl_ms.max(1)) {
                    expire_seq += 1;
                    let env = Envelope {
                        client: ClientId::new(0),
                        req: RequestId::new(expire_seq),
                        // Replies route back to this node's own loop,
                        // where client-less responses are dropped.
                        reply_to: me,
                        session: common::value::SESSION_CTL,
                        ack: 0,
                        trace: 0,
                        cmd: multiring::session::SessionCtl::Expire {
                            session: id,
                            seen_refresh: refresh,
                        }
                        .to_bytes(),
                    };
                    with_ctx!(|ctx| host.propose_envelopes(ring, vec![env], &mut ctx));
                    // Back off a full TTL before re-proposing.
                    entry.1 = now;
                }
            }
        }
        // Credit tick: re-derive the per-session window from this node's
        // own backlog and broadcast the change to every connection.
        if Instant::now() >= next_credit_tick {
            next_credit_tick = Instant::now() + CREDIT_TICK;
            let backlog = batcher.pending_len() as i64 + rx.len() as i64;
            batcher_depth.set(batcher.pending_len() as i64);
            let reply_backlog: i64 = clients.values().map(|c| c.writer.queued() as i64).sum();
            reply_queue_depth.set(reply_backlog);
            let w = credit.tick(backlog, reply_backlog, &wal_commit.snapshot());
            if w != grant.load(Ordering::Relaxed) {
                grant.store(w, Ordering::Relaxed);
                credit_window.set(w as i64);
                for conn in clients.values() {
                    conn.writer.send(&ClientReply::CreditGrant { window: w });
                }
            }
        }
        route!();
    }
}

/// Records the batch-seal stage for every sampled envelope in a batch
/// about to be proposed: cumulative nanoseconds from the envelope's
/// origin stamp to the moment its batch sealed.
fn note_seal(seal: &Hist, batch: &[Envelope]) {
    for env in batch {
        if env.trace != 0 {
            seal.record_since(env.trace);
        }
    }
}

/// Routes one round of host effects: sends onto sockets (peers), reply
/// frames (clients) or back into our own queue (self-sends); timer
/// requests onto the wall-clock heap.
#[allow(clippy::too_many_arguments)]
fn route_effects(
    outbox: &mut Vec<(NodeId, Msg)>,
    timer_reqs: &mut Vec<(common::SimTime, Timer)>,
    transport: &mut PeerTransport,
    clients: &HashMap<ClientId, ClientConn>,
    self_tx: &Sender<Event>,
    timers: &mut TimerHeap<Timer>,
    clock: &WallClock,
    me: NodeId,
) {
    for (to, msg) in outbox.drain(..) {
        if let Some(client) = client_of_node(to) {
            let Msg::Client(SimClientMsg::Response {
                client_seq,
                session,
                from_replica,
                payload,
                ..
            }) = msg
            else {
                continue;
            };
            // Client not connected here (or gone): reply dropped, exactly
            // like the paper's UDP responses; the client retries (safely —
            // retries are deduplicated).
            if let Some(conn) = clients.get(&client) {
                conn.writer.send(&ClientReply::ResponseV2 {
                    session,
                    seq: client_seq,
                    from_replica,
                    payload,
                });
            }
        } else if to == me {
            let _ = self_tx.send(Event::Peer(me, msg));
        } else {
            transport.send(to, msg);
        }
    }
    for (at, timer) in timer_reqs.drain(..) {
        timers.push_at(clock.instant_of(at), timer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_node_ids_round_trip() {
        let c = ClientId::new(42);
        let n = client_node_id(c);
        assert_eq!(client_of_node(n), Some(c));
        assert_eq!(client_of_node(NodeId::new(3)), None);
        assert_eq!(client_of_node(NodeId::new(CLIENT_NODE_BASE - 1)), None);
        assert_eq!(
            client_of_node(NodeId::new(CLIENT_NODE_BASE)),
            Some(ClientId::new(0))
        );
    }
}
