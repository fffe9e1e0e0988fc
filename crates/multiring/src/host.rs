//! The deployable Multi-Ring Paxos process.
//!
//! One [`MultiRingHost`] per machine/process: it multiplexes this node's
//! participation in any number of rings, merges their decision streams
//! deterministically, executes a replicated [`ServiceApp`], answers
//! clients over (simulated) UDP, takes periodic checkpoints, runs the
//! coordinator side of the log-trimming protocol for rings it
//! coordinates, and recovers after crashes via partition-peer checkpoints
//! plus acceptor retransmission (paper §5.2, §7).

use std::collections::BTreeMap;
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use common::ids::{InstanceId, NodeId, PartitionId, RingId};
use common::msg::CheckpointTuple;
use common::msg::{ClientMsg, Msg, RecoveryMsg, RingMsg};
use common::obs::{Counter, Gauge, Hist, Obs};
use common::time::SimTime;
use common::value::{Envelope, Payload, Value, ValueId};
use common::wire::{get_varint, get_vec, put_varint, put_vec, Wire};
use coord::Registry;
use ringpaxos::node::{Output, RingNode};
use ringpaxos::options::RingOptions;
use ringpaxos::timer::RingTimer;
use simnet::{Ctx, Process, Timer};
use storage::{CheckpointStore, CheckpointWriter, StorageMode};

use crate::app::{ServiceApp, SnapshotCut};
use crate::merge::MergeLearner;
use crate::recovery::{RecoveryPhase, TrimRound};

/// Timer kinds used by the host.
const TIMER_RING: u32 = 1;
const TIMER_CHECKPOINT: u32 = 2;
const TIMER_CHECKPOINT_DONE: u32 = 3;
const TIMER_TRIM: u32 = 4;
const TIMER_RECOVERY: u32 = 5;
const TIMER_GAP: u32 = 6;
const TIMER_CHECKPOINT_STEP: u32 = 7;

/// Maximum decisions per retransmission reply.
const RETRANSMIT_CHUNK: u64 = 4096;

/// Bytes serialized per checkpoint step. Each step runs as its own
/// timer event, so deliveries interleave between chunks instead of
/// stalling behind one monolithic serialization of a large state. A
/// chunk is well under a millisecond of memcpy; the dominant per-step
/// cost is the event-loop round trip, so chunks are sized large enough
/// that a multi-megabyte snapshot finishes in tens of steps.
const CKPT_CHUNK_BYTES: usize = 1024 * 1024;

/// Gap between checkpoint serialization steps — long enough to drain
/// queued deliveries, short enough that a multi-megabyte snapshot still
/// completes within a fraction of the checkpoint cadence.
const CKPT_STEP_DELAY: Duration = Duration::from_micros(200);

/// Checkpoint duty-cycle bound: the next checkpoint is scheduled no
/// sooner than this many multiples of the last checkpoint's measured
/// wall window — cut to final chunk, step delays included — so at most
/// ~2.5% of a node's time sits inside a serialization window. Large
/// service states stretch the cadence automatically instead of
/// overlapping their windows across replicas back to back; small states
/// never notice (the configured interval dominates).
const CKPT_DUTY_FACTOR: u32 = 40;

/// Host configuration.
#[derive(Clone, Debug)]
pub struct HostOptions {
    /// Ring protocol options (storage mode, batching, rate leveling, ...).
    pub ring: RingOptions,
    /// Deterministic-merge parameter `M` (instances per ring per turn).
    pub m: u64,
    /// Replica checkpoint cadence; `None` disables checkpointing.
    pub checkpoint_interval: Option<Duration>,
    /// Trim-protocol cadence on coordinated rings; `None` disables
    /// trimming.
    pub trim_interval: Option<Duration>,
    /// Retry cadence for recovery steps.
    pub recovery_retry: Duration,
    /// Checkpoint storage mode (the paper writes checkpoints
    /// synchronously to disk, §7.2).
    pub checkpoint_storage: StorageMode,
}

impl Default for HostOptions {
    fn default() -> Self {
        HostOptions {
            ring: RingOptions::default(),
            m: 1,
            checkpoint_interval: None,
            trim_interval: None,
            recovery_retry: Duration::from_millis(200),
            checkpoint_storage: StorageMode::InMemory,
        }
    }
}

/// Checkpoint blob layout: per-ring dedup windows and the merge
/// scheduler state (turn + per-ring skip credit, so a replica restored
/// from a mid-round cut resumes the round-robin exactly where its peers
/// are) first, then the service snapshot as the **trailing rest** of the
/// blob. The service state goes last and unprefixed so
/// [`MultiRingHost::take_checkpoint`] can stream it straight into the
/// checkpoint buffer (via [`SnapshotCut`]) without materializing it
/// separately — checkpoint cost is dominated by serializing that state
/// on the delivery thread.
struct Snapshot {
    app: Bytes,
    dedup: Vec<(RingId, Vec<ValueId>)>,
    merge_turn: u64,
    merge_credits: Vec<(RingId, u64)>,
}

/// Encodes everything *except* the trailing service state — shared by
/// [`Snapshot::encode`] and the streaming path in
/// [`MultiRingHost::take_checkpoint`] so the two cannot drift.
fn encode_snapshot_meta(
    buf: &mut BytesMut,
    dedup: &[(RingId, Vec<ValueId>)],
    merge_turn: u64,
    merge_credits: &[(RingId, u64)],
) {
    put_varint(buf, dedup.len() as u64);
    for (ring, ids) in dedup {
        ring.encode(buf);
        put_vec(buf, ids);
    }
    put_varint(buf, merge_turn);
    put_varint(buf, merge_credits.len() as u64);
    for (ring, credit) in merge_credits {
        ring.encode(buf);
        put_varint(buf, *credit);
    }
}

impl Wire for Snapshot {
    fn encode(&self, buf: &mut BytesMut) {
        encode_snapshot_meta(buf, &self.dedup, self.merge_turn, &self.merge_credits);
        buf.extend_from_slice(&self.app);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, common::error::WireError> {
        let n = get_varint(buf)?;
        let mut dedup = Vec::new();
        for _ in 0..n {
            let ring = RingId::decode(buf)?;
            dedup.push((ring, get_vec(buf)?));
        }
        let merge_turn = get_varint(buf)?;
        let m = get_varint(buf)?;
        let mut merge_credits = Vec::new();
        for _ in 0..m {
            let ring = RingId::decode(buf)?;
            merge_credits.push((ring, get_varint(buf)?));
        }
        // The rest of the blob is the service state.
        let app = buf.split_to(buf.len());
        Ok(Snapshot {
            app,
            dedup,
            merge_turn,
            merge_credits,
        })
    }
}

/// Cached handles into the node's observability registry for the
/// ordering hot path: one registry lookup at construction, relaxed
/// atomics per event after that.
///
/// The `stage_*` histograms record *cumulative* nanoseconds since the
/// envelope's origin stamp ([`Envelope::trace`]), so a stage's own cost
/// reads as the difference between adjacent stage p50s.
struct HostObs {
    obs: Obs,
    proposed_cmds: Counter,
    instances_decided: Counter,
    executed_cmds: Counter,
    value_pulls: Counter,
    liveness_fires: Counter,
    merge_skips: Counter,
    merge_lag: Gauge,
    ckpt_bytes: Gauge,
    ckpt_window_us: Gauge,
    ckpt_file_bytes: Gauge,
    ckpt_fetches_sent: Counter,
    stage_propose: Hist,
    stage_p2send: Hist,
    stage_decide: Hist,
    stage_deliver: Hist,
    stage_execute: Hist,
    stage_reply: Hist,
}

impl HostObs {
    fn new(obs: &Obs) -> Self {
        HostObs {
            obs: obs.clone(),
            proposed_cmds: obs.counter("proposed_cmds"),
            instances_decided: obs.counter("instances_decided"),
            executed_cmds: obs.counter("executed_cmds"),
            value_pulls: obs.counter("value_pulls"),
            liveness_fires: obs.counter("liveness_fires"),
            merge_skips: obs.counter("merge_skips"),
            merge_lag: obs.gauge("merge_lag"),
            ckpt_bytes: obs.gauge("ckpt_bytes"),
            ckpt_window_us: obs.gauge("ckpt_window_us"),
            ckpt_file_bytes: obs.gauge("ckpt_file_bytes"),
            ckpt_fetches_sent: obs.counter("ckpt_fetches_sent"),
            stage_propose: obs.hist("stage_propose_nanos"),
            stage_p2send: obs.hist("stage_p2send_nanos"),
            stage_decide: obs.hist("stage_decide_nanos"),
            stage_deliver: obs.hist("stage_deliver_nanos"),
            stage_execute: obs.hist("stage_execute_nanos"),
            stage_reply: obs.hist("stage_reply_nanos"),
        }
    }
}

/// Counts value pulls and stamps the Phase 2 send stage for one outgoing
/// ring message, recursing into packed batches.
fn note_ring_send(hobs: &HostObs, tracing: bool, msg: &RingMsg) {
    match msg {
        RingMsg::ValueRequest { .. } => hobs.value_pulls.inc(),
        RingMsg::Phase2 { value, .. } if tracing => {
            if let Some(payload) = value.payload() {
                let t = Payload::peek_trace(payload);
                if t != 0 {
                    hobs.stage_p2send.record_since(t);
                }
            }
        }
        RingMsg::Batch(msgs) => {
            for m in msgs {
                note_ring_send(hobs, tracing, m);
            }
        }
        _ => {}
    }
}

/// An in-flight incremental checkpoint. The *cut* is taken
/// synchronously at the delivery cursor (so it is a consistent point in
/// the merge), but serialization proceeds in [`CKPT_CHUNK_BYTES`]
/// chunks across [`TIMER_CHECKPOINT_STEP`] events, letting deliveries
/// interleave with a multi-megabyte snapshot instead of stalling behind
/// one monolithic encode. Each chunk goes to the checkpoint store's sink
/// through `writer` (a file sink hands it to its writer thread).
struct ActiveCkpt {
    writer: CheckpointWriter,
    cut: Box<dyn SnapshotCut>,
    /// When the cut was taken; final-chunk minus this is the window
    /// that feeds the [`CKPT_DUTY_FACTOR`] duty-cycle bound.
    started: std::time::Instant,
}

/// The per-process host. See the module docs.
pub struct MultiRingHost {
    me: NodeId,
    registry: Registry,
    opts: HostOptions,
    /// Rings this node participates in (any roles).
    rings: BTreeMap<RingId, RingNode>,
    /// Rings participated in as acceptor (for rejoin).
    acceptor_of: Vec<RingId>,
    /// The deterministic-merge learner, if this node is a replica.
    learner: Option<MergeLearner>,
    /// The replica's partition (for recovery quorums).
    partition: Option<PartitionId>,
    app: Box<dyn ServiceApp>,
    ckpt_store: CheckpointStore,
    /// The checkpoint advertised to the trim protocol (durably written).
    advertised: Option<CheckpointTuple>,
    /// A checkpoint whose synchronous write is still in flight.
    pending_ckpt: Option<(u64, CheckpointTuple)>,
    /// A checkpoint cut whose serialization is still being chunked
    /// across [`TIMER_CHECKPOINT_STEP`] events.
    active_ckpt: Option<ActiveCkpt>,
    ckpt_seq: u64,
    /// Presize hint for the next in-memory checkpoint buffer (last blob
    /// + 12.5%).
    ckpt_capacity: usize,
    /// Measured wall window of the last checkpoint (cut to final
    /// chunk). Bounds the checkpoint duty cycle: the next checkpoint is
    /// scheduled at least [`CKPT_DUTY_FACTOR`] × this far out, so a
    /// large service state cannot keep the node inside a serialization
    /// window — and replicas whose windows would otherwise align drift
    /// apart instead of stalling every ring at once.
    ckpt_cost: Duration,
    /// Trim rounds for rings this node coordinates.
    trims: BTreeMap<RingId, TrimRound>,
    trim_seq: u64,
    recovery: RecoveryPhase,
    recovery_seq: u64,
    /// Set when catch-up discovered the acceptors trimmed past us; the
    /// next retry restarts recovery from the checkpoint query.
    restart_recovery: bool,
    /// Rotates which acceptor serves retransmissions, so a peer that is
    /// itself missing decisions does not starve the requester.
    retransmit_rr: u64,
    executed: u64,
    out: Output,
    hobs: HostObs,
    /// Lazily created per-ring merge telemetry (the subscription set can
    /// change at runtime).
    ring_stats: BTreeMap<RingId, RingMergeStats>,
    /// Per-ring acceptor-log gauges: `ring<r>_acceptor_log_entries` and
    /// `ring<r>_acceptor_trim_floor`, what the trim protocol bounds.
    acceptor_stats: BTreeMap<RingId, (Gauge, Gauge)>,
    /// Last (ring, needed-instance) position the starvation nudge fired
    /// at — one nudge per blocked position, or a slow skip round-trip
    /// would trigger a nudge storm from every pump.
    merge_nudge_mark: Option<(RingId, InstanceId)>,
}

/// Per-ring counters/gauges behind the `merge_skips`/`merge_lag`
/// aggregates, plus delivered-command attribution (what the genuineness
/// guard scrapes: a ring this node is not addressed by must show zero
/// delivered commands).
struct RingMergeStats {
    skips: Counter,
    lag: Gauge,
    delivered: Counter,
}

impl RingMergeStats {
    fn new(obs: &Obs, ring: RingId) -> Self {
        let r = ring.raw();
        RingMergeStats {
            skips: obs.counter(&format!("ring{r}_merge_skips")),
            lag: obs.gauge(&format!("ring{r}_merge_lag")),
            delivered: obs.counter(&format!("ring{r}_delivered_cmds")),
        }
    }
}

impl MultiRingHost {
    /// Creates a host for `me` participating in `member_of` rings,
    /// delivering (as a replica) from `subscribe_to` rings into `app`.
    ///
    /// `subscribe_to` must be a subset of rings registered in the
    /// registry; the node need not be a *member* of a ring to subscribe —
    /// but it must be a member to propose on it.
    ///
    /// # Panics
    ///
    /// Panics on invalid configuration (unknown ring, non-member) —
    /// deployment bugs, not runtime conditions.
    pub fn new(
        me: NodeId,
        registry: Registry,
        member_of: &[RingId],
        subscribe_to: &[RingId],
        partition: Option<PartitionId>,
        app: Box<dyn ServiceApp>,
        opts: HostOptions,
    ) -> Self {
        let mut rings = BTreeMap::new();
        let mut acceptor_of = Vec::new();
        for ring in member_of {
            let node = RingNode::new(me, *ring, registry.clone(), opts.ring.clone())
                .expect("valid ring membership");
            if node.config().is_acceptor(me) {
                acceptor_of.push(*ring);
            }
            rings.insert(*ring, node);
        }
        // Delivery happens through the merge learner; the per-ring
        // learners always feed it, so keep them subscribed.
        let learner = if subscribe_to.is_empty() {
            None
        } else {
            for r in subscribe_to {
                assert!(
                    rings.contains_key(r),
                    "replica must participate in rings it subscribes to"
                );
                registry.subscribe(*r, me);
            }
            Some(MergeLearner::new(subscribe_to, opts.m))
        };
        let ckpt_store = CheckpointStore::new(opts.checkpoint_storage);
        let hobs = HostObs::new(&opts.ring.obs);
        let acceptor_stats = rings
            .keys()
            .map(|r| {
                let obs = &opts.ring.obs;
                let n = r.raw();
                let gauges = (
                    obs.gauge(&format!("ring{n}_acceptor_log_entries")),
                    obs.gauge(&format!("ring{n}_acceptor_trim_floor")),
                );
                (*r, gauges)
            })
            .collect();
        MultiRingHost {
            me,
            registry,
            opts,
            rings,
            acceptor_of,
            learner,
            partition,
            app,
            ckpt_store,
            advertised: None,
            pending_ckpt: None,
            active_ckpt: None,
            ckpt_seq: 0,
            ckpt_capacity: 0,
            ckpt_cost: Duration::ZERO,
            trims: BTreeMap::new(),
            trim_seq: 0,
            recovery: RecoveryPhase::Idle,
            recovery_seq: 0,
            restart_recovery: false,
            retransmit_rr: 0,
            executed: 0,
            out: Output::new(),
            hobs,
            ring_stats: BTreeMap::new(),
            acceptor_stats,
            merge_nudge_mark: None,
        }
    }

    /// Replaces the host's checkpoint store — a live node with a WAL
    /// directory passes a file-backed one
    /// ([`CheckpointStore::open_dir`]), whose newest file a restart
    /// installs. The default store is in memory, per
    /// [`HostOptions::checkpoint_storage`].
    pub fn with_checkpoint_store(mut self, store: CheckpointStore) -> Self {
        self.ckpt_store = store;
        self.hobs
            .ckpt_file_bytes
            .set(self.ckpt_store.file_bytes() as i64);
        self
    }

    /// Commands executed by this replica (diagnostics).
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// True while post-crash recovery is in progress.
    pub fn is_recovering(&self) -> bool {
        self.recovery.is_recovering()
    }

    /// The replica's current checkpoint tuple (for tests).
    pub fn checkpoint_tuple(&self) -> Option<CheckpointTuple> {
        self.learner.as_ref().map(|l| l.checkpoint_tuple())
    }

    /// Immutable access to the service state machine.
    pub fn app(&self) -> &dyn ServiceApp {
        &*self.app
    }

    /// The ring node for `ring` (tests/diagnostics).
    pub fn ring_node(&self, ring: RingId) -> Option<&RingNode> {
        self.rings.get(&ring)
    }

    /// Proposes a set of client commands on `group` as **one** consensus
    /// value (proposer-side batching): the whole batch costs a single
    /// instance of the ring, and replicas execute its envelopes in order.
    ///
    /// A singleton slice encodes as [`Payload::One`] — the same path the
    /// per-request [`ClientMsg::Request`] handler takes — so batched and
    /// unbatched proposers interoperate freely. Does nothing if this node
    /// is not a member of `group` or `envs` is empty.
    pub fn propose_envelopes(&mut self, group: RingId, mut envs: Vec<Envelope>, ctx: &mut Ctx<'_>) {
        if envs.is_empty() {
            return;
        }
        let now = ctx.now();
        self.hobs.proposed_cmds.add(envs.len() as u64);
        for env in &envs {
            if env.trace != 0 {
                self.hobs.stage_propose.record_since(env.trace);
            }
        }
        let mut out = Output::new();
        if let Some(node) = self.rings.get_mut(&group) {
            let payload = if envs.len() == 1 {
                Payload::One(envs.pop().expect("len checked"))
            } else {
                Payload::Batch(envs)
            };
            // Allocate the value id from the ring node's own counter:
            // skip tokens and no-op fillers draw from the same
            // (node, seq) space, and a collision would make the
            // coordinator's duplicate suppression silently drop the
            // client's command.
            let id = node.next_value_id();
            let value = Value {
                id,
                kind: common::value::ValueKind::App(payload.to_bytes()),
            };
            node.propose(value, now, &mut out);
        } else {
            return; // not a proposer for this group
        }
        self.out = out;
        self.drain_ring(group, ctx);
    }

    // ------------------------------------------------------------------
    // plumbing
    // ------------------------------------------------------------------

    fn drain_ring(&mut self, ring: RingId, ctx: &mut Ctx<'_>) {
        self.drain_ring_outputs(ring, ctx);
        if self.learner.is_some() {
            self.pump_merge(ctx);
        }
    }

    /// Moves decided values into the merge learner (without pumping it),
    /// sends onto the wire, timers into the host timer space. Returns
    /// the number of decided instances fed to the learner.
    fn drain_ring_outputs(&mut self, ring: RingId, ctx: &mut Ctx<'_>) -> usize {
        let decided: Vec<_> = self.out.decided.drain(..).collect();
        self.hobs.instances_decided.add(decided.len() as u64);
        let tracing = self.hobs.obs.tracing();
        if tracing {
            for (_, value) in &decided {
                if let Some(payload) = value.payload() {
                    let t = Payload::peek_trace(payload);
                    if t != 0 {
                        self.hobs.stage_decide.record_since(t);
                    }
                }
            }
        }
        for (to, msg) in self.out.sends.drain(..) {
            note_ring_send(&self.hobs, tracing, &msg);
            ctx.send(to, Msg::Ring(ring, msg));
        }
        for (after, t) in self.out.timers.drain(..) {
            let (tag, payload) = t.to_words();
            let a = (u64::from(ring.raw()) << 8) | tag;
            ctx.schedule(after, Timer::with2(TIMER_RING, a, payload));
        }
        let mut fed = 0;
        if let Some(learner) = &mut self.learner {
            for (inst, value) in decided {
                learner.push(ring, inst, value);
                fed += 1;
            }
        }
        fed
    }

    fn pump_merge(&mut self, ctx: &mut Ctx<'_>) {
        loop {
            self.pump_merge_once(ctx);
            // A starvation nudge on a loopback/synchronous ring can
            // decide new skip credit immediately; keep pumping until the
            // merge is genuinely blocked (iterative, not recursive — a
            // deep backlog behind an idle ring must not grow the stack).
            if self.nudge_starved_ring(ctx) == 0 {
                return;
            }
        }
    }

    fn pump_merge_once(&mut self, ctx: &mut Ctx<'_>) {
        let mut executed_any = false;
        while let Some(delivery) = self.learner.as_mut().and_then(|l| l.pop()) {
            let Ok(payload) =
                Payload::decode(&mut delivery.value.payload().expect("app value").clone())
            else {
                continue; // foreign payload; ignore
            };
            // A batch executes as its envelopes in order: every replica
            // sees the same envelope sequence, so determinism holds.
            for env in payload.into_envelopes() {
                if env.trace != 0 {
                    self.hobs.stage_deliver.record_since(env.trace);
                }
                self.executed += 1;
                executed_any = true;
                self.hobs.executed_cmds.inc();
                let obs = &self.hobs.obs;
                self.ring_stats
                    .entry(delivery.ring)
                    .or_insert_with(|| RingMergeStats::new(obs, delivery.ring))
                    .delivered
                    .inc();
                let reply = self.app.execute(delivery.ring, &env);
                if env.trace != 0 {
                    self.hobs.stage_execute.record_since(env.trace);
                }
                ctx.send(
                    env.reply_to,
                    Msg::Client(ClientMsg::Response {
                        client: env.client,
                        client_seq: env.req,
                        session: env.session,
                        from_replica: self.me,
                        payload: reply,
                    }),
                );
                if env.trace != 0 {
                    self.hobs.stage_reply.record_since(env.trace);
                }
            }
        }
        if executed_any {
            // Group-commit boundary: everything this drain delivered is
            // flushed (one write + one sync in a durable decorator).
            self.app.flush();
        }
        if let Some(learner) = &self.learner {
            // The skip counter mirrors the merge's own monotonic tally
            // (seeded, not incremented, so replayed pumps cannot double
            // count); the lag gauge is volatile by design.
            self.hobs.merge_skips.seed(learner.skips_consumed());
            self.hobs.merge_lag.set(learner.queued_lag() as i64);
            let obs = &self.hobs.obs;
            for (ring, n) in learner.skips_by_ring() {
                self.ring_stats
                    .entry(ring)
                    .or_insert_with(|| RingMergeStats::new(obs, ring))
                    .skips
                    .seed(n);
            }
            for (ring, n) in learner.lag_by_ring() {
                self.ring_stats
                    .entry(ring)
                    .or_insert_with(|| RingMergeStats::new(obs, ring))
                    .lag
                    .set(n as i64);
            }
        }
    }

    /// When the merge is parked waiting on a ring this node coordinates
    /// — typically an idle ring deep in the adaptive skip-stride backoff
    /// while a neighbour ring just turned busy — propose that ring's
    /// skip credit immediately instead of waiting out the stride. One
    /// nudge per blocked (ring, instance) position. Returns the number
    /// of decided instances the nudge fed back into the learner (only a
    /// loopback/synchronous ring decides inline; a real deployment's
    /// skip arrives later through the normal decision path).
    fn nudge_starved_ring(&mut self, ctx: &mut Ctx<'_>) -> usize {
        let Some(learner) = &self.learner else {
            return 0;
        };
        let Some(ring) = learner.starved_ring() else {
            self.merge_nudge_mark = None;
            return 0;
        };
        let needed = learner.next_needed(ring).unwrap_or(InstanceId::ZERO);
        if self.merge_nudge_mark == Some((ring, needed)) {
            return 0; // already nudged this position; the skip is in flight
        }
        let Some(node) = self.rings.get_mut(&ring) else {
            return 0;
        };
        if !node.is_coordinator() {
            return 0; // the ring's coordinator will level it on its own Δ
        }
        self.merge_nudge_mark = Some((ring, needed));
        let now = ctx.now();
        let mut out = Output::new();
        node.rate_level_now(now, &mut out);
        if out.is_empty() {
            return 0;
        }
        self.out = out;
        self.drain_ring_outputs(ring, ctx)
    }

    fn ring_mut(&mut self, ring: RingId) -> Option<&mut RingNode> {
        self.rings.get_mut(&ring)
    }

    // ------------------------------------------------------------------
    // checkpointing (replica side of §5.2)
    // ------------------------------------------------------------------

    fn take_checkpoint(&mut self, ctx: &mut Ctx<'_>) {
        let Some(learner) = &self.learner else { return };
        if self.pending_ckpt.is_some()
            || self.active_ckpt.is_some()
            || self.recovery.is_recovering()
        {
            return; // one at a time; never checkpoint mid-recovery
        }
        let tuple = learner.checkpoint_tuple();
        if self.advertised.as_ref() == Some(&tuple) {
            return; // nothing new to checkpoint
        }
        let (merge_turn, merge_credits) = learner.scheduler_state();
        // Snapshot each ring's dedup window at the *merge's* cut for
        // that ring: the ring learner may have emitted deliveries the
        // merge has not consumed yet, and those must not poison a
        // restored replica's duplicate suppression (they will be
        // re-delivered during catch-up).
        let dedup: Vec<(RingId, Vec<ValueId>)> = self
            .rings
            .iter()
            .map(|(r, n)| {
                let cut = tuple.get(*r).unwrap_or_else(|| n.next_delivery());
                (*r, n.dedup_snapshot(cut))
            })
            .collect();
        // Take the cut *now* — a cheap structural capture at the merge's
        // delivery cursor — then serialize it chunk by chunk across
        // timer events (layout per [`Snapshot`]: meta first, then the
        // service state as the trailing rest). Presized from the
        // previous checkpoint so a large store does not churn through
        // doubling reallocations on the delivery thread.
        let t0 = std::time::Instant::now();
        let mut writer = match self.ckpt_store.begin(tuple, self.ckpt_capacity.max(1024)) {
            Ok(writer) => writer,
            Err(e) => {
                self.dbg(ctx, &format!("checkpoint not started: {e}"));
                return;
            }
        };
        encode_snapshot_meta(writer.buf(), &dedup, merge_turn, &merge_credits);
        let cut = self.app.snapshot_cut();
        self.active_ckpt = Some(ActiveCkpt {
            writer,
            cut,
            started: t0,
        });
        // First chunk runs synchronously: small states (and the
        // deterministic simulator) complete the whole checkpoint inside
        // this event; only large states spill onto step timers.
        self.step_checkpoint(ctx);
    }

    /// Serializes one [`CKPT_CHUNK_BYTES`] chunk of the active
    /// checkpoint cut into the store's sink; reschedules itself until the
    /// cut is drained, then finishes the checkpoint in the store.
    fn step_checkpoint(&mut self, ctx: &mut Ctx<'_>) {
        let Some(mut active) = self.active_ckpt.take() else {
            return;
        };
        if self.recovery.is_recovering() {
            return; // recovery reset the merge; abandon the stale cut
        }
        let more = active
            .cut
            .write_chunk(active.writer.buf(), CKPT_CHUNK_BYTES);
        if let Err(e) = active.writer.flush() {
            self.dbg(ctx, &format!("checkpoint write failed: {e}"));
            return; // dropping the writer abandons the checkpoint
        }
        if more {
            self.active_ckpt = Some(active);
            ctx.schedule(CKPT_STEP_DELAY, Timer::of_kind(TIMER_CHECKPOINT_STEP));
            return;
        }
        let bytes = active.writer.bytes() as usize;
        // Real wall from cut to final chunk, deliberately: contention
        // (other replicas' windows, client load) inflating the window is
        // exactly the signal to back off and de-align.
        self.ckpt_cost = active.started.elapsed();
        self.hobs.ckpt_bytes.set(bytes as i64);
        self.hobs
            .ckpt_window_us
            .set(self.ckpt_cost.as_micros() as i64);
        self.ckpt_capacity = bytes + bytes / 8;
        let tuple = active.writer.tuple().clone();
        let now = ctx.now();
        let receipt = match self.ckpt_store.finish(active.writer, now) {
            Ok(receipt) => receipt,
            Err(e) => {
                self.dbg(ctx, &format!("checkpoint write failed: {e}"));
                return;
            }
        };
        self.ckpt_seq += 1;
        self.pending_ckpt = Some((self.ckpt_seq, tuple));
        // Synchronous write: the checkpoint is advertised (and counted by
        // the trim protocol) only once the write completes — for a file
        // store, once the finished file has been renamed into place.
        ctx.schedule_at(
            receipt.ack_at,
            Timer::with(TIMER_CHECKPOINT_DONE, self.ckpt_seq),
        );
    }

    /// Refreshes the per-ring acceptor-log gauges (on the gap and trim
    /// timers, so replicas and pure acceptors both report).
    fn report_acceptor_logs(&self) {
        for (ring, (entries, floor)) in &self.acceptor_stats {
            if let Some(node) = self.rings.get(ring) {
                entries.set(node.log().len() as i64);
                floor.set(node.log().trim_floor().raw() as i64);
            }
        }
    }

    /// First-checkpoint delay: the configured interval plus a
    /// deterministic per-node phase offset (0–75% of the interval).
    /// Replicas of a partition start together and share a cadence;
    /// without the offset they all serialize their state at the same
    /// instant, stalling every ring at once. The offset only shifts the
    /// *phase* — steady-state cadence is unchanged.
    fn ckpt_phase(&self, interval: Duration) -> Duration {
        interval + interval * (self.me.raw() % 4) / 4
    }

    /// Steady-state cadence spread: pushes the next checkpoint out by a
    /// deterministic 0–87.5% of `base`, keyed on node id *and*
    /// checkpoint sequence. The initial phase offsets de-align the first
    /// round, but identical configured cadences would let the windows
    /// re-converge a few rounds later; varying the slot each round keeps
    /// replicas' serialization windows drifting apart instead. Purely
    /// arithmetic, so the deterministic simulator stays deterministic.
    fn ckpt_spread(&self, base: Duration) -> Duration {
        let slot = (u64::from(self.me.raw()) * 5 + self.ckpt_seq * 3) % 8;
        base + base * (slot as u32) / 8
    }

    fn install_snapshot(&mut self, tuple: &CheckpointTuple, state: &Bytes) {
        let snap = Snapshot::decode(&mut state.clone()).ok();
        if let Some(snap) = &snap {
            self.app.restore(&snap.app);
            for (ring, ids) in &snap.dedup {
                if let Some(node) = self.rings.get_mut(ring) {
                    node.restore_dedup(ids.clone());
                }
            }
        }
        for (ring, inst) in tuple.entries() {
            if let Some(node) = self.rings.get_mut(&ring) {
                node.set_next_delivery(inst);
            }
        }
        if let Some(learner) = &mut self.learner {
            learner.restore(tuple);
            if let Some(snap) = &snap {
                learner.restore_scheduler_state(snap.merge_turn, &snap.merge_credits);
            }
        }
        self.advertised = Some(tuple.clone());
    }

    // ------------------------------------------------------------------
    // trim protocol (coordinator side of §5.2)
    // ------------------------------------------------------------------

    fn run_trim_round(&mut self, ring: RingId, ctx: &mut Ctx<'_>) {
        let Some(node) = self.rings.get(&ring) else {
            return;
        };
        if !node.is_coordinator() {
            return;
        }
        self.trim_seq += 1;
        let round = TrimRound::new(ring, self.trim_seq);
        let subscribers = self.registry.subscribers(ring);
        for sub in &subscribers {
            let msg = Msg::Recovery(RecoveryMsg::TrimQuery {
                ring,
                seq: self.trim_seq,
            });
            if *sub == self.me {
                self.on_trim_query(ring, self.trim_seq, ctx);
            } else {
                ctx.send(*sub, msg);
            }
        }
        self.trims.insert(ring, round);
    }

    fn on_trim_query(&mut self, ring: RingId, seq: u64, ctx: &mut Ctx<'_>) {
        // Reply with the highest instance (inclusive) covered by our
        // durable checkpoint on this ring; no checkpoint → no reply.
        let Some(adv) = &self.advertised else { return };
        let Some(next) = adv.get(ring) else { return };
        if next == InstanceId::ZERO {
            return; // nothing delivered yet: nothing safe to trim
        }
        let safe = InstanceId::new(next.raw() - 1);
        let coordinator = match self.registry.ring(ring) {
            Ok(cfg) => cfg.coordinator(),
            Err(_) => return,
        };
        let reply = Msg::Recovery(RecoveryMsg::TrimReply {
            ring,
            seq,
            safe,
            replica: self.me,
        });
        if coordinator == self.me {
            self.on_trim_reply(ring, seq, safe, self.me, ctx);
        } else {
            ctx.send(coordinator, reply);
        }
    }

    fn on_trim_reply(
        &mut self,
        ring: RingId,
        seq: u64,
        safe: InstanceId,
        replica: NodeId,
        ctx: &mut Ctx<'_>,
    ) {
        let Some(round) = self.trims.get_mut(&ring) else {
            return;
        };
        if round.seq() != seq {
            return; // stale round
        }
        round.record(replica, safe);
        // Quorum rule: a majority of every partition subscribing to this
        // ring (guarantees Q_T ∩ Q_R ≠ ∅ for any partition's Q_R).
        let partitions: Vec<Vec<NodeId>> = self
            .registry
            .partitions()
            .into_iter()
            .filter(|(_, info)| info.rings.contains(&ring))
            .map(|(_, info)| info.replicas)
            .collect();
        if let Some(kt) = round.quorum_min(&partitions) {
            let cfg = match self.registry.ring(ring) {
                Ok(c) => c,
                Err(_) => return,
            };
            for acc in cfg.acceptors() {
                if *acc == self.me {
                    if let Some(node) = self.rings.get_mut(&ring) {
                        node.trim_log(kt);
                    }
                } else {
                    ctx.send(*acc, Msg::Recovery(RecoveryMsg::Trim { ring, upto: kt }));
                }
            }
            self.trims.remove(&ring);
        }
    }

    // ------------------------------------------------------------------
    // recovery (restarting replica side of §5.2)
    // ------------------------------------------------------------------

    fn dbg(&self, ctx: &Ctx<'_>, what: &str) {
        if std::env::var_os("MRP_DEBUG").is_some() {
            eprintln!("[{} {} ] {}", ctx.now(), self.me, what);
        }
    }

    fn begin_recovery(&mut self, ctx: &mut Ctx<'_>) {
        self.dbg(ctx, "begin_recovery");
        let Some(partition) = self.partition else {
            self.recovery = RecoveryPhase::CatchUp;
            self.step_catch_up(ctx);
            return;
        };
        let Some(info) = self.registry.partition(partition) else {
            self.recovery = RecoveryPhase::CatchUp;
            return;
        };
        self.recovery_seq += 1;
        let need = info.quorum().saturating_sub(1); // self counts
        if need == 0 {
            self.recovery = RecoveryPhase::CatchUp;
            self.step_catch_up(ctx);
            return;
        }
        self.recovery = RecoveryPhase::QueryCheckpoints {
            seq: self.recovery_seq,
            replied: Vec::new(),
            best: None,
            need,
        };
        for peer in &info.replicas {
            if *peer != self.me {
                ctx.send(
                    *peer,
                    Msg::Recovery(RecoveryMsg::CheckpointQuery {
                        partition,
                        seq: self.recovery_seq,
                    }),
                );
            }
        }
        ctx.schedule(self.opts.recovery_retry, Timer::of_kind(TIMER_RECOVERY));
    }

    fn on_checkpoint_info(
        &mut self,
        seq: u64,
        replica: NodeId,
        tuple: CheckpointTuple,
        ctx: &mut Ctx<'_>,
    ) {
        let RecoveryPhase::QueryCheckpoints {
            seq: want,
            replied,
            best,
            need,
        } = &mut self.recovery
        else {
            return;
        };
        if seq != *want || replied.contains(&replica) {
            return;
        }
        replied.push(replica);
        if !tuple.is_empty() {
            match best {
                Some((_, b)) if b.dominates(&tuple) => {}
                _ => *best = Some((replica, tuple)),
            }
        }
        if replied.len() >= *need {
            let best = best.clone();
            let local = self.advertised.clone();
            match best {
                Some((peer, tuple))
                    if local.as_ref().map(|l| !l.dominates(&tuple)).unwrap_or(true) =>
                {
                    // A peer has a strictly newer checkpoint: fetch it.
                    self.recovery = RecoveryPhase::Fetching {
                        from: peer,
                        tuple: tuple.clone(),
                    };
                    self.hobs.ckpt_fetches_sent.inc();
                    ctx.send(peer, Msg::Recovery(RecoveryMsg::CheckpointFetch { tuple }));
                }
                _ => {
                    // Our durable checkpoint is the freshest; replay from
                    // the acceptors.
                    self.recovery = RecoveryPhase::CatchUp;
                    self.step_catch_up(ctx);
                }
            }
        }
    }

    fn on_checkpoint_data(&mut self, tuple: CheckpointTuple, state: Bytes, ctx: &mut Ctx<'_>) {
        self.dbg(ctx, &format!("checkpoint_data {tuple}"));
        if let RecoveryPhase::Fetching { tuple: want, .. } = &self.recovery {
            // A peer that no longer retains the requested checkpoint
            // ships its latest instead; anything at least as fresh as
            // what we asked for is as good (catch-up replays from its
            // tuple). Only an older or incomparable one is refused.
            if !tuple.dominates(want) {
                return;
            }
            self.install_snapshot(&tuple, &state);
            let now = ctx.now();
            if let Err(e) = self.ckpt_store.save(tuple, state, now) {
                self.dbg(ctx, &format!("fetched checkpoint not saved: {e}"));
            }
            self.recovery = RecoveryPhase::CatchUp;
            self.step_catch_up(ctx);
        }
    }

    /// Requests retransmission for every subscribed ring that is behind,
    /// and finishes recovery when none are.
    fn step_catch_up(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(l) = &self.learner {
            let gaps: Vec<String> = l
                .rings()
                .iter()
                .filter_map(|r| {
                    self.rings
                        .get(r)
                        .and_then(|n| n.buffered_gap())
                        .map(|(a, b)| format!("{r}:{a}..{b}"))
                })
                .collect();
            self.dbg(ctx, &format!("step_catch_up gaps={gaps:?}"));
        }
        let Some(learner) = &self.learner else {
            self.recovery = RecoveryPhase::Idle;
            return;
        };
        let mut pending = false;
        let rings = learner.rings();
        for ring in rings {
            let Some(node) = self.rings.get(&ring) else {
                continue;
            };
            // Ask for everything from the learner's position up to any
            // buffered decisions (gap), or a chunk beyond if nothing is
            // buffered yet.
            if let Some((from, to)) = node.buffered_gap() {
                pending = true;
                self.send_retransmit_request(ring, from, to, ctx);
            }
        }
        if pending {
            ctx.schedule(self.opts.recovery_retry, Timer::of_kind(TIMER_RECOVERY));
        } else {
            self.recovery = RecoveryPhase::Idle;
        }
    }

    fn send_retransmit_request(
        &mut self,
        ring: RingId,
        from: InstanceId,
        to: InstanceId,
        ctx: &mut Ctx<'_>,
    ) {
        let Ok(cfg) = self.registry.ring(ring) else {
            return;
        };
        // Rotate over acceptors other than us: after a ring
        // reconfiguration some acceptors may themselves be missing
        // decisions for the requested range.
        let others: Vec<NodeId> = cfg
            .acceptors()
            .iter()
            .copied()
            .filter(|a| *a != self.me)
            .collect();
        if others.is_empty() {
            return;
        }
        self.retransmit_rr += 1;
        let acc = others[(self.retransmit_rr as usize) % others.len()];
        ctx.send(
            acc,
            Msg::Recovery(RecoveryMsg::Retransmit { ring, from, to }),
        );
    }

    fn on_retransmit(
        &mut self,
        ring: RingId,
        from: InstanceId,
        to: InstanceId,
        requester: NodeId,
        ctx: &mut Ctx<'_>,
    ) {
        let Some(node) = self.rings.get(&ring) else {
            return;
        };
        let to = to.min(from.plus(RETRANSMIT_CHUNK));
        let decisions = node.log().decided_in_range(from, to);
        let log_start = node.log().trim_floor();
        ctx.send(
            requester,
            Msg::Recovery(RecoveryMsg::RetransmitReply {
                ring,
                decisions,
                log_start,
            }),
        );
    }

    fn on_retransmit_reply(
        &mut self,
        ring: RingId,
        decisions: Vec<common::msg::AcceptedEntry>,
        log_start: InstanceId,
        ctx: &mut Ctx<'_>,
    ) {
        let needed = self
            .learner
            .as_ref()
            .and_then(|l| l.next_needed(ring))
            .unwrap_or(InstanceId::ZERO);
        self.dbg(
            ctx,
            &format!(
                "retransmit_reply ring={ring} n={} log_start={log_start} needed={needed} first={:?}",
                decisions.len(),
                decisions.first().map(|d| d.inst)
            ),
        );
        if log_start > needed {
            // The acceptors trimmed past our position: we must fetch a
            // newer checkpoint from a peer (Predicate 5 guarantees one
            // exists at recovery time; if trimming advanced during a slow
            // catch-up, peers have checkpointed again by now). Back off to
            // the retry timer instead of re-querying inline, otherwise a
            // reply/re-query cycle spins at network speed.
            self.dbg(
                ctx,
                &format!("retransmit hit trim: log_start={log_start} needed={needed}"),
            );
            if !self.restart_recovery {
                self.restart_recovery = true;
                ctx.schedule(self.opts.recovery_retry, Timer::of_kind(TIMER_RECOVERY));
            }
            return;
        }
        let now = ctx.now();
        let progress = !decisions.is_empty();
        let mut out = Output::new();
        if let Some(node) = self.rings.get_mut(&ring) {
            for d in decisions {
                node.learn_decided(d.inst, d.value, now, &mut out);
            }
        }
        self.out = out;
        self.drain_ring(ring, ctx);
        if matches!(self.recovery, RecoveryPhase::CatchUp) && progress {
            // Chain the next chunk. On empty replies we back off to the
            // TIMER_RECOVERY retry instead: the serving acceptor was
            // missing decisions and the round-robin will try another.
            self.step_catch_up(ctx);
        }
    }
}

impl Process for MultiRingHost {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let rings: Vec<RingId> = self.rings.keys().copied().collect();
        for ring in rings {
            let mut out = Output::new();
            if let Some(node) = self.ring_mut(ring) {
                node.start(now, &mut out);
            }
            self.out = out;
            self.drain_ring(ring, ctx);
        }
        if let Some(interval) = self.opts.checkpoint_interval {
            ctx.schedule(self.ckpt_phase(interval), Timer::of_kind(TIMER_CHECKPOINT));
        }
        if let Some(interval) = self.opts.trim_interval {
            for ring in self.rings.keys() {
                ctx.schedule(interval, Timer::with(TIMER_TRIM, u64::from(ring.raw())));
            }
        }
        if self.learner.is_some() {
            ctx.schedule(self.opts.recovery_retry, Timer::of_kind(TIMER_GAP));
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Ctx<'_>) {
        match msg {
            Msg::Ring(ring, m) => {
                let now = ctx.now();
                let mut out = Output::new();
                if let Some(node) = self.rings.get_mut(&ring) {
                    node.on_msg(from, m, now, &mut out);
                } else {
                    return;
                }
                self.out = out;
                self.drain_ring(ring, ctx);
            }
            Msg::Client(ClientMsg::Request {
                client,
                client_seq,
                group,
                cmd,
            }) => {
                let env = Envelope::v1(client, client_seq, from, cmd);
                self.propose_envelopes(group, vec![env], ctx);
            }
            Msg::Client(_) => {}
            Msg::Recovery(r) => match r {
                RecoveryMsg::TrimQuery { ring, seq } => self.on_trim_query(ring, seq, ctx),
                RecoveryMsg::TrimReply {
                    ring,
                    seq,
                    safe,
                    replica,
                } => self.on_trim_reply(ring, seq, safe, replica, ctx),
                RecoveryMsg::Trim { ring, upto } => {
                    if let Some(node) = self.rings.get_mut(&ring) {
                        node.trim_log(upto);
                    }
                }
                RecoveryMsg::CheckpointQuery { partition, seq } => {
                    if self.partition == Some(partition) {
                        let tuple = self.advertised.clone().unwrap_or_default();
                        ctx.send(
                            from,
                            Msg::Recovery(RecoveryMsg::CheckpointInfo {
                                seq,
                                replica: self.me,
                                tuple,
                            }),
                        );
                    }
                }
                RecoveryMsg::CheckpointInfo {
                    seq,
                    replica,
                    tuple,
                } => self.on_checkpoint_info(seq, replica, tuple, ctx),
                RecoveryMsg::CheckpointFetch { tuple } => {
                    // The exact checkpoint if still retained, else our
                    // latest (which the requester accepts when it
                    // dominates what it asked for).
                    if let Some((tuple, state)) = self.ckpt_store.load(&tuple) {
                        ctx.send(
                            from,
                            Msg::Recovery(RecoveryMsg::CheckpointData { tuple, state }),
                        );
                    }
                }
                RecoveryMsg::CheckpointData { tuple, state } => {
                    self.on_checkpoint_data(tuple, state, ctx)
                }
                RecoveryMsg::Retransmit { ring, from: f, to } => {
                    self.on_retransmit(ring, f, to, from, ctx)
                }
                RecoveryMsg::RetransmitReply {
                    ring,
                    decisions,
                    log_start,
                } => self.on_retransmit_reply(ring, decisions, log_start, ctx),
            },
            Msg::Custom(..) => {}
        }
    }

    fn on_timer(&mut self, timer: Timer, ctx: &mut Ctx<'_>) {
        match timer.kind {
            TIMER_RING => {
                let ring = RingId::new((timer.a >> 8) as u16);
                let tag = timer.a & 0xff;
                let Some(t) = RingTimer::from_words(tag, timer.b) else {
                    return;
                };
                if matches!(t, RingTimer::Liveness) {
                    self.hobs.liveness_fires.inc();
                }
                let now = ctx.now();
                let mut out = Output::new();
                if let Some(node) = self.rings.get_mut(&ring) {
                    node.on_timer(t, now, &mut out);
                } else {
                    return;
                }
                self.out = out;
                self.drain_ring(ring, ctx);
            }
            TIMER_CHECKPOINT => {
                self.take_checkpoint(ctx);
                if let Some(interval) = self.opts.checkpoint_interval {
                    // Duty-cycle bound: a checkpoint whose serialization
                    // window ran long pushes the next one proportionally
                    // out, and the per-round spread keeps the replicas'
                    // windows from re-aligning.
                    let delay = interval.max(self.ckpt_cost * CKPT_DUTY_FACTOR);
                    ctx.schedule(self.ckpt_spread(delay), Timer::of_kind(TIMER_CHECKPOINT));
                }
            }
            TIMER_CHECKPOINT_STEP => {
                self.step_checkpoint(ctx);
            }
            TIMER_CHECKPOINT_DONE => {
                if let Some((seq, tuple)) = self.pending_ckpt.take() {
                    if seq == timer.a {
                        self.advertised = Some(tuple);
                        self.hobs
                            .ckpt_file_bytes
                            .set(self.ckpt_store.file_bytes() as i64);
                        // The checkpoint is durable: durability
                        // decorators may prune their logs to the cut
                        // they marked when the snapshot was taken.
                        self.app.checkpoint_durable();
                    } else {
                        self.pending_ckpt = Some((seq, tuple));
                    }
                }
            }
            TIMER_TRIM => {
                let ring = RingId::new(timer.a as u16);
                self.report_acceptor_logs();
                self.run_trim_round(ring, ctx);
                if let Some(interval) = self.opts.trim_interval {
                    ctx.schedule(interval, Timer::with(TIMER_TRIM, timer.a));
                }
            }
            TIMER_GAP => {
                // Gap healing for *live* learners: a ring reconfiguration
                // can lose circulating decisions at the removed member, so
                // any learner may find itself with buffered decisions
                // beyond an undelivered gap. Request retransmission from
                // the acceptors (round-robin).
                ctx.schedule(self.opts.recovery_retry, Timer::of_kind(TIMER_GAP));
                self.report_acceptor_logs();
                if self.recovery.is_recovering() {
                    return; // recovery's own retries handle gaps
                }
                let gaps: Vec<(RingId, InstanceId, InstanceId)> = self
                    .learner
                    .as_ref()
                    .map(|l| {
                        l.rings()
                            .into_iter()
                            .filter_map(|r| {
                                self.rings
                                    .get(&r)
                                    .and_then(|n| n.buffered_gap())
                                    .map(|(a, b)| (r, a, b))
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                for (ring, from, to) in gaps {
                    self.dbg(ctx, &format!("gap heal {ring} {from}..{to}"));
                    self.send_retransmit_request(ring, from, to, ctx);
                }
            }
            TIMER_RECOVERY => {
                if self.restart_recovery {
                    self.restart_recovery = false;
                    self.begin_recovery(ctx);
                    return;
                }
                match &self.recovery {
                    RecoveryPhase::Idle => {}
                    RecoveryPhase::QueryCheckpoints { .. } => {
                        // Quorum still outstanding: restart the query.
                        self.begin_recovery(ctx);
                    }
                    RecoveryPhase::Fetching { from, tuple } => {
                        let (from, tuple) = (*from, tuple.clone());
                        self.hobs.ckpt_fetches_sent.inc();
                        ctx.send(from, Msg::Recovery(RecoveryMsg::CheckpointFetch { tuple }));
                        ctx.schedule(self.opts.recovery_retry, Timer::of_kind(TIMER_RECOVERY));
                    }
                    RecoveryPhase::CatchUp => self.step_catch_up(ctx),
                }
            }
            _ => {}
        }
    }

    fn on_crash(&mut self, now: SimTime) {
        for node in self.rings.values_mut() {
            node.on_crash(now);
        }
        self.ckpt_store.crash(now);
        self.app.reset();
        self.learner = self
            .learner
            .as_ref()
            .map(|l| MergeLearner::new(&l.rings(), l.m()));
        self.advertised = None;
        self.pending_ckpt = None;
        self.active_ckpt = None;
        self.trims.clear();
        self.recovery = RecoveryPhase::Idle;
        self.restart_recovery = false;
        self.executed = 0;
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        // Rejoin every ring (as acceptor where we were one).
        let rings: Vec<RingId> = self.rings.keys().copied().collect();
        for ring in &rings {
            let as_acceptor = self.acceptor_of.contains(ring);
            let _ = self.registry.rejoin(*ring, self.me, as_acceptor);
        }
        for ring in rings {
            let mut out = Output::new();
            if let Some(node) = self.rings.get_mut(&ring) {
                let _ = node.on_restart(now, &mut out);
            }
            self.out = out;
            self.drain_ring(ring, ctx);
        }
        // Install our most recent durable checkpoint, then look for a
        // fresher one among partition peers.
        if let Some((tuple, state)) = self.ckpt_store.latest_durable(now) {
            self.install_snapshot(&tuple, &state);
        }
        self.begin_recovery(ctx);
        if let Some(interval) = self.opts.checkpoint_interval {
            ctx.schedule(self.ckpt_phase(interval), Timer::of_kind(TIMER_CHECKPOINT));
        }
        if let Some(interval) = self.opts.trim_interval {
            for ring in self.rings.keys() {
                ctx.schedule(interval, Timer::with(TIMER_TRIM, u64::from(ring.raw())));
            }
        }
        if self.learner.is_some() {
            ctx.schedule(self.opts.recovery_retry, Timer::of_kind(TIMER_GAP));
        }
    }
}
