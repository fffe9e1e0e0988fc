//! Layer replay: after the live phase, the same seed's command stream
//! runs in-process through each layer's public, sans-IO functions, each
//! call timed inside the benchmark's own spans.
//!
//! Nothing here opens a socket; only the WAL layer touches the disk.

use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use common::ids::{ClientId, InstanceId, NodeId, PartitionId, RequestId, RingId};
use common::msg::{Msg, RingMsg};
use common::transport::{encode_frame, FrameBuf};
use common::value::{Envelope, Payload, Value, SESSION_CTL};
use common::wire::client::ClientMsg;
use common::wire::Wire;
use common::{ids::Ballot, SimTime};
use coord::{Registry, RingConfig};
use liverun::{BatchOptions, Batcher, WalRecord};
use multiring::session::parse_open_reply;
use multiring::{MergeLearner, ServiceApp, SessionApp, SessionCtl, SessionLimits};
use ringpaxos::{Output, RingNode, RingOptions, RingTimer};
use storage::wal::{DecidedLog, SegmentedWal, SyncPolicy};

use crate::ops::{record_key, tagged_value, Gen, Hist, Mode};
use crate::sched::{Req, Source};
use crate::server::{BATCH_DELAY_MS, BATCH_MAX, BATCH_MAX_BYTES};
use crate::spec::{Mix, Workload, DATA_LOGS};

/// A timed span of the replay.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer function timed.
    pub name: &'static str,
    /// Start and end, nanoseconds since the replay began.
    pub start: u64,
    pub end: u64,
    /// Units of work inside the span (commands, instances, commits).
    pub units: u64,
}

/// Per-layer replay costs.
#[derive(Clone, Debug, Default)]
pub struct Costs {
    pub seal_ns_per_cmd: f64,
    pub encode_ns_per_op: f64,
    pub decode_ns_per_op: f64,
    pub round_us_per_instance: f64,
    pub merge_ns_per_delivery: f64,
    pub session_ns_per_cmd: f64,
    pub exec_ns_per_cmd: f64,
    /// Wall time of one group commit (stage + write + fdatasync).
    pub wal_commit_us: f64,
    /// CPU time of the WAL per record (staging, encoding, write call).
    pub wal_cpu_ns_per_record: f64,
    pub ckpt_us_per_mib: f64,
    /// Mean commands per sealed batch in the replay.
    pub cmds_per_batch: f64,
    /// The spans, for the trace file.
    pub spans: Vec<Span>,
    /// Commands replayed.
    pub commands: usize,
}

impl Costs {
    /// Server CPU per operation these layers explain, nanoseconds:
    /// one seal, one client frame and the per-op share of Phase 2 coding
    /// and of a ring round, plus merge, session table, execute and WAL
    /// staging on each of `replicas` replicas.
    pub fn explained_ns_per_op(&self, replicas: f64, wal: bool) -> f64 {
        let per_replica = self.merge_ns_per_delivery / self.cmds_per_batch.max(1.0)
            + self.session_ns_per_cmd.max(0.0)
            + self.exec_ns_per_cmd
            + if wal { self.wal_cpu_ns_per_record } else { 0.0 };
        self.seal_ns_per_cmd
            + self.encode_ns_per_op
            + self.decode_ns_per_op
            + self.round_us_per_instance * 1000.0 / self.cmds_per_batch.max(1.0)
            + replicas * per_replica
    }
}

/// On-CPU nanoseconds of the calling thread.
fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}

struct Timer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Timer {
    /// Runs `f`, records it as a span of `units`, returns ns per unit.
    fn time<R>(&mut self, name: &'static str, units: u64, f: impl FnOnce() -> R) -> (f64, R) {
        let start = self.origin.elapsed().as_nanos() as u64;
        let r = std::hint::black_box(f());
        let end = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start,
            end,
            units,
        });
        ((end - start) as f64 / units.max(1) as f64, r)
    }
}

fn envelope(req: &Req<Hist>, session: u64, seq: u64) -> Envelope {
    Envelope {
        client: ClientId::new(1000),
        req: RequestId::new(seq),
        reply_to: NodeId::new(0),
        session,
        ack: seq.saturating_sub(1),
        trace: 0,
        cmd: req.cmd.clone(),
    }
}

/// The service state one replica of partition 0 (or the dLog partition)
/// holds, with the YCSB table preloaded.
fn bare_app(w: &Workload, scheme: &mrpstore::Partitioning) -> Box<dyn ServiceApp> {
    match w.mix {
        Mix::DlogStream => Box::new(dlog::DlogApp::new(&(0..DATA_LOGS).collect::<Vec<_>>())),
        _ => {
            let mut app = mrpstore::KvApp::new(PartitionId::new(0), scheme.clone());
            if w.mix == Mix::YcsbA {
                for k in 0..crate::spec::YCSB_RECORDS {
                    app.preload(
                        record_key(k),
                        tagged_value(crate::ops::preload_tag(k), workloads::ycsb::RECORD_SIZE),
                    );
                }
            }
            Box::new(app)
        }
    }
}

/// Driver 0's request stream for `seed`: `n` scheduled requests plus the
/// check reads their replies ask for, replies taken from a scratch app.
fn stream(w: &Workload, seed: u64, n: usize, scheme: &mrpstore::Partitioning) -> Vec<Req<Hist>> {
    let mut gen = Gen::new(w.mix, seed, 0, scheme);
    gen.set_mode(Mode::Run);
    let mut app = bare_app(w, scheme);
    let mut reqs = Vec::with_capacity(n);
    let mut follow = Vec::new();
    while reqs.len() < n {
        let req = follow.pop().unwrap_or_else(|| gen.next());
        let reply = app.execute(req.ring, &envelope(&req, 0, 0));
        gen.on_reply(&req.hist, &reply, &mut follow);
        reqs.push(req);
    }
    reqs
}

/// Relays three in-memory ring members to quiescence.
struct Ring {
    nodes: Vec<RingNode>,
    decided: usize,
}

impl Ring {
    fn new() -> Ring {
        let registry = Registry::new();
        let members: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        registry
            .register_ring(
                RingConfig::new(RingId::new(0), members.clone(), members.clone())
                    .expect("ring config"),
            )
            .expect("register ring");
        let nodes = members
            .iter()
            .map(|m| {
                RingNode::new(
                    *m,
                    RingId::new(0),
                    registry.clone(),
                    RingOptions::crash_free(),
                )
                .expect("ring node")
            })
            .collect();
        let mut ring = Ring { nodes, decided: 0 };
        for i in 0..3 {
            let mut out = Output::new();
            ring.nodes[i].start(SimTime::ZERO, &mut out);
            ring.relay(i, out);
        }
        ring
    }

    fn propose(&mut self, value: Value) {
        let mut out = Output::new();
        self.nodes[0].propose(value, SimTime::ZERO, &mut out);
        self.relay(0, out);
    }

    fn relay(&mut self, origin: usize, out: Output) {
        let mut queue: VecDeque<(usize, NodeId, RingMsg)> = VecDeque::new();
        let mut timers: VecDeque<(usize, RingTimer)> = VecDeque::new();
        let take = |i: usize,
                    from: NodeId,
                    out: Output,
                    q: &mut VecDeque<_>,
                    t: &mut VecDeque<_>,
                    decided: &mut usize| {
            for (to, msg) in out.sends {
                q.push_back((to.raw() as usize, from, msg));
            }
            *decided += out.decided.len();
            for (_, timer) in out.timers {
                t.push_back((i, timer));
            }
        };
        let me = self.nodes[origin].me();
        take(origin, me, out, &mut queue, &mut timers, &mut self.decided);
        loop {
            let mut o = Output::new();
            let at = if let Some((to, from, msg)) = queue.pop_front() {
                self.nodes[to].on_msg(from, msg, SimTime::ZERO, &mut o);
                to
            } else if let Some((to, timer)) = timers.pop_front() {
                match timer {
                    RingTimer::WriteDone(_) | RingTimer::PromiseDone(_) | RingTimer::BatchFlush => {
                        self.nodes[to].on_timer(timer, SimTime::ZERO, &mut o);
                        to
                    }
                    _ => continue,
                }
            } else {
                break;
            };
            let me = self.nodes[at].me();
            take(at, me, o, &mut queue, &mut timers, &mut self.decided);
        }
    }
}

/// Replays `w`'s stream for `seed` through every layer; scratch files go
/// under `scratch`.
pub fn replay(w: &Workload, seed: u64, scratch: &Path) -> Result<Costs, String> {
    let scheme = mrpstore::Partitioning::Hash { partitions: 2 };
    let cmd_bytes = match w.mix {
        Mix::YcsbA => 520,
        Mix::Counters => 32,
        Mix::DlogStream => crate::spec::APPEND_BYTES,
    };
    let n = (16 << 20) / cmd_bytes;
    let n = n.clamp(2_000, 30_000);
    let reqs = stream(w, seed, n, &scheme);
    let mut t = Timer {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let mut c = Costs {
        commands: reqs.len(),
        ..Costs::default()
    };
    let units = reqs.len() as u64;

    // Batcher: commands arrive at the offered rate; batches seal on
    // count, bytes or the timer, exactly as on a node loop.
    let envs: Vec<Envelope> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| envelope(r, 1, i as u64 + 1))
        .collect();
    let gap = Duration::from_secs_f64(crate::spec::DRIVERS as f64 / w.rate);
    let (seal, batches) = t.time("batch.seal", units, || {
        let mut b = Batcher::new(BatchOptions {
            max_envelopes: BATCH_MAX,
            max_bytes: BATCH_MAX_BYTES,
            max_delay: Duration::from_millis(BATCH_DELAY_MS),
        });
        let t0 = Instant::now();
        let mut sealed: Vec<(RingId, Vec<Envelope>)> = Vec::new();
        for (i, (r, e)) in reqs.iter().zip(&envs).enumerate() {
            let now = t0 + gap * i as u32;
            sealed.extend(b.take_due(now));
            if let Some(batch) = b.push(r.ring, e.clone(), now) {
                sealed.push((r.ring, batch));
            }
        }
        sealed.extend(b.take_all());
        sealed
    });
    c.seal_ns_per_cmd = seal;
    c.cmds_per_batch = units as f64 / batches.len().max(1) as f64;

    // Wire: client RequestV2 frames per command, Phase 2 per sealed batch.
    let frames: Vec<ClientMsg> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| ClientMsg::RequestV2 {
            session: 1,
            seq: RequestId::new(i as u64 + 1),
            ack: i as u64,
            group: r.ring,
            cmd: r.cmd.clone(),
        })
        .collect();
    let values: Vec<(RingId, Value)> = batches
        .iter()
        .enumerate()
        .map(|(i, (ring, b))| {
            (
                *ring,
                Value::app(
                    NodeId::new(0),
                    i as u64,
                    Payload::Batch(b.clone()).to_bytes(),
                ),
            )
        })
        .collect();
    let p2 = |ring: RingId, value: &Value, i: usize| {
        Msg::Ring(
            ring,
            RingMsg::Phase2 {
                inst: InstanceId::new(i as u64),
                ballot: Ballot::new(1, NodeId::new(0)),
                value: value.clone(),
                votes: 1,
                ttl: 2,
            },
        )
    };
    let (enc_client, encoded) = t.time("wire.encode.client", units, || {
        frames.iter().map(encode_frame).collect::<Vec<Bytes>>()
    });
    let (enc_p2, p2_bytes) = t.time("wire.encode.phase2", units, || {
        values
            .iter()
            .enumerate()
            .map(|(i, (r, v))| p2(*r, v, i).to_bytes())
            .collect::<Vec<Bytes>>()
    });
    let (dec_client, decoded) = t.time("wire.decode.client", units, || {
        let mut buf = FrameBuf::new();
        let mut n = 0usize;
        for f in &encoded {
            buf.extend(f);
            while let Ok(Some(_)) = buf.try_next::<ClientMsg>() {
                n += 1;
            }
        }
        n
    });
    let (dec_p2, _) = t.time("wire.decode.phase2", units, || {
        p2_bytes
            .iter()
            .map(|b| Msg::decode(&mut b.clone()).map(|_| 1usize).unwrap_or(0))
            .sum::<usize>()
    });
    if decoded != frames.len() {
        return Err(format!(
            "replay: {decoded} of {} client frames decoded",
            frames.len()
        ));
    }
    c.encode_ns_per_op = enc_client + enc_p2;
    c.decode_ns_per_op = dec_client + dec_p2;

    // Ring: three members, every sealed batch proposed at the coordinator.
    let mut ring = Ring::new();
    let (round, decided) = t.time("ring.round", values.len() as u64, || {
        for (_, v) in &values {
            ring.propose(v.clone());
        }
        ring.decided
    });
    if decided < values.len() {
        return Err(format!(
            "replay: ring decided {decided} of {} values",
            values.len()
        ));
    }
    c.round_us_per_instance = round / 1000.0;

    // Merge: the deterministic merge over the partition's rings, idle
    // rings filling their turns with one-instance skips (rate leveling).
    let rings: Vec<RingId> = match w.mix {
        Mix::DlogStream => (0..=DATA_LOGS).map(RingId::new).collect(),
        _ => vec![RingId::new(0), RingId::new(2)],
    };
    let mut queues: BTreeMap<RingId, VecDeque<Value>> =
        rings.iter().map(|r| (*r, VecDeque::new())).collect();
    for (r, v) in &values {
        if let Some(q) = queues.get_mut(r) {
            q.push_back(v.clone());
        }
    }
    let deliveries = values
        .iter()
        .filter(|(r, _)| queues.contains_key(r))
        .count() as u64;
    let (merge, delivered) = t.time("merge.push_pop", deliveries, || {
        let mut m = MergeLearner::new(&rings, 1);
        let mut next: BTreeMap<RingId, u64> = rings.iter().map(|r| (*r, 0)).collect();
        let mut delivered = 0u64;
        while queues.values().any(|q| !q.is_empty()) {
            for r in &rings {
                let v = queues
                    .get_mut(r)
                    .and_then(VecDeque::pop_front)
                    .unwrap_or_else(|| Value::skip(NodeId::new(0), 0, 1));
                let inst = next.get_mut(r).expect("ring tracked");
                m.push(*r, InstanceId::new(*inst), v);
                *inst += 1;
            }
            while let Some(d) = m.pop() {
                std::hint::black_box(&d);
                delivered += 1;
            }
        }
        delivered
    });
    if delivered != deliveries {
        return Err(format!(
            "replay: merge delivered {delivered} of {deliveries}"
        ));
    }
    c.merge_ns_per_delivery = merge;

    // Execute: the bare service, then the same stream under a session.
    let mut bare = bare_app(w, &scheme);
    let (exec, _) = t.time("exec.execute", units, || {
        for (r, e) in reqs.iter().zip(&envs) {
            std::hint::black_box(bare.execute(r.ring, e));
        }
    });
    c.exec_ns_per_cmd = exec;
    let limits = SessionLimits {
        max_cached: 256,
        ..SessionLimits::default()
    };
    let mut sess = SessionApp::with_limits(bare_app(w, &scheme), limits);
    let home = reqs.first().map_or(RingId::new(0), |r| r.ring);
    let open = Envelope {
        session: SESSION_CTL,
        cmd: SessionCtl::Open {
            token: 1,
            ttl_ms: 60_000,
        }
        .to_bytes(),
        ..envelope(&reqs[0], SESSION_CTL, 1)
    };
    let session =
        parse_open_reply(&sess.execute(home, &open)).ok_or("replay: session open refused")?;
    let envs_s: Vec<Envelope> = envs
        .iter()
        .map(|e| Envelope {
            session,
            ..e.clone()
        })
        .collect();
    let (with_session, _) = t.time("session.execute", units, || {
        for (r, e) in reqs.iter().zip(&envs_s) {
            std::hint::black_box(sess.execute(r.ring, e));
        }
    });
    c.session_ns_per_cmd = with_session - exec;

    // Checkpoint: cut the executed state and serialize it in chunks.
    let (ckpt_ns, bytes) = t.time("ckpt.cut_write", 1, || {
        let mut cut = bare.snapshot_cut();
        let mut buf = BytesMut::new();
        while cut.write_chunk(&mut buf, 256 * 1024) {}
        buf.len()
    });
    c.ckpt_us_per_mib = ckpt_ns / 1000.0 / (bytes.max(1) as f64 / f64::from(1u32 << 20));

    // WAL: one group commit per sealed batch, fdatasync each, up to a
    // time budget.
    let dir = scratch.join(format!("replay-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut wal =
        SegmentedWal::open(&dir, SyncPolicy::EveryWrite, 4096).map_err(|e| e.to_string())?;
    let budget = Instant::now() + Duration::from_millis(1500);
    let cpu0 = thread_cpu_ns();
    let (mut commits, mut records, mut pos) = (0u64, 0u64, 0u64);
    let (commit_ns, _) = t.time("wal.append_commit", 1, || {
        for (ring, batch) in &batches {
            for env in batch {
                let rec = WalRecord {
                    ring: *ring,
                    env: env.clone(),
                };
                wal.stage(pos, &mut |buf| rec.encode(buf));
                pos += 1;
                records += 1;
            }
            wal.commit().expect("wal commit");
            commits += 1;
            if Instant::now() >= budget {
                break;
            }
        }
    });
    let cpu = thread_cpu_ns().saturating_sub(cpu0);
    if let Some(s) = t.spans.last_mut() {
        s.units = commits;
    }
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
    c.wal_commit_us = commit_ns / commits.max(1) as f64 / 1000.0;
    c.wal_cpu_ns_per_record = cpu as f64 / records.max(1) as f64;
    c.spans = t.spans;
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_layer_replays_a_short_stream() {
        let dir = Path::new(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../.amcbench/test-replay"
        ));
        for w in &crate::spec::WORKLOADS {
            let c = replay(w, 3, dir).expect("replay succeeds");
            assert!(
                c.exec_ns_per_cmd > 0.0 && c.round_us_per_instance > 0.0,
                "{}: {c:?}",
                w.name
            );
            assert!(c.cmds_per_batch >= 1.0);
            assert!(c.wal_commit_us > 0.0);
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}
