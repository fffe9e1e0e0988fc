//! Seeded request generation for each workload mix.
//!
//! Every value a write carries is tagged with `(driver, seq)`, so the
//! output checks can tell which write a read observed.

use bytes::{BufMut, Bytes, BytesMut};
use common::ids::RingId;
use common::wire::Wire;
use dlog::{LogCommand, LogResponse};
use mrpstore::{KvCommand, KvResponse, Partitioning};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use workloads::{KeyChooser, ScrambledZipfian, Uniform};

use crate::sched::{Class, Req, Source};
use crate::spec::{Mix, APPEND_BYTES, COUNTERS, DATA_LOGS, YCSB_RECORDS};

/// What the checkers keep about one request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Hist {
    /// A KV write of a tagged record (preload insert or YCSB update).
    Put { key: u32, tag: u64 },
    /// A KV read of a record.
    Get { key: u32 },
    /// A counter increment.
    Add { key: u32, delta: u64 },
    /// A counter read (class `Check` for the final sweep).
    Count { key: u32 },
    /// A single- (`logs[1] == NO_LOG`) or multi-log append.
    Append { logs: [u16; 2], tag: u64 },
    /// A log read expecting the value tagged `tag`.
    LogRead { log: u16, pos: u64, tag: u64 },
    /// A log trim.
    Trim { log: u16, pos: u64 },
}

/// Placeholder for the unused second log of a single append.
pub const NO_LOG: u16 = u16::MAX;

/// Tag of the value preloaded under `key`.
pub fn preload_tag(key: u32) -> u64 {
    u64::from(key)
}

/// The record key named `key`.
pub fn record_key(key: u32) -> String {
    format!("user{key}")
}

/// The counter key named `key`.
pub fn counter_key(key: u32) -> String {
    format!("ctr{key}")
}

/// A tagged value of `len` bytes: tag, then a filler the tag seeds.
pub fn tagged_value(tag: u64, len: usize) -> Bytes {
    let mut buf = BytesMut::with_capacity(len.max(8));
    buf.put_u64_le(tag);
    let fill = tag.to_le_bytes()[0];
    for i in 8..len {
        buf.put_u8(fill.wrapping_add(i as u8));
    }
    buf.freeze()
}

/// The tag of a value, when it is long enough to carry one.
pub fn tag_of(value: &[u8]) -> Option<u64> {
    value
        .get(..8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
}

/// Decodes a counter value (8-byte little endian; absent reads as 0).
pub fn counter_of(reply: &Bytes) -> Option<u64> {
    match KvResponse::decode(&mut reply.clone()).ok()? {
        KvResponse::Value(Some(v)) => v
            .get(..8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes"))),
        KvResponse::Value(None) => Some(0),
        _ => None,
    }
}

/// The tag a KV read observed (`None` for anything but a tagged value).
pub fn read_tag(reply: &Bytes) -> Option<u64> {
    match KvResponse::decode(&mut reply.clone()).ok()? {
        KvResponse::Value(Some(v)) => tag_of(&v),
        _ => None,
    }
}

/// `(log, position)` pairs of an append reply.
pub fn appended(reply: &Bytes) -> Option<Vec<(u16, u64)>> {
    match LogResponse::decode(&mut reply.clone()).ok()? {
        LogResponse::Appended(p) => Some(p),
        _ => None,
    }
}

/// The tag a log read observed.
pub fn log_read_tag(reply: &Bytes) -> Option<u64> {
    match LogResponse::decode(&mut reply.clone()).ok()? {
        LogResponse::Value(Some(v)) => tag_of(&v),
        _ => None,
    }
}

/// Positions kept readable behind each log's head before the tail
/// reader trims.
pub const TRIM_WINDOW: u64 = 512;

/// What the generator is producing right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Load the initial YCSB table (one insert per owned record).
    Preload,
    /// The workload's own mix.
    Run,
    /// Read every owned counter once (the final output check).
    Final,
}

/// One driver's seeded request stream.
pub struct Gen {
    mix: Mix,
    driver: u8,
    rng: StdRng,
    seq: u64,
    mode: Mode,
    /// Keys (record or counter indexes) this driver owns, ascending.
    owned: Vec<u32>,
    /// Sweep cursor over `owned` for preload and the final read.
    cursor: usize,
    zipf: ScrambledZipfian,
    uniform: Uniform,
    /// Owner driver of each key index.
    owner: Vec<u8>,
    /// dLog: ops generated, newest acked own append per log, trim point.
    ops: u64,
    recent: Vec<Option<(u64, u64)>>,
    trimmed: Vec<u64>,
    head: Vec<u64>,
}

impl Gen {
    /// The stream of driver `driver` for `mix`, seeded by `seed`. For
    /// KV mixes the driver owns the keys of partition
    /// `driver` under `scheme`.
    pub fn new(mix: Mix, seed: u64, driver: u8, scheme: &Partitioning) -> Self {
        let keys = match mix {
            Mix::YcsbA => YCSB_RECORDS,
            Mix::Counters => COUNTERS,
            Mix::DlogStream => 0,
        };
        let owner: Vec<u8> = (0..keys)
            .map(|k| {
                let name = match mix {
                    Mix::YcsbA => record_key(k),
                    _ => counter_key(k),
                };
                scheme.partition_of(&name).raw() as u8
            })
            .collect();
        let owned = (0..keys).filter(|k| owner[*k as usize] == driver).collect();
        let logs = usize::from(DATA_LOGS);
        Gen {
            mix,
            driver,
            rng: StdRng::seed_from_u64(
                seed ^ (u64::from(driver) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            seq: 0,
            mode: if mix == Mix::YcsbA {
                Mode::Preload
            } else {
                Mode::Run
            },
            owned,
            cursor: 0,
            zipf: ScrambledZipfian::new(u64::from(keys.max(1))),
            uniform: Uniform::new(u64::from(keys.max(1))),
            owner,
            ops: 0,
            recent: vec![None; logs],
            trimmed: vec![0; logs],
            head: vec![0; logs],
        }
    }

    /// Switches mode (and restarts the key sweep).
    pub fn set_mode(&mut self, mode: Mode) {
        self.mode = mode;
        self.cursor = 0;
    }

    /// Requests left in a sweep mode (preload / final read).
    pub fn sweep_left(&self) -> usize {
        self.owned.len() - self.cursor
    }

    fn tag(&mut self) -> u64 {
        self.seq += 1;
        (u64::from(self.driver) + 1) << 48 | self.seq
    }

    fn owned_key(&mut self, zipfian: bool) -> u32 {
        loop {
            let k = if zipfian {
                self.zipf.next_key(&mut self.rng)
            } else {
                self.uniform.next_key(&mut self.rng)
            } as u32;
            if self.owner[k as usize] == self.driver {
                return k;
            }
        }
    }

    fn kv(&self, cmd: KvCommand, class: Class, hist: Hist) -> Req<Hist> {
        Req {
            ring: RingId::new(u16::from(self.driver)),
            cmd: cmd.to_bytes(),
            class,
            hist,
        }
    }

    fn sweep(&mut self) -> Req<Hist> {
        let key = self.owned[self.cursor.min(self.owned.len() - 1)];
        self.cursor += 1;
        match (self.mode, self.mix) {
            (Mode::Preload, _) => {
                let tag = preload_tag(key);
                self.kv(
                    KvCommand::Insert {
                        key: record_key(key),
                        value: tagged_value(tag, workloads::ycsb::RECORD_SIZE),
                    },
                    Class::Check,
                    Hist::Put { key, tag },
                )
            }
            _ => self.kv(
                KvCommand::Read {
                    key: counter_key(key),
                },
                Class::Check,
                Hist::Count { key },
            ),
        }
    }

    fn ycsb(&mut self) -> Req<Hist> {
        let key = self.owned_key(true);
        if self.rng.random_bool(0.5) {
            self.kv(
                KvCommand::Read {
                    key: record_key(key),
                },
                Class::Single,
                Hist::Get { key },
            )
        } else {
            let tag = self.tag();
            self.kv(
                KvCommand::Update {
                    key: record_key(key),
                    value: tagged_value(tag, workloads::ycsb::RECORD_SIZE),
                },
                Class::Single,
                Hist::Put { key, tag },
            )
        }
    }

    fn counters(&mut self) -> Req<Hist> {
        let key = self.owned_key(false);
        if self.rng.random_bool(0.8) {
            let delta = self.rng.random_range(1..10u64);
            self.kv(
                KvCommand::Add {
                    key: counter_key(key),
                    delta,
                },
                Class::Single,
                Hist::Add { key, delta },
            )
        } else {
            self.kv(
                KvCommand::Read {
                    key: counter_key(key),
                },
                Class::Single,
                Hist::Count { key },
            )
        }
    }

    fn dlog(&mut self) -> Req<Hist> {
        self.ops += 1;
        let logs = u64::from(DATA_LOGS);
        // The tail reader: every 64th op trims one log behind its
        // window, every 16th reads back a recent own append.
        if self.ops.is_multiple_of(64) {
            let log = ((self.ops / 64) % logs) as u16;
            let l = usize::from(log);
            let pos = self.head[l].saturating_sub(TRIM_WINDOW);
            if pos > self.trimmed[l] {
                self.trimmed[l] = pos;
                return log_req(
                    log,
                    LogCommand::Trim { log, pos },
                    Class::Single,
                    Hist::Trim { log, pos },
                );
            }
        }
        if self.ops.is_multiple_of(16) {
            let log = self.rng.random_range(0..logs) as u16;
            if let Some((pos, tag)) = self.recent[usize::from(log)] {
                if pos >= self.trimmed[usize::from(log)] {
                    return log_req(
                        log,
                        LogCommand::Read { log, pos },
                        Class::Single,
                        Hist::LogRead { log, pos, tag },
                    );
                }
            }
        }
        let tag = self.tag();
        let value = tagged_value(tag, APPEND_BYTES);
        if self.rng.random_range(0..8u64) == 0 {
            let a = self.rng.random_range(0..logs) as u16;
            let b = ((u64::from(a) + self.rng.random_range(1..logs)) % logs) as u16;
            Req {
                ring: RingId::new(DATA_LOGS),
                cmd: LogCommand::MultiAppend {
                    logs: vec![a, b],
                    value,
                }
                .to_bytes(),
                class: Class::Multi,
                hist: Hist::Append { logs: [a, b], tag },
            }
        } else {
            let log = self.rng.random_range(0..logs) as u16;
            log_req(
                log,
                LogCommand::Append { log, value },
                Class::Single,
                Hist::Append {
                    logs: [log, NO_LOG],
                    tag,
                },
            )
        }
    }
}

fn log_req(log: u16, cmd: LogCommand, class: Class, hist: Hist) -> Req<Hist> {
    Req {
        ring: RingId::new(log),
        cmd: cmd.to_bytes(),
        class,
        hist,
    }
}

impl Source for Gen {
    type Hist = Hist;

    fn next(&mut self) -> Req<Hist> {
        match (self.mode, self.mix) {
            (Mode::Preload | Mode::Final, _) => self.sweep(),
            (Mode::Run, Mix::YcsbA) => self.ycsb(),
            (Mode::Run, Mix::Counters) => self.counters(),
            (Mode::Run, Mix::DlogStream) => self.dlog(),
        }
    }

    fn on_reply(&mut self, hist: &Hist, reply: &Bytes, out: &mut Vec<Req<Hist>>) {
        let Hist::Append { logs, tag } = hist else {
            return;
        };
        let Some(positions) = appended(reply) else {
            return;
        };
        for (log, pos) in positions {
            let l = usize::from(log);
            if l >= self.head.len() {
                continue;
            }
            self.head[l] = self.head[l].max(pos + 1);
            self.recent[l] = Some((pos, *tag));
            // Every multi-append is read back in both logs, right away
            // (well inside the trim window).
            if logs[1] != NO_LOG {
                out.push(log_req(
                    log,
                    LogCommand::Read { log, pos },
                    Class::Check,
                    Hist::LogRead {
                        log,
                        pos,
                        tag: *tag,
                    },
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let scheme = Partitioning::Hash { partitions: 2 };
        for mix in [Mix::YcsbA, Mix::Counters, Mix::DlogStream] {
            let mut a = Gen::new(mix, 7, 1, &scheme);
            let mut b = Gen::new(mix, 7, 1, &scheme);
            a.set_mode(Mode::Run);
            b.set_mode(Mode::Run);
            for _ in 0..500 {
                let (x, y) = (a.next(), b.next());
                assert_eq!((x.ring, x.cmd, x.hist), (y.ring, y.cmd, y.hist));
            }
        }
    }

    #[test]
    fn kv_drivers_own_disjoint_keys_of_their_partition() {
        let scheme = Partitioning::Hash { partitions: 2 };
        let a = Gen::new(Mix::Counters, 1, 0, &scheme);
        let b = Gen::new(Mix::Counters, 1, 1, &scheme);
        assert_eq!(a.owned.len() + b.owned.len(), COUNTERS as usize);
        assert!(a.owned.iter().all(|k| !b.owned.contains(k)));
        let mut a = a;
        for _ in 0..200 {
            assert_eq!(a.next().ring, RingId::new(0));
        }
    }

    #[test]
    fn tags_round_trip() {
        let v = tagged_value(0x1_0000_0000_002a, 1000);
        assert_eq!(v.len(), 1000);
        assert_eq!(tag_of(&v), Some(0x1_0000_0000_002a));
    }
}
