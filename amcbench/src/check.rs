//! Output checks over a run's whole request history.
//!
//! Each checker returns the number of violations it found; every
//! violation fails the run and counts in `failed`. The checks are sound
//! for concurrent histories: they never flag an outcome some ordering
//! consistent with real time allows.

use std::collections::{BTreeMap, HashMap, HashSet};

use common::wire::Wire as _;

use crate::ops::{appended, counter_of, log_read_tag, preload_tag, read_tag, Hist, NO_LOG};
use crate::sched::{Class, Record};

/// YCSB-A: every read returns the latest acked write of its key or one
/// that may still have been in flight. A read `r` observing write `w` is
/// stale when some write `w'` started after `w` was acked and was
/// itself acked before `r` started.
pub fn check_register(history: &[Record<Hist>], preloaded: bool) -> usize {
    // Per key: writes as (tag, sent, done).
    let mut writes: HashMap<u32, Vec<(u64, u64, Option<u64>)>> = HashMap::new();
    for r in history {
        if let Hist::Put { key, tag } = r.hist {
            writes.entry(key).or_default().push((tag, r.sent, r.done));
        }
    }
    // Per key: acked writes sorted by ack time, with the running maximum
    // of their start times.
    let mut acked: HashMap<u32, (Vec<u64>, Vec<u64>)> = HashMap::new();
    for (key, ws) in &writes {
        let mut by_done: Vec<(u64, u64)> = ws
            .iter()
            .filter_map(|(_, s, d)| d.map(|d| (d, *s)))
            .collect();
        by_done.sort_unstable();
        let mut run = 0;
        let maxes = by_done
            .iter()
            .map(|(_, s)| {
                run = run.max(*s);
                run
            })
            .collect();
        acked.insert(*key, (by_done.iter().map(|(d, _)| *d).collect(), maxes));
    }
    let mut bad = 0;
    for r in history {
        let Hist::Get { key } = r.hist else { continue };
        let Some(reply) = &r.reply else { continue };
        let Some(tag) = read_tag(reply) else {
            bad += 1;
            continue;
        };
        let observed = writes
            .get(&key)
            .and_then(|ws| ws.iter().find(|(t, _, _)| *t == tag))
            .map(|(_, s, d)| (*s, *d))
            .or_else(|| (preloaded && tag == preload_tag(key)).then_some((0, Some(0))));
        let Some((w_sent, w_done)) = observed else {
            bad += 1; // a value nobody wrote
            continue;
        };
        if r.done.is_some_and(|d| w_sent > d) {
            bad += 1; // a write from the future
            continue;
        }
        let Some(w_done) = w_done else { continue };
        if let Some((dones, maxes)) = acked.get(&key) {
            let n = dones.partition_point(|d| *d < r.sent);
            if n > 0 && maxes[n - 1] > w_done {
                bad += 1; // overwritten before the read began
            }
        }
    }
    bad
}

/// Counters: each in-stream read lies between the adds acked before it
/// started and the adds sent before it finished; the final read of each
/// counter (class `Check`) equals its acked adds, up to adds that never
/// got an answer.
pub fn check_counters(history: &[Record<Hist>]) -> usize {
    let mut adds: HashMap<u32, Vec<(u64, u64, Option<u64>)>> = HashMap::new();
    for r in history {
        if let Hist::Add { key, delta } = r.hist {
            adds.entry(key).or_default().push((delta, r.sent, r.done));
        }
    }
    let mut finals: HashSet<u32> = HashSet::new();
    let mut bad = 0;
    for r in history {
        let Hist::Count { key } = r.hist else {
            continue;
        };
        let Some(reply) = &r.reply else { continue };
        let Some(v) = counter_of(reply) else {
            bad += 1;
            continue;
        };
        let ws = adds.get(&key).map(Vec::as_slice).unwrap_or(&[]);
        let (lo, hi) = if r.class == Class::Check {
            finals.insert(key);
            let acked: u64 = ws.iter().filter(|w| w.2.is_some()).map(|w| w.0).sum();
            let lost: u64 = ws.iter().filter(|w| w.2.is_none()).map(|w| w.0).sum();
            (acked, acked + lost)
        } else {
            let done = r.done.unwrap_or(u64::MAX);
            let lo = ws
                .iter()
                .filter(|w| w.2.is_some_and(|d| d < r.sent))
                .map(|w| w.0)
                .sum();
            let hi = ws.iter().filter(|w| w.1 < done).map(|w| w.0).sum();
            (lo, hi)
        };
        if v < lo || v > hi {
            bad += 1;
        }
    }
    // Every counter that was added to must have had its final read.
    bad + adds.keys().filter(|k| !finals.contains(k)).count()
}

/// dLog: positions are unique and dense per log (gaps only where an
/// append went unanswered), every multi-append was read back in both
/// of its logs, and every read returned the value appended there.
pub fn check_log(history: &[Record<Hist>]) -> usize {
    let mut bad = 0;
    let mut seen: BTreeMap<u16, Vec<u64>> = BTreeMap::new();
    let mut unanswered: BTreeMap<u16, u64> = BTreeMap::new();
    let mut multi: HashMap<u64, Vec<(u16, u64)>> = HashMap::new();
    for r in history {
        let Hist::Append { logs, tag } = r.hist else {
            continue;
        };
        let targets: Vec<u16> = logs.iter().copied().filter(|l| *l != NO_LOG).collect();
        let Some(reply) = &r.reply else {
            for l in targets {
                *unanswered.entry(l).or_default() += 1;
            }
            continue;
        };
        let Some(pos) = appended(reply) else {
            bad += 1;
            continue;
        };
        let logs_got: Vec<u16> = pos.iter().map(|(l, _)| *l).collect();
        if logs_got != targets {
            bad += 1;
        }
        for (l, p) in &pos {
            seen.entry(*l).or_default().push(*p);
        }
        if targets.len() > 1 {
            multi.insert(tag, pos);
        }
    }
    for (log, ps) in &mut seen {
        ps.sort_unstable();
        let n = ps.len();
        ps.dedup();
        bad += n - ps.len(); // duplicate positions
        let span = ps.last().map_or(0, |m| m + 1);
        let gaps = span - ps.len() as u64;
        if gaps > unanswered.get(log).copied().unwrap_or(0) {
            bad += 1;
        }
    }
    let mut read_back: HashSet<(u16, u64, u64)> = HashSet::new();
    for r in history {
        let Hist::LogRead { log, pos, tag } = r.hist else {
            continue;
        };
        let Some(reply) = &r.reply else { continue };
        if log_read_tag(reply) == Some(tag) {
            read_back.insert((log, pos, tag));
        } else {
            bad += 1;
        }
    }
    for (tag, pos) in &multi {
        for (l, p) in pos {
            if !read_back.contains(&(*l, *p, *tag)) {
                bad += 1;
            }
        }
    }
    bad
}

/// Requests that never got an answer, or whose submit failed.
pub fn unanswered(history: &[Record<Hist>]) -> usize {
    history.iter().filter(|r| r.done.is_none()).count()
}

/// Requests the service refused: an error payload where a result was due.
pub fn refused(history: &[Record<Hist>]) -> usize {
    history
        .iter()
        .filter(|r| {
            let Some(reply) = &r.reply else { return false };
            match r.hist {
                Hist::Put { .. } => !matches!(
                    mrpstore::KvResponse::decode(&mut reply.clone()),
                    Ok(mrpstore::KvResponse::Ok)
                ),
                Hist::Add { .. } => !matches!(
                    mrpstore::KvResponse::decode(&mut reply.clone()),
                    Ok(mrpstore::KvResponse::Counter(_))
                ),
                Hist::Trim { .. } => !matches!(
                    dlog::LogResponse::decode(&mut reply.clone()),
                    Ok(dlog::LogResponse::Ok)
                ),
                _ => false,
            }
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::tagged_value;
    use bytes::Bytes;
    use common::wire::Wire;
    use dlog::LogResponse;
    use mrpstore::KvResponse;

    fn rec(
        hist: Hist,
        sent: u64,
        done: Option<u64>,
        reply: Option<Bytes>,
        class: Class,
    ) -> Record<Hist> {
        Record {
            due: sent,
            sent,
            done,
            class,
            hist,
            reply,
            refused: false,
        }
    }

    fn kv(resp: KvResponse) -> Option<Bytes> {
        Some(resp.to_bytes())
    }

    fn value(tag: u64) -> Option<Bytes> {
        kv(KvResponse::Value(Some(tagged_value(tag, 64))))
    }

    fn counter(v: u64) -> Option<Bytes> {
        kv(KvResponse::Value(Some(Bytes::copy_from_slice(
            &v.to_le_bytes(),
        ))))
    }

    fn put(key: u32, tag: u64, s: u64, d: u64) -> Record<Hist> {
        rec(
            Hist::Put { key, tag },
            s,
            Some(d),
            kv(KvResponse::Ok),
            Class::Single,
        )
    }

    fn get(key: u32, tag: u64, s: u64, d: u64) -> Record<Hist> {
        rec(Hist::Get { key }, s, Some(d), value(tag), Class::Single)
    }

    #[test]
    fn register_accepts_latest_and_in_flight_writes() {
        let h = vec![
            put(1, 10, 0, 5),
            put(1, 11, 6, 20),
            // Concurrent with write 11: either value is fine.
            get(1, 10, 8, 9),
            get(1, 11, 8, 9),
            // After 11 was acked, 11 it is.
            get(1, 11, 21, 22),
            // The preloaded value, before any write was acked.
            get(2, preload_tag(2), 1, 2),
        ];
        assert_eq!(check_register(&h, true), 0);
    }

    #[test]
    fn register_rejects_a_stale_read() {
        let h = vec![put(1, 10, 0, 5), put(1, 11, 6, 20), get(1, 10, 21, 22)];
        assert_eq!(check_register(&h, true), 1);
    }

    #[test]
    fn register_rejects_a_value_nobody_wrote() {
        let h = vec![put(1, 10, 0, 5), get(1, 99, 21, 22)];
        assert_eq!(check_register(&h, true), 1);
    }

    fn add(key: u32, delta: u64, s: u64, d: Option<u64>) -> Record<Hist> {
        let reply = d.map(|_| KvResponse::Counter(0).to_bytes());
        rec(Hist::Add { key, delta }, s, d, reply, Class::Single)
    }

    fn final_read(key: u32, v: u64) -> Record<Hist> {
        rec(
            Hist::Count { key },
            100,
            Some(101),
            counter(v),
            Class::Check,
        )
    }

    #[test]
    fn counters_accept_exact_finals_and_timed_out_adds_either_way() {
        let h = vec![
            add(1, 2, 0, Some(1)),
            add(1, 3, 2, Some(3)),
            add(1, 4, 4, None), // timed out: may or may not have applied
            rec(
                Hist::Count { key: 1 },
                3,
                Some(4),
                counter(5),
                Class::Single,
            ),
            final_read(1, 9),
        ];
        assert_eq!(check_counters(&h), 0);
        let mut h2 = h.clone();
        h2[4] = final_read(1, 5);
        assert_eq!(check_counters(&h2), 0);
    }

    #[test]
    fn counters_reject_a_lost_add() {
        let h = vec![
            add(1, 2, 0, Some(1)),
            add(1, 3, 2, Some(3)),
            final_read(1, 2),
        ];
        assert_eq!(check_counters(&h), 1);
    }

    #[test]
    fn counters_reject_a_duplicated_add() {
        let h = vec![
            add(1, 2, 0, Some(1)),
            add(1, 3, 2, Some(3)),
            final_read(1, 8),
        ];
        assert_eq!(check_counters(&h), 1);
    }

    #[test]
    fn counters_reject_a_stale_in_stream_read() {
        let h = vec![
            add(1, 2, 0, Some(1)),
            rec(
                Hist::Count { key: 1 },
                5,
                Some(6),
                counter(0),
                Class::Single,
            ),
            final_read(1, 2),
        ];
        assert_eq!(check_counters(&h), 1);
    }

    fn append(logs: [u16; 2], tag: u64, pos: &[(u16, u64)], class: Class) -> Record<Hist> {
        let reply = LogResponse::Appended(pos.to_vec()).to_bytes();
        rec(Hist::Append { logs, tag }, 0, Some(1), Some(reply), class)
    }

    fn log_read(log: u16, pos: u64, tag: u64, got: Option<u64>) -> Record<Hist> {
        let reply = LogResponse::Value(got.map(|t| tagged_value(t, 64))).to_bytes();
        rec(
            Hist::LogRead { log, pos, tag },
            2,
            Some(3),
            Some(reply),
            Class::Check,
        )
    }

    fn good_log() -> Vec<Record<Hist>> {
        vec![
            append([0, NO_LOG], 1, &[(0, 0)], Class::Single),
            append([0, 1], 2, &[(0, 1), (1, 0)], Class::Multi),
            append([1, NO_LOG], 3, &[(1, 1)], Class::Single),
            log_read(0, 1, 2, Some(2)),
            log_read(1, 0, 2, Some(2)),
        ]
    }

    #[test]
    fn log_accepts_dense_unique_positions_read_back() {
        assert_eq!(check_log(&good_log()), 0);
    }

    #[test]
    fn log_rejects_a_gap() {
        let mut h = good_log();
        h[2] = append([1, NO_LOG], 3, &[(1, 2)], Class::Single);
        assert_eq!(check_log(&h), 1);
    }

    #[test]
    fn log_rejects_a_duplicate_position() {
        let mut h = good_log();
        h[2] = append([1, NO_LOG], 3, &[(1, 0)], Class::Single);
        // Log 1 holds position 0 twice.
        assert_eq!(check_log(&h), 1);
    }

    #[test]
    fn log_rejects_a_multi_append_missing_from_one_log() {
        let mut h = good_log();
        h[4] = log_read(1, 0, 2, None);
        assert_eq!(check_log(&h), 2);
    }
}
