//! The open-loop scheduler.
//!
//! Requests are due on a fixed schedule (`start + i * period`) whatever
//! the system does; each is timed from when it was *due*, so a stall
//! charges its wait to every request queued behind it. The loop is
//! generic over its clock and its target, so the tests drive it on a
//! fake clock with no sockets.

use bytes::Bytes;
use common::ids::RingId;

/// Monotonic nanoseconds.
pub trait Clock {
    /// Now, in nanoseconds since an arbitrary fixed origin.
    fn now(&self) -> u64;
}

/// Where requests go: the live client, or a fake in the tests.
pub trait Target {
    /// Sends one request; returns its id. May block (credit).
    fn submit(&mut self, ring: RingId, cmd: Bytes) -> Result<u64, String>;
    /// Waits until at most `until` for one completion.
    fn poll(&mut self, until: u64) -> Option<(u64, Bytes)>;
    /// Whether the next submit will wait for credit.
    fn window_full(&self) -> bool {
        false
    }
}

/// What a request is, for the metrics and the output checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Addresses one group: counted in `p50_ms` / `p99_ms`.
    Single,
    /// Addresses several groups: counted in `multi_*`.
    Multi,
    /// Issued by the benchmark to check an output; not scheduled.
    Check,
}

/// One request the generator produces.
#[derive(Clone, Debug)]
pub struct Req<H> {
    /// Destination group.
    pub ring: RingId,
    /// Encoded service command.
    pub cmd: Bytes,
    /// Latency class.
    pub class: Class,
    /// What the checkers need to know about it.
    pub hist: H,
}

/// A request source: scheduled requests plus follow-up checks that
/// completions ask for.
pub trait Source {
    /// History payload kept per request.
    type Hist: Clone;
    /// The next scheduled request.
    fn next(&mut self) -> Req<Self::Hist>;
    /// A completion arrived; may queue follow-up check requests.
    fn on_reply(&mut self, hist: &Self::Hist, reply: &Bytes, out: &mut Vec<Req<Self::Hist>>);
}

/// One request's life.
#[derive(Clone, Debug)]
pub struct Record<H> {
    /// When it was due (check requests: when they were queued).
    pub due: u64,
    /// When `submit` was called.
    pub sent: u64,
    /// When the reply arrived; `None` if it never did (timed out).
    pub done: Option<u64>,
    /// Latency class.
    pub class: Class,
    /// Checker payload.
    pub hist: H,
    /// The reply, when one arrived.
    pub reply: Option<Bytes>,
    /// The submit call failed outright.
    pub refused: bool,
}

impl<H> Record<H> {
    /// Latency from due to reply, in nanoseconds.
    pub fn latency(&self) -> Option<u64> {
        self.done.map(|d| d.saturating_sub(self.due))
    }
}

/// One open-loop phase: requests due every `period` from `start` until
/// `end`; replies awaited until `drain_until`.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    /// First due time.
    pub start: u64,
    /// Spacing of due times.
    pub period: u64,
    /// No request is due at or after this.
    pub end: u64,
    /// Outstanding requests still unanswered at this time time out.
    pub drain_until: u64,
}

/// What a phase produced.
#[derive(Debug)]
pub struct Outcome<H> {
    /// Every request of the phase, in submission order.
    pub records: Vec<Record<H>>,
    /// Scheduled requests due before `end` and not answered by `end`.
    pub backlog_at_end: usize,
    /// Nanoseconds spent in submits that had to wait for credit.
    pub blocked_ns: u64,
    /// Duration of every submit call, nanoseconds.
    pub submit_ns: Vec<u64>,
    /// The first submit error, if any submit failed.
    pub first_error: Option<String>,
}

/// Runs one phase against `target`.
pub fn run_phase<C: Clock, T: Target, S: Source>(
    clock: &C,
    target: &mut T,
    source: &mut S,
    phase: Phase,
) -> Outcome<S::Hist> {
    let mut records: Vec<Record<S::Hist>> = Vec::new();
    let mut open: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    let mut follow: Vec<Req<S::Hist>> = Vec::new();
    let mut blocked_ns = 0;
    let mut submit_ns = Vec::new();
    let mut first_error = None;
    let mut backlog_at_end = None;
    let mut i: u64 = 0;
    loop {
        let now = clock.now();
        if backlog_at_end.is_none() && now >= phase.end {
            backlog_at_end = Some(
                records
                    .iter()
                    .filter(|r| r.class != Class::Check && r.done.is_none_or(|d| d > phase.end))
                    .count()
                    + (phase.end.saturating_sub(phase.start))
                        .div_ceil(phase.period.max(1))
                        .saturating_sub(i) as usize,
            );
        }
        let next_due = phase.start + i * phase.period;
        let scheduled = next_due < phase.end && next_due <= now;
        if scheduled || !follow.is_empty() {
            let (req, due) = if scheduled {
                i += 1;
                (source.next(), next_due)
            } else {
                (follow.remove(0), now)
            };
            let blocked = target.window_full();
            let sent = clock.now();
            let res = target.submit(req.ring, req.cmd);
            let took = clock.now() - sent;
            submit_ns.push(took);
            if blocked {
                blocked_ns += took;
            }
            let refused = res.is_err();
            match res {
                Ok(id) => {
                    open.insert(id, records.len());
                }
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
            records.push(Record {
                due,
                sent,
                done: None,
                class: req.class,
                hist: req.hist,
                reply: None,
                refused,
            });
            continue;
        }
        if next_due >= phase.end && open.is_empty() && follow.is_empty() {
            break;
        }
        if now >= phase.drain_until && next_due >= phase.end {
            break;
        }
        let until = if next_due < phase.end {
            next_due
        } else {
            phase.drain_until
        };
        if let Some((id, reply)) = target.poll(until) {
            let at = clock.now();
            if let Some(ix) = open.remove(&id) {
                let rec = &mut records[ix];
                rec.done = Some(at);
                source.on_reply(&rec.hist, &reply, &mut follow);
                rec.reply = Some(reply);
            }
        }
    }
    Outcome {
        records,
        backlog_at_end: backlog_at_end.unwrap_or(0),
        blocked_ns,
        submit_ns,
        first_error,
    }
}

/// The `q`-quantile (0..=1) of `v` by nearest rank; 0 when empty.
pub fn quantile(v: &mut [u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median over consecutive `slice`-long sub-windows of
/// `[start, end)` of each sub-window's p99 latency (by due time;
/// unanswered requests count as infinitely late). One stall then moves
/// one sub-window, not the whole figure.
pub fn typical_p99<H>(recs: &[&Record<H>], start: u64, end: u64, slice: u64) -> u64 {
    let slices = (end.saturating_sub(start)).div_ceil(slice.max(1)).max(1) as usize;
    let mut per: Vec<Vec<u64>> = vec![Vec::new(); slices];
    for r in recs.iter().filter(|r| r.due >= start && r.due < end) {
        per[((r.due - start) / slice.max(1)) as usize].push(r.latency().unwrap_or(u64::MAX));
    }
    let mut p99s: Vec<u64> = per
        .into_iter()
        .filter(|v| !v.is_empty())
        .map(|mut v| quantile(&mut v, 0.99))
        .collect();
    quantile(&mut p99s, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::collections::VecDeque;

    const MS: u64 = 1_000_000;

    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now(&self) -> u64 {
            self.0.get()
        }
    }

    /// Answers every request `service` after it was sent; the submit at
    /// index `stall_at` blocks the caller for `stall`.
    struct FakeTarget<'a> {
        clock: &'a FakeClock,
        service: u64,
        stall_at: usize,
        stall: u64,
        sent: usize,
        pending: VecDeque<(u64, u64)>,
    }

    impl Target for FakeTarget<'_> {
        fn submit(&mut self, _ring: RingId, _cmd: Bytes) -> Result<u64, String> {
            if self.sent == self.stall_at {
                self.clock.0.set(self.clock.0.get() + self.stall);
            }
            let id = self.sent as u64;
            self.sent += 1;
            self.pending
                .push_back((self.clock.now() + self.service, id));
            Ok(id)
        }

        fn poll(&mut self, until: u64) -> Option<(u64, Bytes)> {
            match self.pending.front() {
                Some(&(at, id)) if at <= until => {
                    self.pending.pop_front();
                    self.clock.0.set(self.clock.0.get().max(at));
                    Some((id, Bytes::new()))
                }
                _ => {
                    self.clock.0.set(self.clock.0.get().max(until));
                    None
                }
            }
        }
    }

    struct Counting;

    impl Source for Counting {
        type Hist = ();
        fn next(&mut self) -> Req<()> {
            Req {
                ring: RingId::new(0),
                cmd: Bytes::new(),
                class: Class::Single,
                hist: (),
            }
        }
        fn on_reply(&mut self, _: &(), _: &Bytes, _: &mut Vec<Req<()>>) {}
    }

    fn run(stall_at: usize, stall: u64) -> Outcome<()> {
        let clock = FakeClock(Cell::new(0));
        let mut target = FakeTarget {
            clock: &clock,
            service: MS,
            stall_at,
            stall,
            sent: 0,
            pending: VecDeque::new(),
        };
        let phase = Phase {
            start: 0,
            period: 10 * MS,
            end: 1000 * MS,
            drain_until: 2000 * MS,
        };
        run_phase(&clock, &mut target, &mut Counting, phase)
    }

    #[test]
    fn steady_run_times_every_request_at_service_time() {
        let out = run(usize::MAX, 0);
        assert_eq!(out.records.len(), 100);
        assert!(out.records.iter().all(|r| r.latency() == Some(MS)));
        assert_eq!(out.backlog_at_end, 0);
    }

    #[test]
    fn a_stall_charges_its_wait_to_the_requests_queued_behind_it() {
        // Request 10 is due at 100 ms; its submit blocks for 100 ms.
        let out = run(10, 100 * MS);
        let lat: Vec<u64> = out.records.iter().map(|r| r.latency().unwrap()).collect();
        assert_eq!(lat[9], MS);
        // The stalled request waited the whole stall.
        assert_eq!(lat[10], 101 * MS);
        // Requests 11..=19 were due during the stall: each is charged the
        // rest of it, measured from its own due time, not its send time.
        for (k, l) in lat.iter().enumerate().take(20).skip(11) {
            let due = k as u64 * 10 * MS;
            assert_eq!(*l, 200 * MS - due + MS, "request {k}");
            assert!(out.records[k].sent >= 200 * MS);
        }
        // Back on schedule after the queue drained.
        assert_eq!(lat[21], MS);
        assert_eq!(out.records.len(), 100);
    }

    #[test]
    fn typical_p99_ignores_one_stalled_slice() {
        let out = run(10, 100 * MS);
        let recs: Vec<&Record<()>> = out.records.iter().collect();
        // Ten 100 ms slices; only the second one saw the stall.
        assert_eq!(typical_p99(&recs, 0, 1000 * MS, 100 * MS), MS);
    }

    #[test]
    fn quantile_uses_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&mut v, 0.5), 50);
        assert_eq!(quantile(&mut v, 0.99), 99);
        assert_eq!(quantile(&mut [], 0.5), 0);
    }
}
