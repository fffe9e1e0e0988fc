//! Live runs against a deployment in its own server process.
//!
//! At most [`DRIVERS`] driver threads, each owning one `LiveClient`
//! whose server list and route map name one replica per partition it
//! addresses (plus a surviving replica for the failover workload). The
//! main thread schedules phases, injects the failover, samples the stats
//! plane and never sends requests itself, except for one recovery probe.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use common::ids::{ClientId, NodeId, PartitionId, RingId};
use common::obs::ObsSnapshot;
use common::wire::Wire;
use liverun::{fetch_stats, ClientOptions, LiveClient};
use mrpstore::KvCommand;

use crate::ops::{counter_key, Gen, Hist, Mode};
use crate::report::StealMeter;
use crate::sched::{run_phase, typical_p99, Class, Clock, Outcome, Phase, Record, Target};
use crate::server::{dir_bytes, process_cpu_ns, Server, Teardown};
use crate::spec::{Mix, Workload, DATA_LOGS, DRIVERS, LATENCY_LIMIT_MS};

const MS: u64 = 1_000_000;
const SEC: u64 = 1_000_000_000;

/// Give up on a request this long after its phase ended.
const DRAIN: u64 = 10 * SEC;
/// The same for preload and final-read sweeps, which only set up or
/// check and may run far behind their schedule on a busy machine.
const SWEEP_DRAIN: u64 = 60 * SEC;
/// Warm-up at the offered rate that ends every set-up.
const WARMUP: u64 = 500 * MS;
/// Quiet spell before each window that measures the idle server CPU.
const IDLE: u64 = SEC;
/// Preload pace, records/s over both drivers. An unpaced preload runs
/// as fast as the credit window allows, so its length follows the CPU
/// the hypervisor leaves the machine; paced open-loop below what the
/// deployment ingests even then, it takes a fixed time unless the
/// deployment falls behind — which is then a set-up regression.
const PRELOAD_RATE: f64 = 4_000.0;
/// Length of one sustainable-rate search step.
const STEP: u64 = 2 * SEC;
/// Sub-window whose p99 the search judges (median over the step).
const SLICE: u64 = 500 * MS;
/// Rate ratio between search steps before the first failing one.
const LADDER: f64 = 1.25;
/// Failover workload: kill and restart offsets, as shares of the window.
const KILL_AT: f64 = 0.3;
const RESTART_AT: f64 = 0.6;

/// Monotonic nanoseconds since a shared origin.
#[derive(Clone, Copy, Debug)]
pub struct Epoch(pub Instant);

impl Clock for Epoch {
    fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

impl Epoch {
    fn sleep_until(&self, t: u64) {
        let now = self.now();
        if t > now {
            std::thread::sleep(Duration::from_nanos(t - now));
        }
    }
}

struct LiveTarget {
    client: LiveClient,
    epoch: Epoch,
}

impl Target for LiveTarget {
    fn submit(&mut self, ring: RingId, cmd: Bytes) -> Result<u64, String> {
        self.client
            .submit(ring, cmd)
            .map(|r| r.raw())
            .map_err(|e| e.to_string())
    }

    fn poll(&mut self, until: u64) -> Option<(u64, Bytes)> {
        let wait = until.saturating_sub(self.epoch.now());
        self.client
            .poll_reply(Duration::from_nanos(wait))
            .map(|(id, _, payload)| (id.raw(), payload))
    }

    fn window_full(&self) -> bool {
        self.client.stats().1 >= self.client.current_window()
    }
}

enum Job {
    Phase(Phase, Mode),
    /// Sweep every owned key once (preload / final read) at `rate`/s.
    Sweep(Mode, f64, u64),
}

struct Driver {
    jobs: Sender<Job>,
    done: Receiver<Outcome<Hist>>,
    join: JoinHandle<()>,
}

fn spawn_driver(client: LiveClient, mut gen: Gen, epoch: Epoch) -> Driver {
    let (jobs, rx) = channel::<Job>();
    let (tx, done) = channel();
    let join = std::thread::spawn(move || {
        let mut target = LiveTarget { client, epoch };
        for job in rx {
            let phase = match job {
                Job::Phase(phase, mode) => {
                    gen.set_mode(mode);
                    phase
                }
                Job::Sweep(mode, rate, start) => {
                    gen.set_mode(mode);
                    let period = (SEC as f64 / rate) as u64;
                    let end = start + gen.sweep_left() as u64 * period;
                    Phase {
                        start,
                        period,
                        end,
                        drain_until: end + SWEEP_DRAIN,
                    }
                }
            };
            if tx
                .send(run_phase(&epoch, &mut target, &mut gen, phase))
                .is_err()
            {
                break;
            }
        }
    });
    Driver { jobs, done, join }
}

/// One measured window's raw results.
pub struct Window {
    /// Requests of the window, both drivers.
    pub records: Vec<Record<Hist>>,
    /// Window bounds, epoch nanoseconds.
    pub start: u64,
    pub end: u64,
    /// Server CPU used during the window, nanoseconds.
    pub cpu_ns: u64,
    /// Generator (this process) CPU used during the window, nanoseconds.
    pub gen_cpu_ns: u64,
    /// Server CPU over `idle_ns` with no requests just before the window.
    pub idle_cpu_ns: u64,
    pub idle_ns: u64,
    /// Scheduled requests unanswered at the window's end.
    pub backlog_at_end: usize,
    /// Time submits waited for credit, nanoseconds.
    pub blocked_ns: u64,
    /// Duration of every submit call, nanoseconds.
    pub submit_ns: Vec<u64>,
    /// Failover: when partition 0's coordinator was killed / restarted.
    pub kill_at: Option<u64>,
    pub restart_at: Option<u64>,
    /// Failover: restart until the restarted replica answered a read
    /// ordered after its restart.
    pub catchup_ns: Option<u64>,
    /// Stats plane at the window's start and end (traced runs).
    pub before: Vec<ObsSnapshot>,
    pub after: Vec<ObsSnapshot>,
    /// Gauge means over the window (traced runs): batcher depth, merge lag.
    pub batch_depth_mean: f64,
    pub merge_lag_mean: f64,
    /// WAL bytes written during the window (traced runs): the sum of
    /// the directory's growth between samples, so pruning does not hide
    /// what was written.
    pub wal_growth: f64,
    /// CPU steal in each second of the window, percent.
    pub steal_per_s: Vec<f64>,
}

/// A running deployment with its drivers.
pub struct Live {
    /// The server process.
    pub server: Server,
    drivers: Vec<Driver>,
    /// Every request made so far, for the output checks.
    pub history: Vec<Record<Hist>>,
    epoch: Epoch,
    workload: Workload,
    /// Client connections the drivers opened.
    pub connections: usize,
    killed: Option<NodeId>,
    /// Threads of this process before the drivers existed.
    threads_before: usize,
    /// The first submit error of each phase that had one.
    pub errors: Vec<String>,
}

fn client_options() -> ClientOptions {
    ClientOptions {
        timeout: Duration::from_secs(10),
        retry_every: Duration::from_millis(500),
        window: 64,
        session_ttl: Duration::from_secs(60),
    }
}

/// What `LiveClient::connect` takes: servers, ring → proposer
/// candidates, replica → partition.
type Route = (
    Vec<(NodeId, std::net::SocketAddr)>,
    HashMap<RingId, Vec<NodeId>>,
    HashMap<NodeId, PartitionId>,
);

/// The route of driver `d`.
fn route_of(w: &Workload, server: &Server, d: usize) -> Route {
    let addr = |n: NodeId| {
        server
            .client_addrs()
            .into_iter()
            .find(|(id, _)| *id == n)
            .expect("node in config")
    };
    match w.mix {
        Mix::DlogStream => {
            let node = NodeId::new(d as u32);
            let route = (0..=DATA_LOGS)
                .map(|r| (RingId::new(r), vec![node]))
                .collect();
            (
                vec![addr(node)],
                route,
                HashMap::from([(node, PartitionId::new(0))]),
            )
        }
        _ => {
            let part = PartitionId::new(d as u16);
            let first = if d == 0 {
                server.coordinator
            } else {
                NodeId::new(3 * d as u32)
            };
            let mut nodes = vec![first];
            if w.failover && d == 0 {
                // One surviving replica to fail over to.
                nodes.push(NodeId::new((first.raw() + 1) % 3));
            }
            let servers = nodes.iter().map(|n| addr(*n)).collect();
            let parts = nodes.iter().map(|n| (*n, part)).collect();
            (
                servers,
                HashMap::from([(RingId::new(d as u16), nodes)]),
                parts,
            )
        }
    }
}

fn phase(rate: f64, start: u64, len: u64, d: usize) -> Phase {
    let period = (DRIVERS as f64 * SEC as f64 / rate) as u64;
    let start = start + d as u64 * period / DRIVERS as u64;
    Phase {
        start,
        period,
        end: start + len,
        drain_until: start + len + DRAIN,
    }
}

impl Live {
    /// Launches the server, connects the drivers, preloads and warms up.
    pub fn setup(
        w: Workload,
        seed: u64,
        dir: &Path,
        trace_sample: u64,
        epoch: Epoch,
    ) -> Result<Live, String> {
        let threads_before = crate::server::thread_count();
        let server = Server::launch(w.mix, dir, w.wal, trace_sample)?;
        let scheme = server
            .config
            .initial_scheme()
            .unwrap_or(mrpstore::Partitioning::Hash { partitions: 1 });
        let mut drivers = Vec::new();
        let mut connections = 0;
        for d in 0..DRIVERS {
            let (servers, route, parts) = route_of(&w, &server, d);
            connections += servers.len();
            let client = LiveClient::connect(
                ClientId::new(1000 + d as u32),
                &servers,
                route,
                parts,
                client_options(),
            )
            .map_err(|e| format!("driver {d} connect: {e}"))?;
            let gen = Gen::new(w.mix, seed, d as u8, &scheme);
            drivers.push(spawn_driver(client, gen, epoch));
        }
        let mut live = Live {
            server,
            drivers,
            history: Vec::new(),
            epoch,
            workload: w,
            connections,
            killed: None,
            threads_before,
            errors: Vec::new(),
        };
        if w.mix == Mix::YcsbA {
            let start = epoch.now() + MS;
            live.collect(|_| Job::Sweep(Mode::Preload, PRELOAD_RATE / DRIVERS as f64, start))?;
        }
        let start = epoch.now() + MS;
        live.collect(|d| Job::Phase(phase(w.rate, start, WARMUP, d), Mode::Run))?;
        Ok(live)
    }

    /// Hands every driver its job and gathers the outcomes into the history.
    fn collect(&mut self, job: impl Fn(usize) -> Job) -> Result<Vec<Outcome<Hist>>, String> {
        for (d, driver) in self.drivers.iter().enumerate() {
            driver
                .jobs
                .send(job(d))
                .map_err(|_| format!("driver {d} is gone"))?;
        }
        let mut outs = Vec::new();
        for (d, driver) in self.drivers.iter().enumerate() {
            let mut out = driver.done.recv().map_err(|_| format!("driver {d} died"))?;
            self.errors.extend(out.first_error.take());
            self.history.extend(out.records.iter().cloned());
            outs.push(out);
        }
        Ok(outs)
    }

    fn snapshots(&self) -> Vec<ObsSnapshot> {
        self.server
            .client_addrs()
            .into_iter()
            .filter(|(n, _)| Some(*n) != self.killed)
            .filter_map(|(_, a)| fetch_stats(a, Duration::from_secs(2)).ok())
            .collect()
    }

    /// The fixed-rate window: `seconds` at the workload's offered rate.
    /// With `stats`, the stats plane is read around it and its gauges
    /// sampled every 100 ms. The failover workload kills and restarts
    /// partition 0's coordinator inside it.
    pub fn window(&mut self, seconds: u64, stats: bool) -> Result<Window, String> {
        let w = self.workload;
        let before = if stats { self.snapshots() } else { Vec::new() };
        let len = seconds * SEC;
        // The deployment's own upkeep (rate-leveling skips, heartbeats,
        // checkpoints) with no requests, to split it from per-request cost.
        let idle0 = (self.epoch.now(), self.server.cpu_ns());
        std::thread::sleep(Duration::from_nanos(IDLE));
        let idle_cpu_ns = self.server.cpu_ns().saturating_sub(idle0.1);
        let idle_ns = self.epoch.now() - idle0.0;
        let start = self.epoch.now() + 5 * MS;
        let cpu0 = self.server.cpu_ns();
        let gen0 = process_cpu_ns("/proc/self/stat");
        for (d, driver) in self.drivers.iter().enumerate() {
            driver
                .jobs
                .send(Job::Phase(phase(w.rate, start, len, d), Mode::Run))
                .map_err(|_| "driver gone".to_string())?;
        }
        let (mut kill_at, mut restart_at, mut catchup_ns) = (None, None, None);
        let (mut depth, mut lag, mut samples) = (0.0, 0.0, 0u32);
        let kill_due = start + (len as f64 * KILL_AT) as u64;
        let restart_due = start + (len as f64 * RESTART_AT) as u64;
        let victim = self.server.coordinator;
        let mut probe: Option<std::thread::JoinHandle<Option<u64>>> = None;
        let (mut steal, mut steal_per_s, mut second) = (StealMeter::start(), Vec::new(), 0u64);
        let wal_dir = self.server.dir.join("wal");
        let mut wal_prev = dir_bytes(&wal_dir);
        let mut wal_growth = 0.0;
        loop {
            let now = self.epoch.now();
            if now >= start + second * SEC && second * SEC <= len {
                if second > 0 {
                    steal_per_s.push(steal.pct());
                }
                steal = StealMeter::start();
                second += 1;
            }
            if now >= start + len {
                break;
            }
            if w.failover && kill_at.is_none() && now >= kill_due {
                self.server.command(&format!("kill {}", victim.raw()))?;
                self.killed = Some(victim);
                kill_at = Some(now);
            }
            if w.failover && restart_at.is_none() && now >= restart_due {
                self.server.command(&format!("restart {}", victim.raw()))?;
                self.killed = None;
                let at = self.epoch.now();
                restart_at = Some(at);
                probe = Some(self.spawn_probe(victim, at));
            }
            let next = if stats {
                let snaps = self.snapshots();
                for s in &snaps {
                    depth += s.gauge("batcher_depth").unwrap_or(0) as f64;
                    lag += s.gauge("merge_lag").unwrap_or(0) as f64;
                }
                samples += snaps.len() as u32;
                let size = dir_bytes(&wal_dir);
                wal_growth += size.saturating_sub(wal_prev) as f64;
                wal_prev = size;
                now + 100 * MS
            } else {
                now + 10 * MS
            };
            let next = next.min(start + len);
            let next = if w.failover && kill_at.is_none() {
                next.min(kill_due)
            } else {
                next
            };
            let next = if w.failover && restart_at.is_none() {
                next.min(restart_due)
            } else {
                next
            };
            self.epoch.sleep_until(next);
        }
        let mut outs = Vec::new();
        for (d, driver) in self.drivers.iter().enumerate() {
            outs.push(driver.done.recv().map_err(|_| format!("driver {d} died"))?);
        }
        let cpu_ns = self.server.cpu_ns().saturating_sub(cpu0);
        let gen_cpu_ns = process_cpu_ns("/proc/self/stat").saturating_sub(gen0);
        if let Some(p) = probe {
            catchup_ns = p.join().map_err(|_| "probe panicked".to_string())?;
        }
        let after = if stats { self.snapshots() } else { Vec::new() };
        let mut records = Vec::new();
        let (mut backlog, mut blocked, mut submit_ns) = (0, 0, Vec::new());
        for mut out in outs {
            self.errors.extend(out.first_error.take());
            backlog += out.backlog_at_end;
            blocked += out.blocked_ns;
            submit_ns.extend(out.submit_ns);
            records.extend(out.records);
        }
        self.history.extend(records.iter().cloned());
        let n = f64::from(samples.max(1));
        Ok(Window {
            records,
            start,
            end: start + len,
            cpu_ns,
            gen_cpu_ns,
            idle_cpu_ns,
            idle_ns,
            backlog_at_end: backlog,
            blocked_ns: blocked,
            submit_ns,
            kill_at,
            restart_at,
            catchup_ns,
            before,
            after,
            batch_depth_mean: depth / n,
            merge_lag_mean: lag / n,
            wal_growth,
            steal_per_s,
        })
    }

    /// Waits, on a thread of its own, until the restarted `node` answers
    /// a read ordered after its restart at `at`; returns the wait.
    fn spawn_probe(&self, node: NodeId, at: u64) -> std::thread::JoinHandle<Option<u64>> {
        let epoch = self.epoch;
        let addrs = self.server.client_addrs();
        let survivor = NodeId::new((node.raw() + 1) % 3);
        let scheme = self
            .server
            .config
            .initial_scheme()
            .expect("mrpstore deployment");
        std::thread::spawn(move || {
            let addr = |n: NodeId| {
                addrs
                    .iter()
                    .copied()
                    .find(|(id, _)| *id == n)
                    .expect("node in config")
            };
            let part = PartitionId::new(0);
            let key = (0..)
                .map(counter_key)
                .find(|k| scheme.partition_of(k) == part)
                .expect("a key of partition 0");
            let mut client = LiveClient::connect(
                ClientId::new(2000),
                &[addr(survivor), addr(node)],
                HashMap::from([(RingId::new(0), vec![survivor])]),
                HashMap::from([(survivor, part), (node, part)]),
                ClientOptions {
                    timeout: Duration::from_secs(20),
                    ..client_options()
                },
            )
            .ok()?;
            client
                .request_from(RingId::new(0), KvCommand::Read { key }.to_bytes(), node)
                .ok()?;
            Some(epoch.now().saturating_sub(at))
        })
    }

    /// One search step at `rate`: whether the latency limit held with no
    /// failures and no growing backlog, and the completions per second.
    fn step(&mut self, rate: f64) -> Result<(bool, f64), String> {
        let start = self.epoch.now() + 5 * MS;
        let outs = self.collect(|d| Job::Phase(phase(rate, start, STEP, d), Mode::Run))?;
        let backlog: usize = outs.iter().map(|o| o.backlog_at_end).sum();
        let recs: Vec<&Record<Hist>> = outs.iter().flat_map(|o| o.records.iter()).collect();
        Ok(judge(&recs, backlog, rate, start, start + STEP))
    }

    /// The sustainable-rate search: up a ladder from the offered rate
    /// until a step fails, then two bisections. Returns the best passing
    /// step's completions per second and every `(rate, passed)` tried.
    pub fn search(&mut self, window: &Window) -> Result<(f64, Vec<(f64, bool)>), String> {
        let recs: Vec<&Record<Hist>> = window.records.iter().collect();
        let (ok, got) = judge(
            &recs,
            window.backlog_at_end,
            self.workload.rate,
            window.start,
            window.end,
        );
        let mut tried = vec![(self.workload.rate, ok)];
        let (mut low, mut best) = if ok {
            (Some(self.workload.rate), got)
        } else {
            (None, 0.0)
        };
        let mut high = (!ok).then_some(self.workload.rate);
        let mut bisections = 0;
        // Overloaded steps drain slowly; the budget keeps a run well
        // inside its time limit on a starved machine.
        let budget = Instant::now() + Duration::from_secs(60);
        while tried.len() < 12 && bisections < 2 && Instant::now() < budget {
            let rate = match (low, high) {
                (Some(l), Some(h)) => {
                    bisections += 1;
                    (l * h).sqrt()
                }
                (Some(l), None) => l * LADDER,
                (None, Some(h)) => h / LADDER,
                (None, None) => unreachable!("the window seeds the search"),
            };
            std::thread::sleep(Duration::from_millis(200));
            let (ok, got) = self.step(rate)?;
            tried.push((rate, ok));
            if ok {
                low = Some(rate);
                best = got;
            } else {
                high = Some(rate);
            }
        }
        Ok((best, tried))
    }

    /// Reads every owned counter once (the final output check), stops the
    /// drivers and the server, and verifies the teardown, including that
    /// the client library's reader threads ended once the server closed
    /// their connections. Returns this deployment's whole history.
    pub fn finish(mut self) -> Result<(Vec<Record<Hist>>, Teardown), String> {
        if self.workload.mix == Mix::Counters {
            let start = self.epoch.now() + MS;
            self.collect(|_| Job::Sweep(Mode::Final, 20_000.0, start))?;
        }
        let history = std::mem::take(&mut self.history);
        Ok((history, self.stop()?))
    }

    fn stop(self) -> Result<Teardown, String> {
        for d in self.drivers {
            drop(d.jobs);
            d.join.join().map_err(|_| "driver panicked".to_string())?;
        }
        let mut td = self.server.stop()?;
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            td.client_threads_left =
                crate::server::thread_count().saturating_sub(self.threads_before);
            if td.client_threads_left == 0 || Instant::now() >= deadline {
                return Ok(td);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// Whether a step passed: p99 of its scheduled requests (unanswered ones
/// count as over the limit) within the limit, nothing failed, and the
/// backlog at the step's end no more than 40 ms of arrivals. Returns the
/// verdict and the completions per second inside the step.
fn judge(recs: &[&Record<Hist>], backlog: usize, rate: f64, start: u64, end: u64) -> (bool, f64) {
    let scheduled: Vec<&Record<Hist>> = recs
        .iter()
        .copied()
        .filter(|r| r.class != Class::Check)
        .collect();
    let failed = recs.iter().any(|r| r.done.is_none() || r.refused);
    let p99 = typical_p99(&scheduled, start, end, SLICE);
    let done = recs
        .iter()
        .filter(|r| r.class != Class::Check && r.done.is_some_and(|d| d >= start && d <= end))
        .count();
    let ok = !failed
        && (p99 as f64) <= LATENCY_LIMIT_MS * MS as f64
        && (backlog as f64) <= (rate * 0.04).max(16.0);
    (ok, done as f64 * SEC as f64 / (end - start) as f64)
}

/// A fresh scratch directory for one server under `root`.
pub fn scratch_dir(root: &Path, tag: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    root.join(format!("{}-{tag}-{nanos}", std::process::id()))
}
