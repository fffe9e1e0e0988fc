//! One benchmark run: set-up, measurement, output checks, teardown,
//! and the result line.

use std::path::{Path, PathBuf};
use std::time::Instant;

use common::obs::ObsSnapshot;

use crate::check;
use crate::live::{scratch_dir, Epoch, Live, Window};
use crate::ops::{counter_key, Hist};
use crate::replay::{self, Costs};
use crate::report::{fingerprint, median, Json, Metrics, StealMeter};
use crate::sched::{quantile, typical_p99, Class, Record};
use crate::server::{dir_bytes, Teardown};
use crate::spec::{
    failover_phase, Mix, Workload, APPEND_BYTES, DRIVERS, END_TO_END, LATENCY_LIMIT_MS, PER_LAYER,
};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Traced runs stamp one in this many commands.
const TRACE_EVERY: u64 = 16;
/// Every this many window requests gets its spans in the trace file.
const SPAN_EVERY: usize = 16;

const MS: f64 = 1e6;

/// Where scratch files and records go, relative to the working directory.
fn root() -> PathBuf {
    PathBuf::from(".amcbench")
}

/// Latencies in ms of `class` requests due inside the window.
fn latencies(w: &Window, class: Class) -> Vec<u64> {
    w.records
        .iter()
        .filter(|r| r.class == class && r.due >= w.start && r.due < w.end)
        .filter_map(Record::latency)
        .collect()
}

/// `p99_ms`: the median over the window's one-second slices of their
/// single-group p99.
fn p99_typical(w: &Window) -> f64 {
    let single: Vec<&Record<Hist>> = w
        .records
        .iter()
        .filter(|r| r.class == Class::Single)
        .collect();
    typical_p99(&single, w.start, w.end, 1_000_000_000) as f64 / MS
}

/// Per-second `[requests, answered, p50_ms, p99_ms]` of the window's
/// scheduled requests, by due time: the run record's evidence of when
/// latency moved.
fn timeline(w: &Window) -> Json {
    let secs = (w.end - w.start).div_ceil(1_000_000_000) as usize;
    let mut per: Vec<Vec<u64>> = vec![Vec::new(); secs];
    for r in w
        .records
        .iter()
        .filter(|r| r.class != Class::Check && r.due >= w.start && r.due < w.end)
    {
        per[((r.due - w.start) / 1_000_000_000) as usize].push(r.latency().unwrap_or(u64::MAX));
    }
    Json::Arr(
        per.into_iter()
            .map(|mut v| {
                let answered = v.iter().filter(|l| **l != u64::MAX).count();
                Json::Arr(vec![
                    Json::Int(v.len() as i64),
                    Json::Int(answered as i64),
                    Json::Num(quantile(&mut v, 0.5) as f64 / MS),
                    Json::Num(quantile(&mut v, 0.99) as f64 / MS),
                ])
            })
            .collect(),
    )
}

/// The window's latency and CPU cost: `p50_ms`, `p99_ms` and
/// `cpu_ms_per_kop`. They follow the hypervisor's CPU steal on a shared
/// machine far more than the code (see the README), so they are
/// per-layer metrics of the traced run, and every untraced run keeps
/// them in its record.
fn put_headline(m: &mut Metrics, w: &Window) {
    m.put("p50_ms", q_ms(&latencies(w, Class::Single), 0.5));
    m.put("p99_ms", p99_typical(w));
    m.put("cpu_ms_per_kop", cpu_ms_per_kop(w));
}

fn q_ms(v: &[u64], q: f64) -> f64 {
    quantile(&mut v.to_vec(), q) as f64 / MS
}

/// Completed requests of the window (any class).
fn completed(w: &Window) -> usize {
    w.records.iter().filter(|r| r.done.is_some()).count()
}

fn cpu_ms_per_kop(w: &Window) -> f64 {
    (w.cpu_ns as f64 / MS) / (completed(w).max(1) as f64 / 1000.0)
}

/// Server CPU per 1000 completed requests beyond the deployment's idle
/// upkeep, measured just before the window.
fn marginal_cpu_ms_per_kop(w: &Window) -> f64 {
    let idle = w.idle_cpu_ns as f64 * (w.end - w.start) as f64 / w.idle_ns.max(1) as f64;
    ((w.cpu_ns as f64 - idle) / MS) / (completed(w).max(1) as f64 / 1000.0)
}

/// Output checks over the whole history; returns (violations, unanswered, refused).
fn verify(w: &Workload, history: &[Record<Hist>]) -> (usize, usize, usize) {
    let violations = match w.mix {
        Mix::YcsbA => check::check_register(history, true),
        Mix::Counters => check::check_counters(history),
        Mix::DlogStream => check::check_log(history),
    };
    (
        violations,
        check::unanswered(history),
        check::refused(history),
    )
}

struct Verdict {
    attempted: usize,
    failed: usize,
    clean: bool,
    detail: Json,
}

/// Checks each deployment's history on its own (every set-up starts
/// from empty state) and sums the findings.
fn verdict(w: &Workload, histories: &[Vec<Record<Hist>>], teardowns: &[Teardown]) -> Verdict {
    let (mut violations, mut unanswered, mut refused) = (0, 0, 0);
    for h in histories {
        let (v, u, r) = verify(w, h);
        violations += v;
        unanswered += u;
        refused += r;
    }
    let clean = teardowns.iter().all(Teardown::clean);
    Verdict {
        attempted: histories.iter().map(Vec::len).sum(),
        failed: violations + unanswered + refused,
        clean,
        detail: Json::obj([
            ("check_violations", Json::Int(violations as i64)),
            ("unanswered", Json::Int(unanswered as i64)),
            ("refused", Json::Int(refused as i64)),
            (
                "teardowns",
                Json::Arr(
                    teardowns
                        .iter()
                        .map(|t| {
                            Json::obj([
                                (
                                    "server_threads_after_shutdown",
                                    Json::Int(t.server_threads_after_shutdown as i64),
                                ),
                                (
                                    "client_threads_left",
                                    Json::Int(t.client_threads_left as i64),
                                ),
                                ("ports_held", Json::Int(t.ports_held as i64)),
                                ("wal_locks", Json::Int(t.wal_locks as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    }
}

fn result_line(v: &Verdict, metrics: &Metrics) -> String {
    Json::obj([
        ("correct", Json::Bool(v.failed == 0 && v.clean)),
        ("attempted", Json::Int(v.attempted.max(1) as i64)),
        ("failed", Json::Int(v.failed as i64)),
        ("metrics", metrics.to_json()),
    ])
    .to_string()
}

/// Writes `text` to `.amcbench/out/<name>` and returns the path.
fn write_out(name: &str, text: &str) -> Result<PathBuf, String> {
    let dir = root().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Runs workload `w` once; returns the result line.
pub fn run(w: Workload, seed: u64, seconds: u64, trace: bool) -> Result<String, String> {
    let scratch = root().join("tmp");
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    let epoch = Epoch(Instant::now());
    let fp = fingerprint(&scratch);
    if trace {
        traced(w, seed, seconds, &scratch, epoch, fp)
    } else {
        untraced(w, seed, seconds, &scratch, epoch, fp)
    }
}

fn setup(
    w: Workload,
    seed: u64,
    scratch: &Path,
    trace_sample: u64,
    epoch: Epoch,
    tag: &str,
) -> Result<(Live, f64), String> {
    let t0 = Instant::now();
    let live = Live::setup(w, seed, &scratch_dir(scratch, tag), trace_sample, epoch)?;
    Ok((live, t0.elapsed().as_secs_f64()))
}

fn untraced(
    w: Workload,
    seed: u64,
    seconds: u64,
    scratch: &Path,
    epoch: Epoch,
    fp: Json,
) -> Result<String, String> {
    let mut setups = Vec::new();
    let mut teardowns = Vec::new();
    let mut history = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let (live, s) = setup(w, seed, scratch, 0, epoch, &format!("setup{i}"))?;
        setups.push(s);
        if i + 1 < SETUPS {
            let (h, td) = live.finish()?;
            history.push(h);
            teardowns.push(td);
        } else {
            kept = Some(live);
        }
    }
    let mut live = kept.expect("at least one set-up");
    let window = live.window(seconds, false)?;
    let steal_pct = window.steal_per_s.iter().sum::<f64>() / window.steal_per_s.len().max(1) as f64;
    let rss = live.server.rss_peak_bytes() as f64 / f64::from(1u32 << 20);
    let connections = live.connections;
    let errors = std::mem::take(&mut live.errors);
    let (h, td) = live.finish()?;
    history.push(h);
    teardowns.push(td);
    let verdict = verdict(&w, &history, &teardowns);

    let single = latencies(&window, Class::Single);
    let mut m = Metrics::default();
    m.put("setup_s", median(&mut setups.clone()));
    m.put("rss_mb", rss);
    debug_assert!(m
        .0
        .iter()
        .map(|(n, _)| *n)
        .eq(END_TO_END.iter().map(|(n, _)| *n)));
    let mut head = Metrics::default();
    put_headline(&mut head, &window);

    let record = Json::obj([
        ("record", Json::str("amcbench")),
        ("workload", Json::str(w.name)),
        ("seed", Json::Int(seed as i64)),
        ("trace", Json::Bool(false)),
        ("seconds", Json::Int(seconds as i64)),
        ("fingerprint", fp),
        ("offered_ops_s", Json::Num(w.rate)),
        ("steal_pct_during_window", Json::Num(steal_pct)),
        ("headline", head.to_json()),
        (
            "server_cpu_cores",
            Json::Num(window.cpu_ns as f64 / (window.end - window.start) as f64),
        ),
        (
            "generator_cpu_cores",
            Json::Num(window.gen_cpu_ns as f64 / (window.end - window.start) as f64),
        ),
        (
            "idle_server_cpu_cores",
            Json::Num(window.idle_cpu_ns as f64 / window.idle_ns.max(1) as f64),
        ),
        (
            "marginal_cpu_ms_per_kop",
            Json::Num(marginal_cpu_ms_per_kop(&window)),
        ),
        (
            "setup_s_each",
            Json::Arr(setups.iter().map(|s| Json::Num(*s)).collect()),
        ),
        ("driver_threads", Json::Int(DRIVERS as i64)),
        ("client_connections", Json::Int(connections as i64)),
        (
            "samples",
            Json::obj([
                ("p50_ms", Json::Int(single.len() as i64)),
                ("p99_ms", Json::Int(single.len() as i64)),
            ]),
        ),
        ("p99_ms_whole_window", Json::Num(q_ms(&single, 0.99))),
        ("timeline_per_s", timeline(&window)),
        (
            "steal_pct_per_s",
            Json::Arr(window.steal_per_s.iter().map(|s| Json::Num(*s)).collect()),
        ),
        (
            "failed_ratio",
            Json::Num(verdict.failed as f64 / verdict.attempted.max(1) as f64),
        ),
        (
            "submit_errors",
            Json::Arr(errors.into_iter().map(Json::str).collect()),
        ),
        ("checks", verdict.detail.clone()),
        ("metrics", m.to_json()),
    ]);
    let text = record.to_string();
    write_out(&format!("{}-seed{seed}-trace0.json", w.name), &text)?;
    println!("{text}");
    Ok(result_line(&verdict, &m))
}

/// Sum over nodes of the growth of counter `name` across the window.
/// A node whose counter went backwards restarted: its whole value counts.
fn delta(before: &[ObsSnapshot], after: &[ObsSnapshot], name: &str) -> f64 {
    after
        .iter()
        .map(|a| {
            let now = a.counter(name).unwrap_or(0);
            let then = before
                .iter()
                .find(|b| b.node == a.node)
                .and_then(|b| b.counter(name))
                .unwrap_or(0);
            if now >= then {
                now - then
            } else {
                now
            }
        })
        .sum::<u64>() as f64
}

/// Count-weighted mean over nodes of a histogram quantile (p50 or p99).
fn hist_q(snaps: &[ObsSnapshot], name: &str, p99: bool) -> f64 {
    let (mut sum, mut n) = (0.0, 0u64);
    for s in snaps {
        if let Some(h) = s.hist(name) {
            sum += (if p99 { h.p99 } else { h.p50 }) as f64 * h.count as f64;
            n += h.count;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn gauge_mean(snaps: &[ObsSnapshot], name: &str) -> f64 {
    let v: Vec<f64> = snaps
        .iter()
        .filter_map(|s| s.gauge(name))
        .map(|g| g as f64)
        .collect();
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Value bytes the acked writes of the window carried.
fn user_bytes(w: &Window) -> f64 {
    w.records
        .iter()
        .filter(|r| r.done.is_some())
        .map(|r| match r.hist {
            Hist::Put { .. } => workloads::ycsb::RECORD_SIZE as f64,
            Hist::Add { .. } => 8.0,
            Hist::Append { logs, .. } => {
                APPEND_BYTES as f64
                    * if logs[1] == crate::ops::NO_LOG {
                        1.0
                    } else {
                        2.0
                    }
            }
            _ => 0.0,
        })
        .sum()
}

/// Failover: kill until the first acked partition-0 request due after it.
fn unavailable_ms(w: &Window, scheme: &mrpstore::Partitioning) -> f64 {
    let Some(kill) = w.kill_at else { return 0.0 };
    let on_p0 = |h: &Hist| match h {
        Hist::Add { key, .. } | Hist::Count { key } => {
            scheme.partition_of(&counter_key(*key)).raw() == 0
        }
        _ => false,
    };
    w.records
        .iter()
        .filter(|r| r.due > kill && on_p0(&r.hist))
        .filter_map(|r| r.done)
        .min()
        .map_or(0.0, |d| (d - kill) as f64 / MS)
}

/// The trace file: the window's request spans (sampled) with their
/// submit spans, the replay spans, and the raw stats-plane histograms.
fn trace_file(w: &Workload, seed: u64, win: &Window, costs: &Costs) -> Json {
    let mut spans = Vec::new();
    for (i, r) in win.records.iter().enumerate().step_by(SPAN_EVERY) {
        let id = Json::Int(i as i64);
        spans.push(Json::obj([
            ("name", Json::str("request")),
            ("start", Json::Int(r.due as i64)),
            ("end", Json::Int(r.done.unwrap_or(r.due) as i64)),
            ("parent", Json::str("window")),
            ("request", id.clone()),
        ]));
        spans.push(Json::obj([
            ("name", Json::str("client.submit")),
            ("start", Json::Int(r.sent as i64)),
            (
                "end",
                Json::Int((r.sent + win.submit_ns.get(i).copied().unwrap_or(0)) as i64),
            ),
            ("parent", Json::str("request")),
            ("request", id),
        ]));
    }
    for s in &costs.spans {
        spans.push(Json::obj([
            ("name", Json::str(s.name)),
            ("start", Json::Int(s.start as i64)),
            ("end", Json::Int(s.end as i64)),
            ("parent", Json::str("replay")),
            ("request", Json::Int(-1)),
            ("units", Json::Int(s.units as i64)),
        ]));
    }
    let hists = win
        .after
        .iter()
        .map(|s| {
            Json::obj([
                ("node", Json::Int(i64::from(s.node))),
                (
                    "histograms",
                    Json::obj(s.hists.iter().map(|(n, h)| {
                        (
                            n.clone(),
                            Json::obj([
                                ("count", Json::Int(h.count as i64)),
                                ("sum", Json::Int(h.sum as i64)),
                                ("min", Json::Int(h.min as i64)),
                                ("max", Json::Int(h.max as i64)),
                                ("p50", Json::Int(h.p50 as i64)),
                                ("p95", Json::Int(h.p95 as i64)),
                                ("p99", Json::Int(h.p99 as i64)),
                            ]),
                        )
                    })),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("workload", Json::str(w.name)),
        ("seed", Json::Int(seed as i64)),
        ("time_unit", Json::str("ns")),
        ("spans", Json::Arr(spans)),
        ("stats_histograms", Json::Arr(hists)),
    ])
}

fn traced(
    w: Workload,
    seed: u64,
    seconds: u64,
    scratch: &Path,
    epoch: Epoch,
    fp: Json,
) -> Result<String, String> {
    let mut teardowns = Vec::new();
    let mut history = Vec::new();
    // The untraced twin of the traced window, for the tracing overhead,
    // followed by the sustainable-rate search on the same deployment.
    let steal = StealMeter::start();
    let (mut live, _) = setup(w, seed, scratch, 0, epoch, "untraced")?;
    let plain = live.window(seconds, false)?;
    let (sustainable, tried) = live.search(&plain)?;
    let mut errors = std::mem::take(&mut live.errors);
    let (h, td) = live.finish()?;
    history.push(h);
    teardowns.push(td);

    let (mut live, _) = setup(w, seed, scratch, TRACE_EVERY, epoch, "traced")?;
    let wal_dir = live.server.dir.join("wal");
    let wal0 = dir_bytes(&wal_dir);
    let win = live.window(seconds, true)?;
    let wal_written = win
        .wal_growth
        .max(dir_bytes(&wal_dir).saturating_sub(wal0) as f64);
    let connections = live.connections;
    errors.append(&mut live.errors);
    let (h, td) = live.finish()?;
    history.push(h);
    teardowns.push(td);

    // The recovery layer: a WAL-on counter deployment whose partition-0
    // coordinator is killed and restarted in place inside the window.
    let failover = if w.mix == Mix::Counters {
        let (mut live, _) = setup(failover_phase(), seed, scratch, 0, epoch, "failover")?;
        let fw = live.window(seconds, false)?;
        let scheme = live
            .server
            .config
            .initial_scheme()
            .expect("mrpstore deployment");
        errors.append(&mut live.errors);
        let (h, td) = live.finish()?;
        history.push(h);
        teardowns.push(td);
        let offset = |t: Option<u64>| t.map_or(f64::NAN, |t| (t - fw.start) as f64 / 1e9);
        Some((
            unavailable_ms(&fw, &scheme),
            fw.catchup_ns,
            timeline(&fw),
            offset(fw.kill_at),
            offset(fw.restart_at),
        ))
    } else {
        None
    };
    let verdict = verdict(&w, &history, &teardowns);

    let costs = replay::replay(&w, seed, scratch)?;
    let (b, a) = (&win.before, &win.after);
    let ops = completed(&win).max(1) as f64;
    let app_values = (delta(b, a, "instances_decided") - delta(b, a, "merge_skips")).max(1.0);
    let cpu_plain = cpu_ms_per_kop(&plain);
    let cpu_traced = cpu_ms_per_kop(&win);
    let replicas = 3.0;
    let server_ns_per_op = cpu_plain * MS / 1000.0;
    let single = latencies(&win, Class::Single);
    let multi = latencies(&win, Class::Multi);
    let scheduled: Vec<&Record<Hist>> = win
        .records
        .iter()
        .filter(|r| r.class != Class::Check)
        .collect();
    let mut late: Vec<u64> = scheduled
        .iter()
        .map(|r| r.sent.saturating_sub(r.due))
        .collect();
    let stage = |name: &str| hist_q(a, &format!("stage_{name}_nanos"), false);
    let order = [
        "seal", "propose", "p2send", "decide", "deliver", "execute", "reply",
    ];
    let resid = |i: usize| {
        let prev = if i == 0 { 0.0 } else { stage(order[i - 1]) };
        (stage(order[i]) - prev).max(0.0) / 1000.0
    };

    let mut m = Metrics::default();
    put_headline(&mut m, &plain);
    m.put("sustainable_ops_s", sustainable);
    m.put("steal_pct", steal.pct());
    m.put(
        "failed_ratio",
        verdict.failed as f64 / verdict.attempted.max(1) as f64,
    );
    m.put("multi_p50_ms", q_ms(&multi, 0.5));
    m.put("multi_p99_ms", q_ms(&multi, 0.99));
    m.put("unavailable_ms", failover.as_ref().map_or(0.0, |f| f.0));
    m.put("gen.late_ms_p99", quantile(&mut late, 0.99) as f64 / MS);
    m.put("gen.submit_blocked_ms", win.blocked_ns as f64 / MS);
    m.put(
        "client.submit_us_p50",
        quantile(&mut win.submit_ns.clone(), 0.5) as f64 / 1000.0,
    );
    m.put(
        "client.resends",
        (delta(b, a, "proposed_cmds") - win.records.len() as f64).max(0.0),
    );
    m.put(
        "batch.cmds_per_instance",
        delta(b, a, "executed_cmds") / app_values,
    );
    m.put("batch.depth_mean", win.batch_depth_mean);
    m.put("batch.seal_ns_per_cmd", costs.seal_ns_per_cmd);
    m.put("wire.encode_ns_per_op", costs.encode_ns_per_op);
    m.put("wire.decode_ns_per_op", costs.decode_ns_per_op);
    let msgs = [
        "phase2_msgs",
        "decision_msgs",
        "value_requests",
        "value_push_msgs",
    ];
    m.put(
        "ring.msgs_per_op",
        msgs.iter().map(|n| delta(b, a, n)).sum::<f64>() / ops,
    );
    let bytes = [
        "phase2_wire_bytes",
        "decision_wire_bytes",
        "value_push_bytes",
    ];
    m.put(
        "ring.wire_bytes_per_op",
        bytes.iter().map(|n| delta(b, a, n)).sum::<f64>() / ops,
    );
    m.put("ring.pull_misses", delta(b, a, "value_pull_misses"));
    m.put("ring.liveness_fires", delta(b, a, "liveness_fires"));
    m.put("ring.round_us_per_instance", costs.round_us_per_instance);
    m.put(
        "merge.skips_per_delivery",
        delta(b, a, "merge_skips") / app_values,
    );
    m.put("merge.lag_mean", win.merge_lag_mean);
    m.put("merge.ns_per_delivery", costs.merge_ns_per_delivery);
    m.put(
        "session.cached_replies",
        gauge_mean(a, "session_cached_replies"),
    );
    m.put("session.ns_per_cmd", costs.session_ns_per_cmd);
    m.put("exec.ns_per_cmd", costs.exec_ns_per_cmd);
    m.put("stage.execute_us", resid(5));
    m.put(
        "wal.commit_us_p50",
        hist_q(a, "wal_commit_nanos", false) / 1000.0,
    );
    m.put(
        "wal.commit_us_p99",
        hist_q(a, "wal_commit_nanos", true) / 1000.0,
    );
    let commits: u64 = a
        .iter()
        .filter_map(|s| s.hist("wal_commit_nanos").map(|h| h.count))
        .sum::<u64>()
        .saturating_sub(
            b.iter()
                .filter_map(|s| s.hist("wal_commit_nanos").map(|h| h.count))
                .sum(),
        );
    m.put(
        "wal.records_per_commit",
        delta(b, a, "wal_appends") / commits.max(1) as f64,
    );
    m.put(
        "wal.bytes_per_user_byte",
        if w.wal {
            wal_written / user_bytes(&win).max(1.0)
        } else {
            0.0
        },
    );
    m.put("wal.commit_us", costs.wal_commit_us);
    m.put("ckpt.bytes", gauge_mean(a, "ckpt_bytes"));
    m.put("ckpt.window_us", gauge_mean(a, "ckpt_window_us"));
    m.put("ckpt.us_per_mib", costs.ckpt_us_per_mib);
    m.put(
        "recovery.catchup_ms",
        failover
            .as_ref()
            .and_then(|f| f.1)
            .map_or(0.0, |n| n as f64 / MS),
    );
    for (i, name) in [
        (0, "stage.seal_us"),
        (1, "stage.propose_us"),
        (2, "stage.p2send_us"),
        (3, "stage.decide_us"),
        (4, "stage.deliver_us"),
        (6, "stage.reply_us"),
    ] {
        m.put(name, resid(i));
    }
    m.put(
        "ledger.coverage",
        costs.explained_ns_per_op(replicas, w.wal) / server_ns_per_op.max(1.0),
    );
    m.put(
        "trace.overhead_pct",
        (cpu_traced - cpu_plain) / cpu_plain.max(1e-9) * 100.0,
    );
    m.put("trace.cpu_ms_per_kop", cpu_traced);
    m.put("samples.single", single.len() as f64);
    m.put("samples.multi", multi.len() as f64);
    m.put("gen.threads", DRIVERS as f64);
    m.put("gen.connections", connections as f64);
    let mut emitted: Vec<&str> = m.0.iter().map(|(n, _)| *n).collect();
    let mut listed: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    emitted.sort_unstable();
    listed.sort_unstable();
    if emitted != listed {
        return Err(format!(
            "per-layer metrics drifted from the dictionary: {emitted:?}"
        ));
    }

    let trace_path = write_out(
        &format!("trace-{}-seed{seed}.json", w.name),
        &trace_file(&w, seed, &win, &costs).to_string(),
    )?;
    let record = Json::obj([
        ("record", Json::str("amcbench")),
        ("workload", Json::str(w.name)),
        ("seed", Json::Int(seed as i64)),
        ("trace", Json::Bool(true)),
        ("seconds", Json::Int(seconds as i64)),
        ("fingerprint", fp),
        ("offered_ops_s", Json::Num(w.rate)),
        ("trace_sample", Json::Int(TRACE_EVERY as i64)),
        ("driver_threads", Json::Int(DRIVERS as i64)),
        ("client_connections", Json::Int(connections as i64)),
        ("untraced_cpu_ms_per_kop", Json::Num(cpu_plain)),
        ("latency_limit_ms", Json::Num(LATENCY_LIMIT_MS)),
        (
            "rates_tried",
            Json::Arr(
                tried
                    .iter()
                    .map(|(r, ok)| {
                        Json::obj([("ops_s", Json::Num(*r)), ("passed", Json::Bool(*ok))])
                    })
                    .collect(),
            ),
        ),
        (
            "submit_errors",
            Json::Arr(errors.into_iter().map(Json::str).collect()),
        ),
        (
            "failover",
            failover.as_ref().map_or(Json::Bool(false), |f| {
                Json::obj([
                    ("offered_ops_s", Json::Num(failover_phase().rate)),
                    ("kill_at_s", Json::Num(f.3)),
                    ("restart_at_s", Json::Num(f.4)),
                    ("catchup_answered", Json::Bool(f.1.is_some())),
                    ("timeline_per_s", f.2.clone()),
                ])
            }),
        ),
        ("replay_commands", Json::Int(costs.commands as i64)),
        ("trace_file", Json::str(trace_path.display().to_string())),
        ("checks", verdict.detail.clone()),
        ("metrics", m.to_json()),
    ]);
    let text = record.to_string();
    write_out(&format!("{}-seed{seed}-trace1.json", w.name), &text)?;
    println!("{text}");
    Ok(result_line(&verdict, &m))
}
