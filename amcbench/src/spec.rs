//! The workloads and the metric dictionary.
//!
//! Every number a run prints is named here, with its unit; the tests
//! pin these tables to `BENCHMARK.json` so the two cannot drift.

/// The traffic a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// YCSB-A: 50 % read / 50 % update of 1000-byte records.
    YcsbA,
    /// 80 % `add` / 20 % `read` over small counters.
    Counters,
    /// 8 KiB dLog appends, 1 in 8 a multi-append on the shared ring,
    /// plus tail reads and trims.
    DlogStream,
}

/// One named workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Traffic mix.
    pub mix: Mix,
    /// Whether the deployment writes a WAL (fdatasync per delivered batch).
    pub wal: bool,
    /// Offered rate of the fixed-rate window, ops/s, split evenly over
    /// the driver threads. Also stated in the workload's `why`.
    pub rate: f64,
    /// Whether the window kills and restarts partition 0's coordinator.
    pub failover: bool,
}

/// Latency limit of the sustainable-rate search, on single-group p99.
pub const LATENCY_LIMIT_MS: f64 = 20.0;

/// Driver threads of the generator process.
pub const DRIVERS: usize = 2;

/// Records preloaded for YCSB-A.
pub const YCSB_RECORDS: u32 = 50_000;

/// Counters addressed by the counter workloads.
pub const COUNTERS: u32 = 4096;

/// Data logs of the dLog deployment (plus one shared ring).
pub const DATA_LOGS: u16 = 3;

/// dLog append payload size.
pub const APPEND_BYTES: usize = 8 * 1024;

/// Every workload the benchmark knows.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "kv-ycsb-a",
        mix: Mix::YcsbA,
        wal: true,
        rate: 500.0,
        failover: false,
    },
    Workload {
        name: "kv-counters",
        mix: Mix::Counters,
        wal: false,
        rate: 4000.0,
        failover: false,
    },
    Workload {
        name: "dlog-stream",
        mix: Mix::DlogStream,
        wal: true,
        rate: 250.0,
        failover: false,
    },
];

/// The failover phase of the `kv-counters` traced run: the counter mix
/// with the WAL on, at this rate, while partition 0's coordinator is
/// killed and restarted in place.
pub fn failover_phase() -> Workload {
    Workload {
        name: "kv-counters",
        mix: Mix::Counters,
        wal: true,
        rate: 500.0,
        failover: true,
    }
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("rss_mb", "MB")];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. The
/// first four are the headline figures a user sees; they are measured
/// here, not gated as end-to-end metrics, because the hypervisor's CPU
/// steal moves them by more than any bound allows (see the README).
pub const PER_LAYER: [(&str, &str); 52] = [
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("cpu_ms_per_kop", "ms"),
    ("sustainable_ops_s", "1/s"),
    ("steal_pct", "%"),
    ("failed_ratio", "ratio"),
    ("multi_p50_ms", "ms"),
    ("multi_p99_ms", "ms"),
    ("unavailable_ms", "ms"),
    ("gen.late_ms_p99", "ms"),
    ("gen.submit_blocked_ms", "ms"),
    ("client.submit_us_p50", "us"),
    ("client.resends", "count"),
    ("batch.cmds_per_instance", "count"),
    ("batch.depth_mean", "count"),
    ("batch.seal_ns_per_cmd", "ns"),
    ("wire.encode_ns_per_op", "ns"),
    ("wire.decode_ns_per_op", "ns"),
    ("ring.msgs_per_op", "count"),
    ("ring.wire_bytes_per_op", "B"),
    ("ring.pull_misses", "count"),
    ("ring.liveness_fires", "count"),
    ("ring.round_us_per_instance", "us"),
    ("merge.skips_per_delivery", "count"),
    ("merge.lag_mean", "count"),
    ("merge.ns_per_delivery", "ns"),
    ("session.cached_replies", "count"),
    ("session.ns_per_cmd", "ns"),
    ("exec.ns_per_cmd", "ns"),
    ("stage.execute_us", "us"),
    ("wal.commit_us_p50", "us"),
    ("wal.commit_us_p99", "us"),
    ("wal.records_per_commit", "count"),
    ("wal.bytes_per_user_byte", "ratio"),
    ("wal.commit_us", "us"),
    ("ckpt.bytes", "B"),
    ("ckpt.window_us", "us"),
    ("ckpt.us_per_mib", "us"),
    ("recovery.catchup_ms", "ms"),
    ("stage.seal_us", "us"),
    ("stage.propose_us", "us"),
    ("stage.p2send_us", "us"),
    ("stage.decide_us", "us"),
    ("stage.deliver_us", "us"),
    ("stage.reply_us", "us"),
    ("ledger.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.cpu_ms_per_kop", "ms"),
    ("samples.single", "count"),
    ("samples.multi", "count"),
    ("gen.threads", "count"),
    ("gen.connections", "count"),
];

/// The unit of a metric named in either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// True when `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark")
    }

    /// Every `"name": "<value>"` in the section that starts at `key`.
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let rest = &json[start..];
        let end = rest.find(']').expect("section is a list");
        rest[..end]
            .split("\"name\"")
            .skip(1)
            .map(|s| {
                let s = &s[s.find('"').expect("value opens") + 1..];
                s[..s.find('"').expect("value closes")].to_string()
            })
            .collect()
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        for name in &all {
            assert!(valid_name(name), "bad metric name {name}");
        }
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate metric name");
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_names() {
        let json = benchmark_json();
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in(&json, "end_to_end"), e2e);
        assert_eq!(names_in(&json, "per_layer"), layer);
        let wl: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(names_in(&json, "workloads"), wl);
    }

    #[test]
    fn benchmark_json_states_each_offered_rate() {
        let json = benchmark_json();
        for w in WORKLOADS {
            let at = json
                .find(&format!("\"{}\"", w.name))
                .expect("workload listed");
            let why = &json[at..at + json[at..].find('}').expect("entry closes")];
            assert!(
                why.contains(&format!("{} ops/s", w.rate as u64)),
                "{}: why must state the offered rate {}",
                w.name,
                w.rate
            );
        }
    }
}
