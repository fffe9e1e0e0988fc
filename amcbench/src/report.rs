//! Result assembly: JSON output, the run fingerprint, metric math.

use std::fmt::{self, Write as _};
use std::path::Path;
use std::process::Command;

use crate::spec::unit_of;

/// A JSON value (enough of one for the benchmark's output).
#[derive(Clone, Debug)]
pub enum Json {
    Num(f64),
    Int(i64),
    Bool(bool),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Num(v) if v.is_finite() => write!(f, "{v}"),
            Json::Num(_) => f.write_str("null"),
            Json::Int(v) => write!(f, "{v}"),
            Json::Bool(v) => write!(f, "{v}"),
            Json::Str(s) => {
                f.write_char('"')?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => f.write_char(c)?,
                    }
                }
                f.write_char('"')
            }
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_char(']')
            }
            Json::Obj(pairs) => {
                f.write_char('{')?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{}: {v}", Json::Str(k.clone()))?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Named metric values in emission order.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    /// Records `name = value`.
    pub fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(crate::spec::valid_name(name), "bad metric name {name}");
        self.0.push((name, value));
    }

    /// The result object's `metrics` member: `{name: {value, unit}}`.
    pub fn to_json(&self) -> Json {
        Json::obj(self.0.iter().map(|(n, v)| {
            let unit = unit_of(n).expect("every emitted metric is in the dictionary");
            (
                *n,
                Json::obj([("value", Json::Num(*v)), ("unit", Json::str(unit))]),
            )
        }))
    }
}

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The filesystem type `path` lives on, from the mount table.
fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() > 2 && path.starts_with(f[1])).then(|| (f[1].len(), f[2].to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// Hardware and build fingerprint of this run.
pub fn fingerprint(scratch: &Path) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Int(nproc as i64)),
        ("cpu_model", Json::str(cpu)),
        ("kernel", Json::str(kernel)),
        ("wal_fs", Json::str(fs_type(scratch))),
        ("rustc", Json::str(first_line("rustc", &["--version"]))),
        (
            "commit",
            Json::str(first_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

/// Share of the machine's CPU time the hypervisor gave to other guests
/// (`steal` in `/proc/stat`) since [`StealMeter::start`]. On a shared
/// virtual machine this, not the code, sets how much of the box a run
/// gets; the run record carries it so noisy runs can be told apart.
pub struct StealMeter((u64, u64));

fn cpu_totals() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().unwrap_or(0))
        .collect();
    (f.iter().take(8).sum(), f.get(7).copied().unwrap_or(0))
}

impl StealMeter {
    /// Starts measuring.
    pub fn start() -> StealMeter {
        StealMeter(cpu_totals())
    }

    /// Stolen share of all CPU time since the start, percent.
    pub fn pct(&self) -> f64 {
        let (total, steal) = cpu_totals();
        let dt = total.saturating_sub(self.0 .0);
        if dt == 0 {
            0.0
        } else {
            steal.saturating_sub(self.0 .1) as f64 * 100.0 / dt as f64
        }
    }
}

/// Median of `v` (0 when empty).
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_renders_and_escapes() {
        let j = Json::obj([
            ("a", Json::Num(1.5)),
            ("b", Json::str("x\"y")),
            ("c", Json::Arr(vec![Json::Int(1), Json::Bool(true)])),
        ]);
        assert_eq!(j.to_string(), r#"{"a": 1.5, "b": "x\"y", "c": [1, true]}"#);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
