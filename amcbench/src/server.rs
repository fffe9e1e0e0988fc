//! The server process.
//!
//! The deployment runs in a child process of its own, so its CPU time
//! and memory exclude the generator and the client library. The parent
//! talks to it over stdin/stdout, one line per command:
//! `kill N`, `restart N`, `quit` (end of input also quits).

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Lines, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

use common::ids::{NodeId, RingId};
use liverun::{Deployment, DeploymentConfig};

use crate::spec::{Mix, DATA_LOGS};

/// Deployment knobs shared by every workload.
pub const BATCH_MAX: usize = 64;
/// Batch timer, ms.
pub const BATCH_DELAY_MS: u64 = 2;
/// Largest batch payload, bytes.
pub const BATCH_MAX_BYTES: usize = 32 * 1024;
/// Checkpoint cadence, ms.
pub const CHECKPOINT_MS: u64 = 2000;

/// Nodes of the deployment a mix runs on.
pub fn node_count(mix: Mix) -> usize {
    match mix {
        Mix::DlogStream => 3,
        _ => 6,
    }
}

/// The deployment document for `mix` on the given ports (two per node:
/// peer, client).
pub fn config_text(mix: Mix, ports: &[u16], wal_dir: Option<&Path>, trace_sample: u64) -> String {
    let mut out = String::from("[deployment]\n");
    match mix {
        Mix::DlogStream => {
            out.push_str("service = \"dlog\"\n");
            let _ = writeln!(out, "logs = {DATA_LOGS}");
        }
        _ => out.push_str("service = \"mrpstore\"\npartitions = 2\n"),
    }
    let _ = writeln!(out, "batch_max = {BATCH_MAX}");
    let _ = writeln!(out, "batch_max_bytes = {BATCH_MAX_BYTES}");
    let _ = writeln!(out, "batch_delay_ms = {BATCH_DELAY_MS}");
    let _ = writeln!(out, "checkpoint_ms = {CHECKPOINT_MS}");
    let _ = writeln!(out, "trace_sample = {trace_sample}");
    if let Some(dir) = wal_dir {
        let _ = writeln!(out, "wal_dir = \"{}\"", dir.display());
    }
    let n = node_count(mix);
    for id in 0..n {
        let partition = match mix {
            Mix::DlogStream => 0,
            _ => id / 3,
        };
        let _ = writeln!(
            out,
            "\n[[node]]\nid = {id}\npeer_addr = \"127.0.0.1:{}\"\nclient_addr = \"127.0.0.1:{}\"\npartition = {partition}",
            ports[2 * id],
            ports[2 * id + 1]
        );
    }
    let list =
        |ids: std::ops::Range<usize>| ids.map(|i| i.to_string()).collect::<Vec<_>>().join(", ");
    let ring = |out: &mut String, id: usize, members: &str| {
        let _ = writeln!(
            out,
            "\n[[ring]]\nid = {id}\nmembers = [{members}]\nacceptors = [{members}]"
        );
    };
    match mix {
        Mix::DlogStream => {
            let all = list(0..3);
            for r in 0..=usize::from(DATA_LOGS) {
                ring(&mut out, r, &all);
            }
            let rings = list(0..usize::from(DATA_LOGS) + 1);
            let _ = writeln!(
                out,
                "\n[[partition]]\nid = 0\nrings = [{rings}]\nreplicas = [{all}]"
            );
        }
        _ => {
            for p in 0..2 {
                ring(&mut out, p, &list(3 * p..3 * p + 3));
            }
            ring(&mut out, 2, &list(0..6));
            for p in 0..2 {
                let _ = writeln!(
                    out,
                    "\n[[partition]]\nid = {p}\nrings = [{p}, 2]\nreplicas = [{}]",
                    list(3 * p..3 * p + 3)
                );
            }
        }
    }
    out
}

/// `n` distinct free ephemeral ports on localhost.
pub fn free_ports(n: usize) -> std::io::Result<Vec<u16>> {
    let listeners = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<std::io::Result<Vec<_>>>()?;
    listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.port()))
        .collect()
}

/// Child side: launches the deployment described by `config_path` and
/// serves control commands until `quit` or end of input.
pub fn serve(config_path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(config_path).map_err(|e| e.to_string())?;
    let config = DeploymentConfig::parse(&text).map_err(|e| e.to_string())?;
    let mut dep = Deployment::launch(config).map_err(|e| e.to_string())?;
    let coordinator = dep
        .registry()
        .ring(RingId::new(0))
        .map_err(|e| e.to_string())?
        .coordinator();
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready {}", coordinator.raw()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let mut words = line.split_whitespace();
        let verb = words.next().unwrap_or("");
        let node = words
            .next()
            .and_then(|w| w.parse::<u32>().ok())
            .map(NodeId::new);
        let answer = match (verb, node) {
            ("quit", _) => break,
            ("kill", Some(n)) => dep.kill(n).map(|()| "ok".to_string()),
            ("restart", Some(n)) => dep.restart(n).map(|()| "ok".to_string()),
            _ => Ok(format!("err unknown command {line:?}")),
        }
        .unwrap_or_else(|e| format!("err {e}"));
        writeln!(out, "{answer}").map_err(|e| e.to_string())?;
        out.flush().map_err(|e| e.to_string())?;
    }
    dep.shutdown();
    let threads = thread_count();
    writeln!(out, "bye {threads}").map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())
}

/// User + system CPU time of the process whose `stat` file is `path`
/// (`/proc/self/stat` for this one), nanoseconds.
pub fn process_cpu_ns(path: &str) -> u64 {
    let stat = std::fs::read_to_string(path).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 (1-based) in clock ticks of 10 ms.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .map(|w| w.parse().unwrap_or(0))
        .collect();
    let ticks = f.get(11).copied().unwrap_or(0) + f.get(12).copied().unwrap_or(0);
    ticks * 10_000_000
}

/// Threads of the calling process.
pub fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

/// What teardown verified.
#[derive(Clone, Debug, Default)]
pub struct Teardown {
    /// Threads still alive in the server after `Deployment::shutdown`
    /// returned, main thread included. Informational: the process exit
    /// that follows ends them.
    pub server_threads_after_shutdown: usize,
    /// Ports still held by a listener after the server exited.
    pub ports_held: usize,
    /// WAL lock files left behind.
    pub wal_locks: usize,
    /// Client-library threads of the generator still alive after the
    /// server exited (beyond those alive before set-up).
    pub client_threads_left: usize,
}

impl Teardown {
    /// Nothing survived.
    pub fn clean(&self) -> bool {
        self.ports_held == 0 && self.wal_locks == 0 && self.client_threads_left == 0
    }
}

/// Parent side: one running server process.
pub struct Server {
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    lines: Lines<BufReader<ChildStdout>>,
    /// Scratch directory of this server (config, log, WAL).
    pub dir: PathBuf,
    /// The deployment it runs.
    pub config: DeploymentConfig,
    /// Coordinator of ring 0 at launch.
    pub coordinator: NodeId,
    ports: Vec<u16>,
}

impl Server {
    /// Starts a server for `mix` in a fresh directory `dir` (which must
    /// not exist), on fresh ports, and waits until it serves.
    pub fn launch(mix: Mix, dir: &Path, wal: bool, trace_sample: u64) -> Result<Server, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let dir = dir.canonicalize().map_err(|e| e.to_string())?;
        let ports = free_ports(2 * node_count(mix)).map_err(|e| e.to_string())?;
        let wal_dir = wal.then(|| dir.join("wal"));
        let text = config_text(mix, &ports, wal_dir.as_deref(), trace_sample);
        let config = DeploymentConfig::parse(&text).map_err(|e| e.to_string())?;
        let path = dir.join("deployment.toml");
        std::fs::write(&path, text).map_err(|e| e.to_string())?;
        let log = std::fs::File::create(dir.join("server.log")).map_err(|e| e.to_string())?;
        let mut child = Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
            .arg("serve")
            .arg(&path)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| e.to_string())?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("piped stdout");
        let mut server = Server {
            child: Some(child),
            stdin,
            lines: BufReader::new(stdout).lines(),
            dir,
            config,
            coordinator: NodeId::new(0),
            ports,
        };
        let ready = server.read_line()?;
        let coordinator = ready
            .strip_prefix("ready ")
            .and_then(|n| n.trim().parse::<u32>().ok())
            .ok_or_else(|| format!("server did not start: {ready:?}"))?;
        server.coordinator = NodeId::new(coordinator);
        Ok(server)
    }

    fn read_line(&mut self) -> Result<String, String> {
        match self.lines.next() {
            Some(Ok(l)) => Ok(l),
            Some(Err(e)) => Err(e.to_string()),
            None => Err(format!(
                "server exited; see {}",
                self.dir.join("server.log").display()
            )),
        }
    }

    /// Sends one control command and returns the answer line.
    pub fn command(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("server input closed")?;
        writeln!(stdin, "{line}").map_err(|e| e.to_string())?;
        stdin.flush().map_err(|e| e.to_string())?;
        let answer = self.read_line()?;
        if answer == "ok" {
            Ok(())
        } else {
            Err(format!("{line}: {answer}"))
        }
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// User + system CPU time the server process has used, nanoseconds.
    pub fn cpu_ns(&self) -> u64 {
        process_cpu_ns(&format!("/proc/{}/stat", self.pid()))
    }

    /// Peak resident memory of the server process, bytes.
    pub fn rss_peak_bytes(&self) -> u64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
            .map_or(0, |kb| kb * 1024)
    }

    /// Client address of every node.
    pub fn client_addrs(&self) -> Vec<(NodeId, SocketAddr)> {
        self.config
            .nodes
            .iter()
            .map(|n| (n.id, n.client_addr))
            .collect()
    }

    /// Stops the server and verifies that nothing survived it: no node
    /// thread, no listener on its ports, no WAL lock. Removes its
    /// directory when clean.
    pub fn stop(mut self) -> Result<Teardown, String> {
        let mut td = Teardown::default();
        if let Some(stdin) = self.stdin.as_mut() {
            let _ = writeln!(stdin, "quit");
            let _ = stdin.flush();
        }
        self.stdin = None;
        let bye = self.read_line()?;
        td.server_threads_after_shutdown = bye
            .strip_prefix("bye ")
            .and_then(|n| n.trim().parse().ok())
            .ok_or_else(|| format!("server did not shut down cleanly: {bye:?}"))?;
        let mut child = self.child.take().expect("server child present");
        let status = child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        td.ports_held = self
            .ports
            .iter()
            .filter(|p| TcpListener::bind(("127.0.0.1", **p)).is_err())
            .count();
        td.wal_locks = count_locks(&self.dir.join("wal"));
        if td.clean() {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
        Ok(td)
    }
}

fn count_locks(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let p = e.path();
            if p.is_dir() {
                count_locks(&p)
            } else {
                usize::from(p.extension().is_some_and(|x| x == "lock"))
            }
        })
        .sum()
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Size of everything under `dir`, bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let p = e.path();
            if p.is_dir() {
                dir_bytes(&p)
            } else {
                e.metadata().map_or(0, |m| m.len())
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_documents_parse() {
        for mix in [Mix::YcsbA, Mix::Counters, Mix::DlogStream] {
            let ports: Vec<u16> = (20000..20000 + 2 * node_count(mix) as u16).collect();
            let text = config_text(mix, &ports, Some(Path::new("wal")), 16);
            let config = DeploymentConfig::parse(&text).expect("document parses");
            assert_eq!(config.nodes.len(), node_count(mix));
            assert_eq!(config.trace_sample, 16);
        }
    }
}
