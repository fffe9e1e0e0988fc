//! `amcoordd` — one replica of the amcoord coordination service.
//!
//! ```text
//! # A 3-replica localhost ensemble (run each line in its own process):
//! amcoordd --id 0 --ring 127.0.0.1:7700,127.0.0.1:7701,127.0.0.1:7702 \
//!          --serve 127.0.0.1:7710,127.0.0.1:7711,127.0.0.1:7712
//! amcoordd --id 1 --ring ...same... --serve ...same...
//! amcoordd --id 2 --ring ...same... --serve ...same...
//! ```
//!
//! Every replica is launched with the *same* static address lists (like a
//! Zookeeper server list) and the index of the slot it occupies. `--ring`
//! addresses carry the ensemble's own Ring Paxos traffic; `--serve`
//! addresses accept coordination clients (`amcastd` nodes, tools).
//! `--wal-dir` persists the replica's decided log; `--session-check-ms`
//! tunes the expiry sweep.

use std::process::ExitCode;
use std::time::Duration;

use common::ids::NodeId;
use liverun::coordsvc::{start_coord_server, CoordServerConfig};

fn usage() -> &'static str {
    "usage:
  amcoordd --id N --ring ADDR,ADDR,... --serve ADDR,ADDR,...
           [--wal-dir DIR] [--session-check-ms MS] [--checkpoint-every N]"
}

/// The value following flag `name`: `Ok(None)` when the flag is absent,
/// `Err` when it is the last argument.
fn arg(name: &str) -> Result<Option<String>, ()> {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args.get(i + 1).cloned().map(Some).ok_or(()),
    }
}

/// Flag `name` parsed as a `T`, `default` when absent; `Err` when it is
/// present but has no value or does not parse.
fn parsed<T: std::str::FromStr>(name: &str, default: T) -> Result<T, ()> {
    match arg(name)? {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| ()),
    }
}

fn addr_list(raw: &str) -> Result<Vec<std::net::SocketAddr>, ()> {
    raw.split(',')
        .map(|a| a.trim().parse().map_err(|_| ()))
        .collect::<Result<Vec<_>, ()>>()
        .and_then(|v| if v.is_empty() { Err(()) } else { Ok(v) })
}

fn parse_config() -> Result<CoordServerConfig, ()> {
    let required = |name: &str| arg(name)?.ok_or(());
    Ok(CoordServerConfig {
        id: NodeId::new(required("--id")?.parse().map_err(|_| ())?),
        ring_addrs: addr_list(&required("--ring")?)?,
        client_addrs: addr_list(&required("--serve")?)?,
        wal_dir: arg("--wal-dir")?.map(std::path::PathBuf::from),
        session_check: Duration::from_millis(parsed("--session-check-ms", 500)?),
        checkpoint_every: parsed("--checkpoint-every", 256)?,
    })
}

fn main() -> ExitCode {
    // A malformed flag fails loudly: falling back to its default would
    // silently drop the operator's setting.
    let Ok(config) = parse_config() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let id = config.id.raw();
    match start_coord_server(config) {
        Ok(handle) => {
            eprintln!(
                "amcoordd: replica {id} up — serving coordination clients on {}",
                handle.client_addr()
            );
            loop {
                std::thread::park();
            }
        }
        Err(e) => {
            eprintln!("amcoordd: {e}");
            ExitCode::FAILURE
        }
    }
}
