//! Whole-deployment orchestration.
//!
//! [`Deployment::launch`] brings up every node of a
//! [`DeploymentConfig`] in this process — each with its own event-loop
//! thread, peer listener and client listener, all talking real TCP — and
//! supports killing and restarting individual nodes. Tests, examples and
//! the loopback benchmark use it; `amcastd` uses [`start_node`] to run a
//! single node of the same configuration in its own process.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use common::error::{Error, Result};
use common::ids::NodeId;
use common::obs::Obs;
use common::transport::WallClock;
use coord::{CoordClientOptions, Registry};
use multiring::{HostOptions, ServiceApp, SessionLimits};
use storage::wal::{SegmentedWal, SyncPolicy};
use storage::CheckpointStore;

use crate::batch::BatchOptions;
use crate::config::{DeploymentConfig, ServiceKind};
use crate::durable::DurableApp;
use crate::netem::{Netem, NetemControl};
use crate::node::{spawn_node, NodeHandle, NodeSetup};

/// The segment directory holding `node`'s delivered-command WAL and its
/// checkpoint files: `<wal_dir>/node-<id>/`.
pub fn node_wal_dir(wal_dir: &Path, node: NodeId) -> PathBuf {
    wal_dir.join(format!("node-{}", node.raw()))
}

/// Wraps the node's service stack in its rotated, group-committed WAL
/// when the deployment is durable. The WAL reports its appends, commit
/// latency and segment count into the node's `obs`.
fn durable(
    config: &DeploymentConfig,
    node: NodeId,
    inner: Box<dyn ServiceApp>,
    obs: &Obs,
) -> Result<Box<dyn ServiceApp>> {
    let Some(dir) = &config.wal_dir else {
        return Ok(inner);
    };
    let seg_dir = node_wal_dir(dir, node);
    // Resume the position counter past everything ever written, so
    // pruning cutoffs and segment names stay monotone across a
    // restart-in-place.
    let start = SegmentedWal::end_pos(&seg_dir)?;
    // Group commit (one fdatasync per delivered batch) makes the
    // paper's synchronous mode affordable on the delivery path;
    // rotation plus checkpoint-cadence pruning bounds the directory.
    let mut wal = SegmentedWal::open(&seg_dir, SyncPolicy::EveryWrite, config.wal_roll_every)?;
    wal.instrument(obs);
    Ok(Box::new(DurableApp::with_log(inner, Box::new(wal), start)))
}

/// Builds the service stack for one node of `config`: the service, the
/// exactly-once session table around it, and the WAL outside both,
/// logging the full delivered stream.
fn build_stack(config: &DeploymentConfig, node: NodeId, obs: &Obs) -> Result<Box<dyn ServiceApp>> {
    let spec = config
        .node(node)
        .ok_or_else(|| Error::Config(format!("node {node} not in configuration")))?;
    let service: Box<dyn ServiceApp> = match &config.service {
        ServiceKind::MrpStore { .. } => {
            let partition = spec
                .partition
                .ok_or_else(|| Error::Config(format!("mrpstore node {node} needs a partition")))?;
            let scheme = config.initial_scheme().expect("mrpstore deployment");
            Box::new(mrpstore::KvApp::new(partition, scheme))
        }
        ServiceKind::Dlog { logs } => {
            let all: Vec<u16> = (0..*logs).collect();
            Box::new(dlog::DlogApp::new(&all))
        }
        ServiceKind::Echo => Box::new(multiring::EchoApp::new()),
    };
    // The reply-cache cap tracks the credit window so a full window
    // always fits.
    let limits = SessionLimits {
        max_cached: (config.client_window as usize * 2).max(256),
        ..SessionLimits::default()
    };
    let sessions = Box::new(multiring::SessionApp::with_limits(service, limits));
    durable(config, node, sessions, obs)
}

/// Host tuning for live deployments: failure detection on (a dead ring
/// member must be cut out for circulation to resume), rate leveling on
/// (the deterministic merge needs idle rings to emit skips, §4),
/// checkpoints per the config with the §5.2 trim protocol at the same
/// cadence (acceptors drop what a quorum of checkpoints covers),
/// recovery retries snappy enough for tests.
fn host_options(config: &DeploymentConfig) -> HostOptions {
    use std::time::Duration;
    let mut opts = HostOptions {
        ring: ringpaxos::options::RingOptions {
            heartbeat_interval: Duration::from_millis(25),
            failure_timeout: Duration::from_millis(400),
            proposal_retry: Duration::from_millis(500),
            // Tighter than the paper's 5 ms datacenter Δ: on loopback the
            // merge cadence is the latency floor, and skips are cheap.
            rate_leveling: Some(ringpaxos::options::RateLeveling {
                delta: Duration::from_millis(1),
                lambda: 9000,
            }),
            value_push_bytes: config.value_push_bytes,
            ..ringpaxos::options::RingOptions::default()
        },
        checkpoint_interval: config.checkpoint_interval,
        trim_interval: config.checkpoint_interval,
        recovery_retry: Duration::from_millis(100),
        ..HostOptions::default()
    };
    if let Some(geo) = &config.geo {
        // On a shaped WAN the loopback-tuned retries would re-propose
        // and re-fetch while the first attempt is still in flight:
        // give every retry timer room for a few shaped round trips.
        let one_way = geo.max_one_way();
        opts.ring.proposal_retry = opts
            .ring
            .proposal_retry
            .max(one_way * 4 + Duration::from_millis(200));
        opts.ring.failure_timeout = opts
            .ring
            .failure_timeout
            .max(one_way * 2 + Duration::from_millis(300));
        opts.recovery_retry = opts
            .recovery_retry
            .max(one_way * 2 + Duration::from_millis(100));
    }
    opts
}

/// Builds the registry a node of `config` should consult: a connection
/// to the configured `amcoordd` ensemble (seeding it idempotently), or a
/// freshly built in-process registry when the deployment names no
/// coordination service.
///
/// # Errors
///
/// Fails if no `amcoordd` replica is reachable or seeding is rejected.
pub fn connect_registry(config: &DeploymentConfig) -> Result<Registry> {
    if config.coord_addrs.is_empty() {
        return config.build_registry();
    }
    let registry = Registry::connect(
        &config.coord_addrs,
        CoordClientOptions {
            session_ttl: config.session_ttl,
            ..CoordClientOptions::default()
        },
    )?;
    config.seed_registry(&registry)?;
    Ok(registry)
}

/// Starts one node of `config` against `registry` (cold start or
/// recovery restart). `amcastd` calls this once per process; the
/// in-process [`Deployment`] calls it per node with a shared registry.
///
/// # Errors
///
/// Fails if the node is unknown, an address cannot bind, or the WAL
/// cannot open.
pub fn start_node(
    config: &DeploymentConfig,
    registry: Registry,
    clock: WallClock,
    node: NodeId,
    restart: bool,
) -> Result<NodeHandle> {
    start_node_shaped(config, registry, clock, node, restart, None)
}

/// [`start_node`], optionally routing every peer link through a
/// [`Netem`] shaping fabric — the in-process geo-deployment path.
/// (`amcastd` processes always take the unshaped path: netem relays
/// live in the deployment's address space.)
fn start_node_shaped(
    config: &DeploymentConfig,
    registry: Registry,
    clock: WallClock,
    node: NodeId,
    restart: bool,
    netem: Option<&Netem>,
) -> Result<NodeHandle> {
    let spec = config
        .node(node)
        .ok_or_else(|| Error::Config(format!("node {node} not in configuration")))?;
    let batch_opts = BatchOptions {
        max_envelopes: config.batch_max.max(1),
        max_bytes: config.batch_max_bytes.max(1),
        max_delay: config.batch_delay,
    };
    // Under netem a node dials its peers through the per-link relays;
    // pairs the fabric does not shape (and the self entry) stay direct.
    let peer_addrs: HashMap<NodeId, SocketAddr> = config
        .nodes
        .iter()
        .map(|n| {
            let addr = netem
                .and_then(|nt| nt.peer_addr(node, n.id))
                .unwrap_or(n.peer_addr);
            (n.id, addr)
        })
        .collect();
    // Coordination rides the same WAN: a node partitioned from the
    // coordination service's region must lose failure reporting and
    // config reads along with its peer links, or a minority replica
    // could keep evicting healthy members through an out-of-band
    // registry (see `netem::ShapedCoord`).
    let registry = match netem {
        Some(nt) => nt.shaped_registry(node, &registry),
        None => registry,
    };
    let acceptor_of = config
        .rings
        .iter()
        .filter(|r| r.acceptors.contains(&node))
        .map(|r| r.id)
        .collect();
    let member_of = config.member_of(node);
    // One registry per node, shared by every layer of its stack: the
    // same instance rides `host_opts.ring.obs` into the host and rings.
    let obs = Obs::for_node(node.raw());
    obs.set_trace_every(config.trace_sample);
    if let Some(nt) = netem {
        // The node's relayed links count their shaping into this
        // registry (visible via `amcast-cli stats`). Attached before the
        // node loop spawns, so the first relayed chunk already counts.
        nt.attach_obs(node, obs.clone());
    }
    let mut host_opts = host_options(config);
    host_opts.ring.obs = obs.clone();
    // The WAL opens first: it takes the directory's writer lock before
    // the checkpoint store reads the files a previous incarnation left.
    let app = build_stack(config, node, &obs)?;
    let ckpt_store = match &config.wal_dir {
        Some(dir) => CheckpointStore::open_dir(node_wal_dir(dir, node))?,
        None => CheckpointStore::new(host_opts.checkpoint_storage),
    };
    let setup = NodeSetup {
        me: node,
        member_of,
        acceptor_of,
        subscribe_to: config.subscribe_to(node),
        partition: spec.partition,
        registry,
        host_opts,
        batch_opts,
        peer_addrs,
        peer_addr: spec.peer_addr,
        client_addr: spec.client_addr,
        clock,
        client_window: config.client_window,
        credit_min_window: config.credit_min_window,
        credit_backlog_high: config.credit_backlog_high,
        ckpt_store,
        obs,
    };
    spawn_node(setup, app, restart)
}

/// A whole deployment running in this process over localhost TCP.
pub struct Deployment {
    config: DeploymentConfig,
    registry: Registry,
    clock: WallClock,
    nodes: Vec<Option<NodeHandle>>,
    /// The shaping fabric, when the configuration carries a geography.
    netem: Option<Netem>,
}

impl Deployment {
    /// Starts every node of `config`.
    ///
    /// Without a `coord` section every node shares one in-process
    /// registry. With one, each node gets its *own* connection (and TTL
    /// session) to the `amcoordd` ensemble — in-process only in the sense
    /// that the nodes share a pid; their coordination traffic, sessions
    /// and failover flows are exactly the one-process-per-node paths.
    ///
    /// # Errors
    ///
    /// Fails if the configuration is inconsistent or an address cannot
    /// bind.
    pub fn launch(config: DeploymentConfig) -> Result<Self> {
        let registry = connect_registry(&config)?;
        let clock = WallClock::start();
        let netem = match &config.geo {
            Some(_) => Some(Netem::start(&config)?),
            None => None,
        };
        let mut nodes = Vec::new();
        for spec in &config.nodes {
            let node_registry = if config.coord_addrs.is_empty() {
                registry.clone()
            } else {
                connect_registry(&config)?
            };
            nodes.push(Some(start_node_shaped(
                &config,
                node_registry,
                clock,
                spec.id,
                false,
                netem.as_ref(),
            )?));
        }
        Ok(Deployment {
            config,
            registry,
            clock,
            nodes,
            netem,
        })
    }

    /// The deployment's configuration.
    pub fn config(&self) -> &DeploymentConfig {
        &self.config
    }

    /// The shared registry (the deployment's "Zookeeper").
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// `(node, client address)` pairs clients connect to.
    pub fn client_addrs(&self) -> Vec<(NodeId, SocketAddr)> {
        self.config
            .nodes
            .iter()
            .map(|n| (n.id, n.client_addr))
            .collect()
    }

    fn index_of(&self, node: NodeId) -> Result<usize> {
        self.config
            .nodes
            .iter()
            .position(|n| n.id == node)
            .ok_or_else(|| Error::Config(format!("node {node} not in configuration")))
    }

    /// Kills `node`: its threads stop, its sockets close, its volatile
    /// state is gone. Peers detect the silence and reconfigure the rings
    /// around it (paper §5.1).
    ///
    /// The node's WAL lock is verified released before returning, so a
    /// restart-in-place never races the dying node for its log
    /// directory.
    ///
    /// # Errors
    ///
    /// Fails if the node is unknown, already dead, or a WAL lock
    /// outlives the shutdown (a bug this method exists to surface).
    pub fn kill(&mut self, node: NodeId) -> Result<()> {
        let i = self.index_of(node)?;
        let handle = self.nodes[i]
            .take()
            .ok_or_else(|| Error::Config(format!("node {node} is not running")))?;
        handle.shutdown();
        if let Some(dir) = &self.config.wal_dir {
            let lock = SegmentedWal::dir_lock_path(node_wal_dir(dir, node));
            let deadline = Instant::now() + Duration::from_secs(2);
            while lock.exists() {
                if Instant::now() >= deadline {
                    return Err(Error::Storage(format!(
                        "node {node} wal lock {} survived shutdown",
                        lock.display()
                    )));
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        Ok(())
    }

    /// Restarts a killed `node` through the recovery path: it rejoins its
    /// rings, installs the freshest reachable checkpoint and catches up
    /// from the acceptors (paper §5.2). Against an `amcoordd` ensemble
    /// the node comes back with a fresh connection and session (the old
    /// one died with the node, exactly like a restarted process).
    ///
    /// # Errors
    ///
    /// Fails if the node is unknown or still running.
    pub fn restart(&mut self, node: NodeId) -> Result<()> {
        let i = self.index_of(node)?;
        if self.nodes[i].is_some() {
            return Err(Error::Config(format!("node {node} is still running")));
        }
        let registry = if self.config.coord_addrs.is_empty() {
            self.registry.clone()
        } else {
            connect_registry(&self.config)?
        };
        self.nodes[i] = Some(start_node_shaped(
            &self.config,
            registry,
            self.clock,
            node,
            true,
            self.netem.as_ref(),
        )?);
        Ok(())
    }

    /// Runtime control over the deployment's link shaping, when it has a
    /// geography: scenarios partition, degrade and heal regions mid-run
    /// through this handle.
    pub fn netem(&self) -> Option<NetemControl> {
        self.netem.as_ref().map(Netem::control)
    }

    /// The address a client *in* `region` should use to reach `node` —
    /// a shaped relay when the deployment has a geography, the direct
    /// client address otherwise.
    ///
    /// # Errors
    ///
    /// Fails for unknown nodes or when the relay cannot bind.
    pub fn client_addr_from(&self, region: &str, node: NodeId) -> Result<SocketAddr> {
        let spec = self
            .config
            .node(node)
            .ok_or_else(|| Error::Config(format!("node {node} not in configuration")))?;
        match &self.netem {
            Some(nt) => nt.client_addr(region, node),
            None => Ok(spec.client_addr),
        }
    }

    /// A copy of the configuration as seen by a client *in* `region`:
    /// every client address rewritten to a shaped relay. Hand it to
    /// [`crate::LiveClient::connect`] (or the service facades) to put
    /// the client behind the region's WAN links.
    ///
    /// # Errors
    ///
    /// Fails when a relay cannot bind.
    pub fn config_from(&self, region: &str) -> Result<DeploymentConfig> {
        let mut config = self.config.clone();
        for spec in &mut config.nodes {
            spec.client_addr = match &self.netem {
                Some(nt) => nt.client_addr(region, spec.id)?,
                None => spec.client_addr,
            };
        }
        Ok(config)
    }

    /// True when `node` is currently running.
    pub fn is_running(&self, node: NodeId) -> bool {
        self.index_of(node)
            .map(|i| self.nodes[i].is_some())
            .unwrap_or(false)
    }

    /// Stops every running node (and the shaping fabric, if any).
    pub fn shutdown(mut self) {
        for handle in self.nodes.iter_mut().filter_map(Option::take) {
            handle.shutdown();
        }
        if let Some(netem) = self.netem.take() {
            netem.stop();
        }
    }
}
