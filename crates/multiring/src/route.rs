//! Command → destination-ring routing (genuine atomic multicast).
//!
//! The paper's scalability argument (§3) rests on *genuineness*: a
//! multicast to groups `g ⊆ Γ` involves only the rings of `g`. This
//! module puts the partition-extraction logic into a trait the
//! client/session layer can consult **before** choosing a ring, so
//! single-partition commands ride
//! that partition's own ring and only multi-partition commands touch a
//! shared ring.

use bytes::Bytes;
use common::ids::{PartitionId, RingId};

/// Where a command must be ordered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Destination {
    /// Addressed to a single partition: order on that partition's own
    /// ring. No other ring sees the command — the genuine fast path.
    One(RingId),
    /// Addressed to several partitions: order on `ring` (a ring all of
    /// `partitions` subscribe to) and gather one reply per partition.
    Fanout {
        ring: RingId,
        partitions: Vec<PartitionId>,
    },
}

impl Destination {
    /// The ring the command is proposed on.
    pub fn ring(&self) -> RingId {
        match self {
            Destination::One(r) => *r,
            Destination::Fanout { ring, .. } => *ring,
        }
    }
}

/// Maps an encoded command to its destination ring set.
///
/// Implementations inspect the command's key set (e.g. the kv store's
/// `partition_of`-style hash or range lookup) and translate partitions
/// to rings using the deployment's partition→ring convention.
pub trait Route {
    /// The destination for `cmd`. Implementations must be deterministic
    /// for a given partition-map version: the client and every replica
    /// agree on where a command goes.
    fn route(&self, cmd: &Bytes) -> Destination;
}
