//! MRP-Store: a partitioned, strongly consistent key-value store built on
//! Multi-Ring Paxos (paper §6.1, Table 1).

pub mod command;
pub mod partitioning;
pub mod store;

pub use command::{KvCommand, KvResponse};
pub use partitioning::Partitioning;
pub use store::KvApp;
