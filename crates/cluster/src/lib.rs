#![warn(missing_docs)]

//! # kvs-cluster
//!
//! The distributed prototype of the paper (§V): a master/slave aggregation
//! engine over a DHT-partitioned wide-column store. [`sim`] is a
//! deterministic discrete-event replay of the paper's 16-node cluster:
//! per-message master CPU, network transit, slave queueing and database
//! service (with cross-request interference) are first-class simulated
//! quantities calibrated to the constants the paper reports. The same query
//! on real hardware is `kvs-net`, over loopback TCP sockets. Both record the
//! four methodology stages through `kvs-stages` and return a [`RunResult`].
//!
//! Sub-modules:
//! * [`messages`] — the wire protocol (query / response).
//! * [`codec`] — `Verbose` (Java-default-like) vs `Compact` (Kryo-like)
//!   serialization with measured byte sizes and modelled CPU cost; the
//!   §V-B optimization that turned Figure 1 into Figure 5.
//! * [`usl`] — the database interference model (Universal Scalability Law)
//!   that reproduces Figure 7's parallelism speed-ups.
//! * [`config`] — cluster/hardware presets (`paper_slow_master`,
//!   `paper_optimized_master`).
//! * [`data`] — DHT data placement: partitions → ring → per-node tables.
//! * [`policy`] — replica-selection policies (primary-only, random,
//!   round-robin, least-loaded).
//! * [`queue`] — bounded work queues with observable backpressure, the
//!   worker-pool front of the `kvs-net` TCP slaves.
//! * [`dispatch`] — the read path's dispatcher as one pure machine:
//!   replica pick, credit window, `Busy` back-off, retries, hedging,
//!   failover, deadlines and misses. `kvs-net`'s master drives it over
//!   sockets and [`sim`] over simulated time.
//! * [`coord`] — the replicated write path's coordinator as one pure
//!   machine: ONE/QUORUM/ALL consistency counted over distinct replicas,
//!   LWW versions, read repair, bounded hinted handoff and PCAP-style
//!   staleness accounting. `kvs-net` drives it over sockets and
//!   [`sim::run_replicated`] over simulated time.
//! * [`sim`], [`result`].

pub mod codec;
pub mod config;
pub mod coord;
pub mod data;
pub mod dispatch;
pub mod messages;
pub mod policy;
pub mod queue;
pub mod result;
pub mod sim;
pub mod usl;

pub use codec::{Codec, CodecKind};
pub use config::{
    ClusterConfig, DbConfig, GcConfig, MasterConfig, NetworkConfig, NodeFailure, Straggler,
};
pub use coord::{Consistency, MixedOutcome, OpKind, WriteOptions};
pub use data::ClusterData;
pub use messages::{QueryRequest, QueryResponse, Totals, WriteAck, WriteRequest};
pub use policy::ReplicaPolicy;
pub use queue::QueueStats;
pub use result::{Coverage, RunResult};
pub use sim::{
    db_microbench, run_open_loop, run_query, run_query_paced, run_replicated, DelayFault,
    FaultWindow, OpenLoopResult, ReplicationOutcome, ReplicationSimConfig, SimOp,
};
