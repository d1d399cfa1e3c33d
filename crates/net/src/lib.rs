#![warn(missing_docs)]

//! # kvs-net
//!
//! The paper's master/slave aggregation query over real TCP sockets. Where
//! `kvs-cluster`'s [`sim`](kvs_cluster::sim) replays the hardware, this
//! crate puts the same query on the wire:
//!
//! * [`frame`] — the length-prefixed, CRC-checksummed frame format that
//!   carries codec-encoded bodies plus the wall-clock timestamps the four
//!   methodology stages are reconstructed from;
//! * [`server`] — [`SlaveServer`]: a TCP front-end over one node's
//!   [`kvs_store::Table`], on either medium, with a bounded work queue
//!   ([`kvs_cluster::queue`]) that answers `Busy` when saturated and a
//!   worker pool of the paper's per-node parallelism;
//! * [`master`] — [`NetMaster`]: a connection pool over all slaves with
//!   per-request deadlines, bounded retries, hedged replica reads and
//!   phi-accrual failure detection, producing the same
//!   [`kvs_cluster::RunResult`] as the simulator;
//! * [`phi`] — [`PhiAccrual`]: the continuous suspicion level the master
//!   orders replicas by (Hayashibara et al., SRDS 2004);
//! * [`latency`] — [`LatencyTracker`]: online per-node latency histogram
//!   + EWMA, the source of the hedge-delay quantile;
//! * [`local`] — [`spawn_local_cluster`]: N servers on ephemeral loopback
//!   ports with deterministic shutdown, for tests and benchmarks; its
//!   durable twin [`spawn_local_cluster_durable`] persists every node
//!   under a directory ([`kvs_store::DurableTable`]) so a kill drops the
//!   node's memory outright and a restart runs real crash recovery —
//!   WAL replay, manifest load, orphan cleanup;
//! * [`calibrate`] — [`calibrate_t_msg`]: measures the per-message master
//!   cost on the real socket path, producing a [`kvs_model::MasterModel`]
//!   so the Figure 11 saturation sweep can re-run on measured constants;
//! * [`chaos`] — [`ChaosProxy`]: a deterministic fault-injection TCP
//!   interposer (delay/drop/duplicate/truncate/corrupt/disconnect/
//!   blackhole, driven by a seeded [`ChaosSchedule`]) that the robustness
//!   suite places between master and slaves to exercise the failover
//!   path under byte-accurate faults;
//! * [`write_path`] — the replicated write path: [`NetMaster::run_mixed`]
//!   runs reads, LWW writes and RMWs at per-request consistency levels
//!   (ONE/QUORUM/ALL), with read-repair, bounded hinted handoff for
//!   suspected-dead replicas, and replay-on-recovery
//!   ([`NetMaster::replay_hints`]). It runs [`kvs_cluster::coord`]'s
//!   coordinator over sockets, the machine that
//!   [`kvs_cluster::sim::run_replicated`] also runs.

pub mod calibrate;
pub mod chaos;
pub mod clock;
pub mod frame;
mod ioutil;
pub mod latency;
pub mod local;
pub mod master;
pub mod phi;
pub mod server;
pub mod write_path;

pub use calibrate::{calibrate_t_msg, TMsgCalibration};
pub use chaos::{
    wrap_cluster, ChaosDirection, ChaosProxy, ChaosRule, ChaosSchedule, ChaosStats, FaultAction,
};
pub use frame::{Frame, FrameError, FrameKind};
pub use latency::LatencyTracker;
pub use local::{
    spawn_local_cluster, spawn_local_cluster_durable, DurableClusterConfig, LocalCluster,
};
pub use master::{
    HedgeConfig, MissedPartition, NetConfig, NetMaster, NetRunReport, QueryMode, Route,
};
pub use phi::PhiAccrual;
pub use server::{NetServerConfig, SlaveHandle, SlaveServer};
pub use write_path::{MixedOp, MixedOutcome, MixedPlan, WriteOptions};
