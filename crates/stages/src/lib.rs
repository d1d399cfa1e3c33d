#![warn(missing_docs)]

//! # kvs-stages
//!
//! High-resolution request-stage tracing — the workspace's reimplementation
//! of the role Aeneas played in the paper (§IV-B): "the best approach is to
//! identify the primary data flow phases and to record the time that
//! requests spend in each of them".
//!
//! The four stages are the paper's own (§V-B):
//!
//! 1. [`Stage::MasterToSlave`] — master issues a request → slave receives it
//! 2. [`Stage::InQueue`] — request waits at the slave before the database
//! 3. [`Stage::InDb`] — the database serves it
//! 4. [`Stage::SlaveToMaster`] — the partial result travels back
//!
//! [`TraceRecorder`] collects one [`RequestTrace`] per sub-query;
//! [`analysis::analyze`] condenses them into per-stage/per-node summaries
//! and classifies the dominant bottleneck the way §V-B does by eye
//! (master-bound / database-saturated / workload-imbalanced); [`gantt`]
//! renders the Figure 4 stage profile as text.

pub mod analysis;
pub mod gantt;
pub mod report;
pub mod stage;
pub mod trace;

pub use analysis::{analyze, Bottleneck, StageReport};
pub use stage::Stage;
pub use trace::{RequestTrace, Span, TraceRecorder};
