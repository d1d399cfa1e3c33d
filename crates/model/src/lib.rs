#![warn(missing_docs)]

//! # kvs-model
//!
//! The paper's primary contribution: an analytical performance model of
//! distributed queries on key-value data stores, synthesized from the
//! benchmarking methodology's measurements (§VI) and usable to answer the
//! design questions of §VII.
//!
//! The model's skeleton is Formula 2:
//!
//! ```text
//! T = max{ master_speed, slave_slowest, result_fetching }
//! ```
//!
//! with
//!
//! * `master_speed = keys · t_msg`                          — [`master`], Formula 3
//! * `slave_slowest = key_max · DB_model`                   — [`system`], Formula 4
//! * `key_max` from balls-into-bins                         — `kvs_balance`, Formula 5
//! * `DB_model = query_time / parallelism`                  — [`dbmodel`], Formulas 6–8
//!
//! [`regression`] provides the fitting machinery (ordinary least squares,
//! two-segment piecewise, log-linear) that turns raw measurements — ours or
//! anyone's — into model coefficients: "it would simply require to run the
//! same tests on the different hardware/software stack and create a new
//! regression" (§VI). [`gc`] adds the garbage-collector correction of
//! Figure 8, [`optimizer`] finds the optimal partition count (Figures 9 and
//! 10), and [`limits`] reproduces the single-master scalability analysis of
//! Figure 11 and §VII. [`tiering`] extends the device side to the
//! hierarchical storage stack of the paper's §IX future work.

pub mod architecture;
pub mod dbmodel;
pub mod gc;
pub mod limits;
pub mod master;
pub mod optimizer;
pub mod regression;
pub mod sensitivity;
pub mod system;
pub mod tiering;
pub mod validation;

pub use architecture::{evaluate as evaluate_architecture, ArchPrediction, Architecture};
pub use dbmodel::DbModel;
pub use gc::GcModel;
pub use master::MasterModel;
pub use optimizer::{optimize_partitions, OptimalChoice};
pub use regression::{LinearFit, LogLinearFit, PiecewiseFit};
pub use sensitivity::{dominant_parameter, sensitivities, Parameter, Sensitivity};
pub use system::{Prediction, SystemModel};
pub use tiering::{StorageHierarchy, Tier};
