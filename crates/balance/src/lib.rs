#![warn(missing_docs)]

//! # kvs-balance
//!
//! Load-balance theory for Distributed Hash Tables: the "heavily loaded"
//! balls-into-bins analysis the paper builds its imbalance model on
//! (Berenbrink et al., *Balanced Allocations: The Heavily Loaded Case*,
//! SIAM J. Comput. 2006), plus the machinery around it:
//!
//! * [`formula`] — closed forms: the paper's Formula 1 (relative imbalance
//!   `p ≈ sqrt(ln n · n / m)`) and Formula 5 (expected keys on the most
//!   loaded node).
//! * [`simulation`] — Monte-Carlo balls-into-bins: single choice, power of
//!   two choices, `d` choices; max-load densities (Figure 3 of the paper is
//!   regenerated from here).
//! * [`weighted`] — weighted keys (the §II phone-book example: Zipf-sized
//!   cities) and the effective-key-count reduction the paper uses for its
//!   21 % → 35 % city numbers.
//! * [`hashing`] — a consistent-hash ring with virtual nodes, the DHT
//!   placement substrate used by `kvs-cluster`.

pub mod formula;
pub mod hashing;
pub mod simulation;
pub mod weighted;

pub use formula::{expected_max_load, imbalance_ratio, keymax};
pub use hashing::{HashRing, NodeId};
pub use simulation::{max_load_density, MaxLoadDensity, Placement};
