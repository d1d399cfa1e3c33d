#![warn(missing_docs)]

//! # kvs-simcore
//!
//! A small, deterministic discrete-event simulation (DES) substrate used by
//! the `kvscale` workspace to model distributed key-value clusters.
//!
//! The paper this workspace reproduces ("Exploiting key-value data stores
//! scalability for HPC", ICPP 2017) ran its experiments on a 16-node
//! on-premises cluster. We do not have that hardware, so every experiment is
//! replayed on a virtual cluster driven by this engine. The engine is:
//!
//! * **Deterministic** — all randomness flows through named [`rng::RngHub`]
//!   streams derived from a single master seed, so every figure is exactly
//!   reproducible.
//! * **Single-threaded** — one event calendar, [`EventQueue`], fires typed
//!   events in (time, scheduling order); a model's events are its own
//!   `enum` over indices into its state, so an event costs a heap entry
//!   and no allocation. [`Station`] is a FIFO `c`-server queue whose
//!   completions the model schedules itself. [`Engine`] is the same
//!   calendar with closures for events, for models too small to name them.
//! * **Observable** — [`stats`] provides online moments, percentiles and
//!   histograms used by the analysis layers.
//!
//! ## Quick example
//!
//! A one-server station fed two jobs at t = 0, each needing 5 ms:
//!
//! ```
//! use kvs_simcore::{EventQueue, SimDuration, Station};
//!
//! enum Event {
//!     Arrive(u32),
//!     Done(u32),
//! }
//! let service = SimDuration::from_millis(5);
//! let mut calendar = EventQueue::new();
//! let mut db = Station::new(1);
//! calendar.schedule_in(SimDuration::ZERO, Event::Arrive(0));
//! calendar.schedule_in(SimDuration::ZERO, Event::Arrive(1));
//! let mut finished = Vec::new();
//! while let Some(event) = calendar.pop() {
//!     let started = match event {
//!         Event::Arrive(job) => db.arrive(job),
//!         Event::Done(job) => {
//!             finished.push((job, calendar.now().as_millis_f64()));
//!             db.finish()
//!         }
//!     };
//!     if let Some(job) = started {
//!         calendar.schedule_in(service, Event::Done(job));
//!     }
//! }
//! assert_eq!(finished, [(0, 5.0), (1, 10.0)]);
//! ```
//!
//! The same clock with a closure per event:
//!
//! ```
//! use kvs_simcore::{Engine, SimDuration};
//!
//! let mut eng = Engine::new();
//! let flag = std::rc::Rc::new(std::cell::Cell::new(0u32));
//! let f2 = flag.clone();
//! eng.schedule_in(SimDuration::from_millis(5), move |_eng| {
//!     f2.set(42);
//! });
//! eng.run();
//! assert_eq!(flag.get(), 42);
//! assert_eq!(eng.now().as_millis_f64(), 5.0);
//! ```

pub mod dist;
pub mod engine;
pub mod event;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use dist::Dist;
pub use engine::Engine;
pub use event::{EventId, EventQueue};
pub use resource::Station;
pub use rng::RngHub;
pub use stats::{Histogram, OnlineStats, Summary};
pub use time::{SimDuration, SimTime};
