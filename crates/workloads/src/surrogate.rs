//! Surrogate-model DHT scenario (Lübke et al., PAPERS.md).
//!
//! An HPC simulation loop repeatedly needs an expensive kernel evaluated
//! at a point of a continuous input space. A surrogate cache keys the
//! kernel's coefficients by the *discretized* input: on a hit the stored
//! coefficients are reused; on a miss the kernel runs (charged at
//! [`SurrogateConfig::compute_ms`]) and its result is inserted. Because
//! simulation trajectories revisit neighbourhoods, the hit-rate climbs
//! as the table fills — the scenario measures that curve, and the
//! store's [`ReadReceipt`] accounting splits lookup cost into
//! RAM-vs-disk the same way the durable tier's drill does.
//!
//! The input trajectory is a bounded random walk over the unit cube with
//! occasional uniform restarts (a crude but standard stand-in for
//! parameter-sweep locality). Every random draw comes from one seeded
//! generator and the draw sequence does not depend on hit/miss results,
//! so a replayed seed reproduces the exact key — and therefore hit/miss
//! — sequence ([`walk_keys`] exposes it without touching a store).

use crate::keydist::scatter;
use kvs_store::{Cell, CostModel, Medium, PartitionKey, ReadReceipt, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Key prefix for surrogate grid entries (avoids colliding with the
/// `PartitionKey::from_id` namespace used by the query workloads).
pub const GRID_KEY_PREFIX: u8 = b'G';

/// Cell kind tag for stored surrogate coefficients.
pub const COEFF_KIND: u8 = 7;

/// Discretization grid over the unit cube `[0,1)^dims`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridSpec {
    /// Input-space dimensionality.
    pub dims: u32,
    /// Cells per axis.
    pub cells_per_dim: u64,
}

impl GridSpec {
    /// Total number of grid cells (`cells_per_dim ^ dims`).
    pub fn cell_count(&self) -> u64 {
        self.cells_per_dim.pow(self.dims)
    }

    /// Grid cell id of a point (mixed-radix over the axes).
    ///
    /// # Panics
    /// If a coordinate is outside `[0, 1)`.
    pub fn key_of(&self, point: &[f64]) -> u64 {
        assert_eq!(point.len(), self.dims as usize);
        let mut id = 0u64;
        for &x in point {
            assert!((0.0..1.0).contains(&x), "point coordinate {x} out of [0,1)");
            let axis = ((x * self.cells_per_dim as f64) as u64).min(self.cells_per_dim - 1);
            id = id * self.cells_per_dim + axis;
        }
        id
    }

    /// Partition key of a grid cell id.
    pub fn partition_key(id: u64) -> PartitionKey {
        let mut bytes = Vec::with_capacity(9);
        bytes.push(GRID_KEY_PREFIX);
        bytes.extend_from_slice(&id.to_be_bytes());
        PartitionKey::new(bytes)
    }
}

/// Parameters of one surrogate-DHT run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurrogateConfig {
    /// Discretization grid.
    pub grid: GridSpec,
    /// Simulation steps (one lookup each).
    pub steps: u64,
    /// Max per-axis move per step, in unit-cube units.
    pub walk_step: f64,
    /// Probability a step restarts uniformly instead of walking.
    pub jump_probability: f64,
    /// Simulated cost of running the expensive kernel on a miss, ms.
    pub compute_ms: f64,
    /// Coefficient cells stored per surrogate entry.
    pub coeff_cells: u64,
    /// Steps per hit-rate window of the reported curve.
    pub window: u64,
}

impl SurrogateConfig {
    /// A small configuration that still shows the hit-rate climb: a 2-D
    /// 32×32 grid (1024 cells) walked for 4096 steps.
    pub fn smoke() -> Self {
        SurrogateConfig {
            grid: GridSpec {
                dims: 2,
                cells_per_dim: 32,
            },
            steps: 4096,
            walk_step: 0.05,
            jump_probability: 0.02,
            // A kernel worth caching: ~100× a warm lookup.
            compute_ms: 120.0,
            coeff_cells: 16,
            window: 256,
        }
    }
}

/// One simulation step of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurrogateStep {
    /// Grid cell id the step queried.
    pub key: u64,
    /// Whether the surrogate table already held the entry.
    pub hit: bool,
    /// Simulated time the step paid (lookup, plus kernel on a miss), ms.
    pub service_ms: f64,
}

/// Aggregate result of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct SurrogateOutcome {
    /// Per-step records, in order.
    pub steps: Vec<SurrogateStep>,
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses (kernel executions).
    pub misses: u64,
    /// Distinct grid cells inserted.
    pub unique_keys: u64,
    /// Hit-rate per [`SurrogateConfig::window`]-step window.
    pub hit_curve: Vec<f64>,
    /// Aggregate read accounting across every lookup (disk-vs-cache
    /// split comes from `disk_blocks_read` / `disk_block_cache_hits`).
    pub receipt: ReadReceipt,
    /// Total simulated time, ms.
    pub total_ms: f64,
}

impl SurrogateOutcome {
    /// Overall hit-rate.
    pub fn hit_rate(&self) -> f64 {
        if self.steps.is_empty() {
            0.0
        } else {
            self.hits as f64 / self.steps.len() as f64
        }
    }
}

/// A store the surrogate loop can run against. `fetch` must not create
/// the entry; `store` must make a subsequent `fetch` return its cells.
pub trait SurrogateBackend {
    /// Reads a partition, returning its cells and the work receipt.
    fn fetch(&mut self, pk: &PartitionKey) -> (Vec<Cell>, ReadReceipt);
    /// Inserts the coefficient cells of a partition.
    fn store(&mut self, pk: PartitionKey, cells: Vec<Cell>);
}

/// The store's table on either medium; a failed disk read or write is a
/// broken run, not a miss.
impl<M: Medium> SurrogateBackend for Table<M> {
    fn fetch(&mut self, pk: &PartitionKey) -> (Vec<Cell>, ReadReceipt) {
        M::into_result(self.get(pk)).expect("surrogate read")
    }

    fn store(&mut self, pk: PartitionKey, cells: Vec<Cell>) {
        M::into_result(self.put_all(&pk, cells)).expect("surrogate write");
    }
}

/// Coefficient cells stored for grid cell `key` — synthetic payloads
/// whose clustering keys are scattered so SSTable layouts look like real
/// multi-column rows rather than a single dense run.
fn coeff_cells(key: u64, count: u64) -> Vec<Cell> {
    (0..count)
        .map(|c| Cell::synthetic(scatter(key.wrapping_add(c), u64::MAX), COEFF_KIND))
        .collect()
}

/// The deterministic grid-cell sequence of a run — the walk alone,
/// without a store. `run_surrogate` with the same `(cfg, seed)` queries
/// exactly these keys in this order.
pub fn walk_keys(cfg: &SurrogateConfig, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pos = vec![0.0f64; cfg.grid.dims as usize];
    let mut out = Vec::with_capacity(cfg.steps as usize);
    for x in pos.iter_mut() {
        *x = rng.gen::<f64>();
    }
    for _ in 0..cfg.steps {
        out.push(cfg.grid.key_of(&pos));
        step_walk(cfg, &mut rng, &mut pos);
    }
    out
}

fn step_walk(cfg: &SurrogateConfig, rng: &mut StdRng, pos: &mut [f64]) {
    if rng.gen_bool(cfg.jump_probability) {
        for x in pos.iter_mut() {
            *x = rng.gen::<f64>();
        }
        return;
    }
    for x in pos.iter_mut() {
        let delta = (rng.gen::<f64>() * 2.0 - 1.0) * cfg.walk_step;
        // Reflect at the cube faces so the walk stays bounded without
        // piling probability mass on the boundary the way clamping does.
        let mut next = *x + delta;
        if next < 0.0 {
            next = -next;
        }
        if next >= 1.0 {
            next = 2.0 - next - f64::EPSILON;
        }
        *x = next.clamp(0.0, f64::from_bits(1.0f64.to_bits() - 1));
    }
}

/// Runs the surrogate loop against `backend`, charging lookup time via
/// `cost` and kernel time via [`SurrogateConfig::compute_ms`].
pub fn run_surrogate<B: SurrogateBackend>(
    cfg: &SurrogateConfig,
    backend: &mut B,
    cost: &CostModel,
    seed: u64,
) -> SurrogateOutcome {
    let keys = walk_keys(cfg, seed);
    let mut steps = Vec::with_capacity(keys.len());
    let mut receipt = ReadReceipt::default();
    let (mut hits, mut misses, mut unique_keys) = (0u64, 0u64, 0u64);
    let mut total_ms = 0.0;
    for key in keys {
        let pk = GridSpec::partition_key(key);
        let (cells, r) = backend.fetch(&pk);
        receipt.absorb(&r);
        let hit = !cells.is_empty();
        let mut service_ms = cost.service_ms(&r);
        if hit {
            hits += 1;
        } else {
            misses += 1;
            service_ms += cfg.compute_ms;
            backend.store(pk, coeff_cells(key, cfg.coeff_cells));
            unique_keys += 1;
        }
        total_ms += service_ms;
        steps.push(SurrogateStep {
            key,
            hit,
            service_ms,
        });
    }
    let hit_curve = steps
        .chunks(cfg.window.max(1) as usize)
        .map(|w| w.iter().filter(|s| s.hit).count() as f64 / w.len() as f64)
        .collect();
    SurrogateOutcome {
        steps,
        hits,
        misses,
        unique_keys,
        hit_curve,
        receipt,
        total_ms,
    }
}

/// Read-only probe: whether each grid cell currently exists in
/// `backend`. Used by the monotonicity property test — probing never
/// inserts, so hit counts against a fixed key list are a pure function
/// of the backend's contents.
pub fn probe_hits<B: SurrogateBackend>(backend: &mut B, keys: &[u64]) -> Vec<bool> {
    keys.iter()
        .map(|&k| !backend.fetch(&GridSpec::partition_key(k)).0.is_empty())
        .collect()
}

/// Inserts grid cells `0..count` directly (pre-filling for sweeps).
pub fn prefill<B: SurrogateBackend>(backend: &mut B, cfg: &SurrogateConfig, count: u64) {
    for key in 0..count.min(cfg.grid.cell_count()) {
        backend.store(
            GridSpec::partition_key(key),
            coeff_cells(key, cfg.coeff_cells),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        Table::with_defaults()
    }

    #[test]
    fn grid_key_is_mixed_radix_and_bounded() {
        let g = GridSpec {
            dims: 2,
            cells_per_dim: 10,
        };
        assert_eq!(g.cell_count(), 100);
        assert_eq!(g.key_of(&[0.0, 0.0]), 0);
        assert_eq!(g.key_of(&[0.15, 0.95]), 19);
        assert_eq!(g.key_of(&[0.999, 0.999]), 99);
    }

    #[test]
    fn walk_is_deterministic_and_local() {
        let cfg = SurrogateConfig::smoke();
        let a = walk_keys(&cfg, 9);
        let b = walk_keys(&cfg, 9);
        assert_eq!(a, b);
        assert_ne!(a, walk_keys(&cfg, 10));
        // Locality: consecutive steps mostly stay in the same cell or a
        // neighbour, so distinct-key count is far below step count.
        let distinct: std::collections::BTreeSet<u64> = a.iter().copied().collect();
        assert!(distinct.len() < a.len() / 2, "{} distinct", distinct.len());
    }

    #[test]
    fn replay_reproduces_hit_miss_sequence() {
        let cfg = SurrogateConfig::smoke();
        let cost = CostModel::paper_cassandra().deterministic();
        let a = run_surrogate(&cfg, &mut table(), &cost, 77);
        let b = run_surrogate(&cfg, &mut table(), &cost, 77);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.hit_curve, b.hit_curve);
    }

    #[test]
    fn hit_rate_climbs_as_table_fills() {
        let cfg = SurrogateConfig::smoke();
        let cost = CostModel::paper_cassandra().deterministic();
        let out = run_surrogate(&cfg, &mut table(), &cost, 3);
        assert_eq!(out.hits + out.misses, cfg.steps);
        assert_eq!(out.unique_keys, out.misses);
        let first = out.hit_curve.first().copied().unwrap();
        let last = out.hit_curve.last().copied().unwrap();
        assert!(
            last > first + 0.1,
            "hit-rate never climbed: first {first} last {last}"
        );
    }

    #[test]
    fn misses_pay_the_kernel() {
        let cfg = SurrogateConfig::smoke();
        let cost = CostModel::paper_cassandra().deterministic();
        let out = run_surrogate(&cfg, &mut table(), &cost, 5);
        for s in &out.steps {
            if s.hit {
                assert!(s.service_ms < cfg.compute_ms, "{}", s.service_ms);
            } else {
                assert!(s.service_ms >= cfg.compute_ms, "{}", s.service_ms);
            }
        }
    }

    #[test]
    fn probe_is_read_only() {
        let cfg = SurrogateConfig::smoke();
        let mut t = table();
        prefill(&mut t, &cfg, 8);
        let keys: Vec<u64> = (0..16).collect();
        let first = probe_hits(&mut t, &keys);
        let again = probe_hits(&mut t, &keys);
        assert_eq!(first, again);
        assert_eq!(first.iter().filter(|h| **h).count(), 8);
    }
}
