//! Hierarchical storage tiers — the paper's §IX future work, implemented.
//!
//! "As a future work, we aim to extend our model to consider hierarchical
//! storage architectures such as the recently presented KNL Intel CPU …
//! multiple levels of storage, with an hierarchy between two kinds of ram
//! memory, NVM, and SSD and rotational disks. We aim to extend the model to
//! predict the time of serving requests out of each of these devices."
//!
//! [`StorageHierarchy`] models an ordered stack of devices; a dataset fills
//! them waterfall-style (hottest data in the fastest tier), and a read of a
//! row whose placement is uniform over the dataset pays each tier's seek +
//! transfer cost in proportion to the residency split. This produces the
//! device-capacity "steps" in response time as the working set grows — the
//! design signal the paper wanted the extended model to expose.

/// One storage device class.
#[derive(Debug, Clone, PartialEq)]
pub struct Tier {
    /// Human-readable device name.
    pub name: &'static str,
    /// Usable capacity in bytes.
    pub capacity_bytes: u64,
    /// Fixed per-request cost of touching this device, µs (seek/queue).
    pub access_latency_us: f64,
    /// Streaming bandwidth in bytes per millisecond.
    pub bandwidth_bytes_per_ms: f64,
}

/// An ordered storage stack, fastest first.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageHierarchy {
    tiers: Vec<Tier>,
}

impl StorageHierarchy {
    /// Builds a hierarchy from tiers ordered fastest → slowest.
    ///
    /// # Panics
    /// If `tiers` is empty or any capacity/bandwidth is zero.
    pub fn new(tiers: Vec<Tier>) -> Self {
        assert!(!tiers.is_empty(), "need at least one tier");
        for t in &tiers {
            assert!(t.capacity_bytes > 0, "{}: zero capacity", t.name);
            assert!(t.bandwidth_bytes_per_ms > 0.0, "{}: zero bandwidth", t.name);
        }
        StorageHierarchy { tiers }
    }

    /// A Knights-Landing-era hierarchy: on-package MCDRAM, DDR4, NVM, SATA
    /// SSD and a rotational disk (§IX's example).
    pub fn knl_like() -> Self {
        StorageHierarchy::new(vec![
            Tier {
                name: "MCDRAM",
                capacity_bytes: 16 << 30,
                access_latency_us: 0.15,
                bandwidth_bytes_per_ms: 400e6,
            },
            Tier {
                name: "DDR4",
                capacity_bytes: 96 << 30,
                access_latency_us: 0.3,
                bandwidth_bytes_per_ms: 90e6,
            },
            Tier {
                name: "NVM",
                capacity_bytes: 512 << 30,
                access_latency_us: 10.0,
                bandwidth_bytes_per_ms: 20e6,
            },
            Tier {
                name: "SSD",
                capacity_bytes: 2 << 40,
                access_latency_us: 90.0,
                bandwidth_bytes_per_ms: 5e6,
            },
            Tier {
                name: "HDD",
                capacity_bytes: 8 << 40,
                access_latency_us: 8_000.0,
                bandwidth_bytes_per_ms: 1.5e6,
            },
        ])
    }

    /// The tiers, fastest first.
    pub fn tiers(&self) -> &[Tier] {
        &self.tiers
    }

    /// Waterfall residency of a `working_set` bytes dataset: the fraction
    /// living on each tier, filling fastest tiers first. Data beyond the
    /// stack's total capacity is attributed to the slowest tier (an
    /// overflowing deployment still has to read it from somewhere).
    pub fn residency(&self, working_set: u64) -> Vec<f64> {
        if working_set == 0 {
            let mut r = vec![0.0; self.tiers.len()];
            r[0] = 1.0;
            return r;
        }
        let mut remaining = working_set;
        let mut split = Vec::with_capacity(self.tiers.len());
        for (i, tier) in self.tiers.iter().enumerate() {
            let here = if i + 1 == self.tiers.len() {
                remaining // slowest tier absorbs any overflow
            } else {
                remaining.min(tier.capacity_bytes)
            };
            split.push(here as f64 / working_set as f64);
            remaining -= here;
        }
        split
    }

    /// Expected time to read `bytes` of row data out of a `working_set`
    /// dataset whose rows are uniformly spread over the residency split,
    /// in ms.
    pub fn read_ms(&self, bytes: u64, working_set: u64) -> f64 {
        self.residency(working_set)
            .iter()
            .zip(&self.tiers)
            .filter(|(frac, _)| **frac > 0.0)
            .map(|(frac, tier)| {
                frac * (tier.access_latency_us / 1_000.0
                    + bytes as f64 / tier.bandwidth_bytes_per_ms)
            })
            .sum()
    }

    /// The working-set sizes where the expected read cost jumps — the
    /// cumulative tier capacities (design-relevant "cliff" points).
    pub fn capacity_cliffs(&self) -> Vec<(&'static str, u64)> {
        let mut acc = 0u64;
        self.tiers
            .iter()
            .take(self.tiers.len() - 1)
            .map(|t| {
                acc += t.capacity_bytes;
                (t.name, acc)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tier() -> StorageHierarchy {
        StorageHierarchy::new(vec![
            Tier {
                name: "ram",
                capacity_bytes: 1_000,
                access_latency_us: 1.0,
                bandwidth_bytes_per_ms: 1_000.0,
            },
            Tier {
                name: "disk",
                capacity_bytes: 9_000,
                access_latency_us: 1_000.0,
                bandwidth_bytes_per_ms: 100.0,
            },
        ])
    }

    #[test]
    fn residency_waterfalls() {
        let h = two_tier();
        assert_eq!(h.residency(500), vec![1.0, 0.0]);
        assert_eq!(h.residency(2_000), vec![0.5, 0.5]);
        assert_eq!(h.residency(10_000), vec![0.1, 0.9]);
        // Overflow goes to the slowest tier.
        let over = h.residency(100_000);
        assert!((over[0] - 0.01).abs() < 1e-12);
        assert!((over[1] - 0.99).abs() < 1e-12);
        let sum: f64 = over.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_working_set_is_fast_tier() {
        let h = two_tier();
        assert_eq!(h.residency(0), vec![1.0, 0.0]);
    }

    #[test]
    fn read_cost_grows_with_working_set() {
        let h = two_tier();
        let in_ram = h.read_ms(100, 500);
        let half = h.read_ms(100, 2_000);
        let mostly_disk = h.read_ms(100, 10_000);
        assert!(in_ram < half && half < mostly_disk);
        // Fully-in-RAM read: 1 µs + 100/1000 ms = 0.101 ms.
        assert!((in_ram - 0.101).abs() < 1e-9);
    }

    #[test]
    fn cliffs_are_cumulative_capacities() {
        let h = StorageHierarchy::knl_like();
        let cliffs = h.capacity_cliffs();
        assert_eq!(cliffs.len(), 4);
        assert_eq!(cliffs[0].0, "MCDRAM");
        assert_eq!(cliffs[0].1, 16 << 30);
        assert_eq!(cliffs[1].1, (16 << 30) + (96 << 30));
        // Cliffs strictly increase.
        assert!(cliffs.windows(2).all(|w| w[0].1 < w[1].1));
    }

    #[test]
    fn knl_tiers_are_ordered_fast_to_slow() {
        let h = StorageHierarchy::knl_like();
        let lat: Vec<f64> = h.tiers().iter().map(|t| t.access_latency_us).collect();
        assert!(lat.windows(2).all(|w| w[0] <= w[1]), "{lat:?}");
        let bw: Vec<f64> = h.tiers().iter().map(|t| t.bandwidth_bytes_per_ms).collect();
        assert!(bw.windows(2).all(|w| w[0] >= w[1]), "{bw:?}");
    }

    #[test]
    fn read_cost_steps_at_cliffs() {
        let h = StorageHierarchy::knl_like();
        let row = 65_536u64; // one 64 KiB row
        let before = h.read_ms(row, (16u64 << 30) - (1 << 20));
        let after = h.read_ms(row, 20u64 << 30);
        assert!(
            after > before * 1.2,
            "no step at the MCDRAM cliff: {before} → {after}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one tier")]
    fn empty_hierarchy_rejected() {
        let _ = StorageHierarchy::new(Vec::new());
    }
}
