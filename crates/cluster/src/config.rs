//! Cluster configuration and the paper's two hardware/software presets.

use crate::codec::Codec;
use crate::policy::ReplicaPolicy;
use kvs_simcore::SimDuration;
use kvs_store::CostModel;

/// Star-topology network model (every node hangs off one switch, as in the
/// paper's cluster).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    /// One-way propagation + switching latency.
    pub latency: SimDuration,
    /// Effective link bandwidth in bytes/second. The paper measured 7.5 MB
    /// crossing its GbE star in ≈ 7 ms — an effective ≈ 1.07 GB/s out of
    /// the master (offloaded/overlapped transmission), which we adopt.
    pub bandwidth_bytes_per_sec: f64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            latency: SimDuration::from_micros(50),
            bandwidth_bytes_per_sec: 1.07e9,
        }
    }
}

impl NetworkConfig {
    /// Transit time for a message of `bytes` bytes.
    pub fn transit(&self, bytes: usize) -> SimDuration {
        self.latency + SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bytes_per_sec)
    }
}

/// JVM garbage-collector model (the paper's Figure 8 needed a GC
/// correction for the coarse-grained workload).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GcConfig {
    /// Master: a stop-the-world pause is charged every `master_msgs_per_pause`
    /// messages processed (allocation-driven young-gen collections).
    pub master_msgs_per_pause: u64,
    /// Master pause duration.
    pub master_pause: SimDuration,
    /// Slaves: large reads allocate proportionally to the cells they
    /// materialize; the extra GC time is quadratic in row size:
    /// `extra_ms = coeff · (cells/1000)²`. At 10 000 cells (coarse) this is
    /// ≈ 14 % of the read; at 1 000 cells (medium) it is negligible —
    /// matching the paper's "only correction … for policy coarse-grain".
    pub db_quadratic_ms_per_kcell_sq: f64,
    /// Master switch.
    pub enabled: bool,
}

impl Default for GcConfig {
    fn default() -> Self {
        GcConfig {
            master_msgs_per_pause: 2_000,
            master_pause: SimDuration::from_millis(12),
            db_quadratic_ms_per_kcell_sq: 0.6,
            enabled: true,
        }
    }
}

impl GcConfig {
    /// GC disabled entirely (ablations, model-noise isolation).
    pub fn disabled() -> Self {
        GcConfig {
            enabled: false,
            ..Default::default()
        }
    }

    /// Extra database service time for a read of `cells` cells, ms.
    pub fn db_extra_ms(&self, cells: u64) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        let kcells = cells as f64 / 1_000.0;
        self.db_quadratic_ms_per_kcell_sq * kcells * kcells
    }
}

/// Master-node cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MasterConfig {
    /// The serialization strategy (carries the per-message CPU costs).
    pub codec: Codec,
    /// Extra per-message CPU beyond serialization (logging, integrity
    /// checks — the second §V-B optimization), µs. Already included in the
    /// codec presets' totals, so 0 by default; exposed for ablations.
    pub extra_tx_us: f64,
}

/// Per-slave database execution model.
#[derive(Debug, Clone, PartialEq)]
pub struct DbConfig {
    /// Requests a slave admits into the database concurrently (the paper
    /// swept 1..64; its hardware had 16 threads).
    pub parallelism: usize,
    /// Receipt → milliseconds conversion.
    pub cost: CostModel,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            parallelism: 16,
            cost: CostModel::paper_cassandra(),
        }
    }
}

/// An injected node failure (failure-injection testing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeFailure {
    /// The node that fails.
    pub node: u32,
    /// When it fails, relative to query start. From then on a frame
    /// reaching the node is dropped, though it still serves what it had
    /// accepted; the master learns of the death `failure_timeout` later
    /// and fails over whatever the node has not answered by then.
    pub at: SimDuration,
}

/// An injected straggler: a node whose responses are sometimes late (the
/// GC pause / slow-disk / noisy-neighbor tail the paper's Formula 4 makes
/// the whole query wait on).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Straggler {
    /// The afflicted node.
    pub node: u32,
    /// Extra response-path delay when the straggle fires.
    pub extra: SimDuration,
    /// Per-response probability of the delay (seeded draw; deterministic
    /// for a fixed config seed).
    pub probability: f64,
}

/// Everything a simulated run needs besides the data and the key list.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of slave nodes.
    pub nodes: u32,
    /// Network model.
    pub network: NetworkConfig,
    /// Master cost model.
    pub master: MasterConfig,
    /// Database model.
    pub db: DbConfig,
    /// GC model.
    pub gc: GcConfig,
    /// How the master picks a replica for each sub-query.
    pub replica_policy: ReplicaPolicy,
    /// Number of coordinating masters the key space is sharded over
    /// (1 = the paper's prototype; >1 models the GFS-style multi-master
    /// evolution discussed in §VIII).
    pub master_shards: usize,
    /// Replication factor (1 = the paper's main experiments).
    pub replication_factor: usize,
    /// Injected node failures (empty = the paper's healthy-cluster runs).
    pub failures: Vec<NodeFailure>,
    /// How long after a node's death the master learns of it, as the socket
    /// master learns of a dropped connection, and fails its requests over.
    pub failure_timeout: SimDuration,
    /// Injected stragglers (empty = no artificial tail).
    pub stragglers: Vec<Straggler>,
    /// Hedged replica reads: when set, a request still unanswered this long
    /// after its first send is re-issued to the least suspect other
    /// replica; first-response-wins. The read dispatcher decides it, as it
    /// does for `kvs-net`'s master, and the chaos drill cross-validates
    /// measured tail cuts against it.
    pub hedge: Option<SimDuration>,
    /// Degraded mode: a sub-query whose every replica is dead completes as
    /// a recorded miss ([`crate::Coverage`]` < 1`) instead of panicking.
    pub degraded: bool,
    /// Master RNG seed (drives service noise and random policies).
    pub seed: u64,
}

impl ClusterConfig {
    /// The paper's original prototype (§V-A/Figure 1): default Java
    /// serialization, 150 µs per message.
    pub fn paper_slow_master(nodes: u32) -> Self {
        ClusterConfig {
            nodes,
            network: NetworkConfig::default(),
            master: MasterConfig {
                codec: Codec::verbose(),
                extra_tx_us: 0.0,
            },
            db: DbConfig::default(),
            gc: GcConfig::default(),
            replica_policy: ReplicaPolicy::Primary,
            master_shards: 1,
            replication_factor: 1,
            failures: Vec::new(),
            failure_timeout: SimDuration::from_millis(500),
            stragglers: Vec::new(),
            hedge: None,
            degraded: false,
            seed: 0x5EED,
        }
    }

    /// The optimized prototype (§V-B/Figure 5): Kryo-like codec, 19 µs per
    /// message.
    pub fn paper_optimized_master(nodes: u32) -> Self {
        ClusterConfig {
            master: MasterConfig {
                codec: Codec::compact(),
                extra_tx_us: 0.0,
            },
            ..Self::paper_slow_master(nodes)
        }
    }

    /// Removes all stochastic noise (unit tests, exact model validation).
    pub fn deterministic(mut self) -> Self {
        self.db.cost = self.db.cost.deterministic();
        self.gc.enabled = false;
        self
    }

    /// The calibration profile used by the Figure 6/7 procedures: keeps the
    /// log-normal measurement spread but strips the heavy-tail mixture and
    /// the GC surcharge. The paper's calibration runs "several repetitions"
    /// and fits the bulk of the scatter; rare 6× outliers and the
    /// (separately modelled, §VI-b) GC time would otherwise dominate the
    /// least-squares fits.
    pub fn calibration(mut self) -> Self {
        self.db.cost.tail_probability = 0.0;
        self.gc.enabled = false;
        self
    }

    /// Master CPU time to serialize and dispatch one request.
    pub fn master_tx_time(&self) -> SimDuration {
        SimDuration::from_micros_f64(self.master.codec.tx_cpu_us + self.master.extra_tx_us)
    }

    /// Master CPU time to receive and deserialize one response.
    pub fn master_rx_time(&self) -> SimDuration {
        SimDuration::from_micros_f64(self.master.codec.rx_cpu_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_transit_combines_latency_and_bandwidth() {
        let net = NetworkConfig::default();
        let small = net.transit(100);
        let large = net.transit(7_500_000);
        assert!(small >= net.latency);
        // The paper's measurement: 7.5 MB ≈ 7 ms.
        let ms = large.as_millis_f64();
        assert!((ms - 7.0).abs() < 0.5, "7.5 MB took {ms} ms");
    }

    #[test]
    fn paper_presets_differ_only_in_master() {
        let slow = ClusterConfig::paper_slow_master(16);
        let fast = ClusterConfig::paper_optimized_master(16);
        assert_eq!(slow.nodes, fast.nodes);
        assert_eq!(slow.db, fast.db);
        assert!(slow.master_tx_time() > fast.master_tx_time() * 7);
        // 10 000 messages: 1.5 s slow vs 190 ms fast (§V-B).
        let slow_total = slow.master_tx_time() * 10_000;
        let fast_total = fast.master_tx_time() * 10_000;
        assert!((slow_total.as_secs_f64() - 1.5).abs() < 0.01);
        assert!((fast_total.as_millis_f64() - 190.0).abs() < 5.0);
    }

    #[test]
    fn gc_is_quadratic_and_switchable() {
        let gc = GcConfig::default();
        let at_10k = gc.db_extra_ms(10_000);
        let at_1k = gc.db_extra_ms(1_000);
        assert!((at_10k / at_1k - 100.0).abs() < 1e-6, "not quadratic");
        // Coarse reads (~440 ms) get a noticeable but not dominant hit.
        assert!(at_10k > 20.0 && at_10k < 120.0, "{at_10k}");
        assert_eq!(GcConfig::disabled().db_extra_ms(10_000), 0.0);
    }

    #[test]
    fn deterministic_strips_noise() {
        let cfg = ClusterConfig::paper_slow_master(4).deterministic();
        assert_eq!(cfg.db.cost.service_cv, 0.0);
        assert!(!cfg.gc.enabled);
    }

    #[test]
    fn calibration_keeps_spread_drops_tails_and_gc() {
        let cfg = ClusterConfig::paper_optimized_master(4).calibration();
        assert!(cfg.db.cost.service_cv > 0.0, "spread must survive");
        assert_eq!(cfg.db.cost.tail_probability, 0.0);
        assert!(!cfg.gc.enabled);
    }
}
