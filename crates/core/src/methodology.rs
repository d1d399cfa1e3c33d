//! The four-step methodology (§IV) as a single driveable API.

use kvs_cluster::{db_microbench, run_query, ClusterConfig, ClusterData, RunResult};
use kvs_model::dbmodel::{ParallelismModel, QueryTimeModel};
use kvs_model::optimizer::{optimize_partitions, OptimalChoice};
use kvs_model::regression::{fit_loglinear, fit_piecewise, LogLinearFit, PiecewiseFit};
use kvs_model::{DbModel, MasterModel, SystemModel};
use kvs_simcore::stats::percentile_sorted;
use kvs_simcore::RngHub;
use kvs_stages::gantt::{render, GanttOptions};
use kvs_stages::Bottleneck;
use kvs_store::{PartitionKey, TableOptions};
use kvs_workloads::sampling::{figure7_groups, partitions_with_sizes, stratified_sizes};
use kvs_workloads::DataModel;

pub use kvs_cluster::sim::{DbSample, MicrobenchResult};

/// A reproducibility study: the paper's methodology bound to one cluster
/// configuration and dataset size.
#[derive(Debug, Clone)]
pub struct Study {
    /// The cluster template; its `nodes` field is overridden per run.
    pub config: ClusterConfig,
    /// Total dataset size in elements (the paper uses one million).
    pub total_elements: u64,
    /// Number of cell kinds in the synthetic data.
    pub kinds: u8,
    /// Store options for the per-node tables.
    pub table_options: TableOptions,
}

impl Study {
    /// A study with the paper's *optimized* master preset.
    pub fn new(total_elements: u64) -> Self {
        Study {
            config: ClusterConfig::paper_optimized_master(1),
            total_elements,
            kinds: 4,
            table_options: TableOptions::default(),
        }
    }

    /// A study with the paper's original slow master (Figure 1 conditions).
    pub fn with_slow_master(total_elements: u64) -> Self {
        Study {
            config: ClusterConfig::paper_slow_master(1),
            ..Self::new(total_elements)
        }
    }

    fn config_for(&self, nodes: u32) -> ClusterConfig {
        let mut cfg = self.config.clone();
        cfg.nodes = nodes;
        cfg
    }

    /// Loads one data model onto a fresh cluster of `nodes` nodes and runs
    /// the full aggregation query (steps 2–3 happen implicitly: the result
    /// carries traces and the bottleneck classification).
    pub fn run(&self, model: DataModel, nodes: u32) -> RunResult {
        let cfg = self.config_for(nodes);
        let partitions = model.build_partitions(self.total_elements, self.kinds);
        let keys: Vec<PartitionKey> = partitions.iter().map(|(pk, _)| pk.clone()).collect();
        let mut data = ClusterData::load(
            nodes,
            cfg.replication_factor,
            self.table_options.clone(),
            partitions,
        );
        run_query(&cfg, &mut data, &keys)
    }

    /// Runs an *arbitrary* granularity (e.g. the optimizer's Figure 9
    /// recommendation) instead of one of the paper's three presets.
    pub fn run_custom(&self, partitions: u64, nodes: u32) -> RunResult {
        let cfg = self.config_for(nodes);
        let parts = kvs_workloads::datamodels::custom_partitions(
            self.total_elements,
            partitions,
            self.kinds,
        );
        let keys: Vec<PartitionKey> = parts.iter().map(|(pk, _)| pk.clone()).collect();
        let mut data = ClusterData::load(
            nodes,
            cfg.replication_factor,
            self.table_options.clone(),
            parts,
        );
        run_query(&cfg, &mut data, &keys)
    }

    /// Step 1: the scalability analysis of Figures 1 / 5 — every data
    /// model on every cluster size, with ideal and balanced baselines.
    pub fn scalability(&self, models: &[DataModel], node_counts: &[u32]) -> ScalabilityTable {
        let mut cells = Vec::new();
        for &model in models {
            let mut single_node_ms = None;
            for &nodes in node_counts {
                let result = self.run(model, nodes);
                let observed_ms = result.makespan.as_millis_f64();
                if nodes == 1 {
                    single_node_ms = Some(observed_ms);
                }
                let ideal_ms = single_node_ms
                    .map(|t1| t1 / nodes as f64)
                    .unwrap_or(f64::NAN);
                cells.push(ScalabilityCell {
                    model,
                    nodes,
                    observed_ms,
                    ideal_ms,
                    balanced_ms: result.balanced_time().as_millis_f64(),
                    load_excess: result.load_excess(),
                    bottleneck: result.report.bottleneck,
                });
            }
        }
        ScalabilityTable { cells }
    }

    /// Steps 2–3 for one configuration: the run plus a rendered Figure-4
    /// style stage profile.
    pub fn profile(&self, model: DataModel, nodes: u32) -> (RunResult, String) {
        let result = self.run(model, nodes);
        let gantt = render(&result.traces, GanttOptions::default());
        (result, gantt)
    }

    /// Step 4: replay the Figure 6 and Figure 7 calibrations on this
    /// study's (virtual) hardware and fit the model's regressions.
    ///
    /// * Figure 6 — a stratified row-size sample read serially; piecewise
    ///   fit recovers `query_time(s)` including the column-index
    ///   breakpoint.
    /// * Figure 7 — size-banded groups swept over client parallelism; the
    ///   per-band *max* speed-up is fitted log-linearly.
    pub fn calibrate(&self) -> CalibratedModel {
        let hub = RngHub::new(self.config.seed ^ 0xCA11B7A7E);
        let mut rng = hub.stream("calibration");
        // ---- Figure 6 ----
        let max_size = 10_000u64.min(self.total_elements.max(200));
        let sizes = stratified_sizes(1, max_size, 20, 6, &mut rng);
        let parts = partitions_with_sizes(&sizes, self.kinds);
        let keys: Vec<PartitionKey> = parts.iter().map(|(pk, _)| pk.clone()).collect();
        // Calibration profile (no heavy tails, no GC) + per-key medians over
        // repetitions — the paper's "several repetitions of our test".
        let cfg = self.config_for(1).calibration();
        let mut data = ClusterData::load(1, 1, self.table_options.clone(), parts);
        const REPS: usize = 5;
        let serial: Vec<_> = (0..REPS)
            .map(|r| db_microbench(&cfg, &mut data, &keys, 1, &format!("fig6-rep{r}")))
            .collect();
        let mut xs = Vec::with_capacity(keys.len());
        let mut ys = Vec::with_capacity(keys.len());
        for i in 0..keys.len() {
            let mut times: Vec<f64> = serial.iter().map(|run| run.samples[i].ms).collect();
            times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            xs.push(serial[0].samples[i].cells as f64);
            ys.push(percentile_sorted(&times, 0.5));
        }
        let piecewise = fit_piecewise(&xs, &ys).expect("figure-6 sample too small to fit");

        // ---- Figure 7 ----
        let bands = 20usize;
        let band_width = (max_size / bands as u64).max(1);
        let groups = figure7_groups(bands, band_width, 6, &mut rng);
        let mut group_sizes = Vec::new();
        let mut group_speedups = Vec::new();
        for (g, sizes) in groups.iter().enumerate() {
            let parts = partitions_with_sizes(sizes, self.kinds);
            let keys: Vec<PartitionKey> = parts.iter().map(|(pk, _)| pk.clone()).collect();
            // "we execute several repetitions of our test reading in random
            // order the rows we selected" — cycling the group's keys gives
            // the closed loop enough jobs to actually reach each tested
            // parallelism level.
            let jobs: Vec<PartitionKey> = keys.iter().cycle().take(256).cloned().collect();
            let mut data = ClusterData::load(1, 1, self.table_options.clone(), parts);
            let baseline = db_microbench(&cfg, &mut data, &jobs, 1, &format!("fig7-{g}"));
            let mut best = 1.0f64;
            for parallelism in [2usize, 4, 8, 16, 32, 64] {
                let run = db_microbench(&cfg, &mut data, &jobs, parallelism, &format!("fig7-{g}"));
                if run.total_ms > 0.0 {
                    best = best.max(baseline.total_ms / run.total_ms);
                }
            }
            let mean_size = sizes.iter().sum::<u64>() as f64 / sizes.len() as f64;
            group_sizes.push(mean_size);
            group_speedups.push(best);
        }
        let loglin = fit_loglinear(&group_sizes, &group_speedups).expect("figure-7 fit failed");

        let db = DbModel {
            query_time: QueryTimeModel::from_fit(&piecewise),
            parallelism: ParallelismModel::from_fit(&loglin),
        };
        let master = MasterModel {
            tx_us_per_msg: self.config.master.codec.tx_cpu_us + self.config.master.extra_tx_us,
            rx_us_per_msg: self.config.master.codec.rx_cpu_us,
        };
        CalibratedModel {
            system: SystemModel {
                master,
                db,
                gc: None,
            },
            piecewise,
            loglin,
            total_elements: self.total_elements,
        }
    }
}

impl Study {
    /// Runs the *whole* methodology — scalability sweep, bottleneck
    /// classification, calibration, optimization — and renders one text
    /// report. The one-call version of the paper.
    pub fn full_report(&self, models: &[DataModel], node_counts: &[u32]) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "methodology report — {} elements, {:?} codec, seed {:#x}",
            self.total_elements, self.config.master.codec.kind, self.config.seed
        );

        let _ = writeln!(out, "\n[step 1] scalability analysis");
        let table = self.scalability(models, node_counts);
        let _ = writeln!(
            out,
            "{:<16} {:>5} {:>11} {:>11} {:>9}  bottleneck",
            "model", "nodes", "observed", "ideal", "vs ideal"
        );
        for cell in &table.cells {
            let _ = writeln!(
                out,
                "{:<16} {:>5} {:>9.0}ms {:>9.0}ms {:>+8.0}%  {:?}",
                cell.model.label(),
                cell.nodes,
                cell.observed_ms,
                cell.ideal_ms,
                cell.overhead_vs_ideal() * 100.0,
                cell.bottleneck,
            );
        }

        let _ = writeln!(out, "\n[steps 2-3] bottlenecks at the largest cluster");
        if let Some(&max_nodes) = node_counts.iter().max() {
            for &model in models {
                if let Some(cell) = table.get(model, max_nodes) {
                    let _ = writeln!(out, "  {:<16} → {:?}", model.label(), cell.bottleneck);
                }
            }
        }

        let _ = writeln!(out, "\n[step 4] calibrated model");
        let cal = self.calibrate();
        let q = &cal.system.db.query_time;
        let _ = writeln!(
            out,
            "  query_time(s) ≈ {:.2} + {:.4}·s ms (≤{:.0} cells), {:.2} + {:.4}·s above",
            q.base_ms, q.per_cell_ms, q.threshold_cells, q.indexed_base_ms, q.indexed_per_cell_ms
        );
        let _ = writeln!(
            out,
            "  parallelism(s) ≈ {:.2} {:+.2}·ln s",
            cal.system.db.parallelism.a, cal.system.db.parallelism.b
        );
        let _ = writeln!(out, "\n[step 4] optimizer recommendations");
        for &nodes in node_counts {
            let opt = cal.optimize(nodes as u64);
            let _ = writeln!(
                out,
                "  {:>3} nodes → {:>6} partitions (≈{:>4.0} cells), predicted {:>7.0} ms, {}-bound",
                nodes,
                opt.partitions,
                opt.cells_per_partition,
                opt.total_ms(),
                opt.prediction.dominant(),
            );
        }
        out
    }
}

/// One cell of the scalability table (one bar of Figure 1 / 5).
#[derive(Debug, Clone, Copy)]
pub struct ScalabilityCell {
    /// The data model.
    pub model: DataModel,
    /// Cluster size.
    pub nodes: u32,
    /// Measured query time, ms.
    pub observed_ms: f64,
    /// Single-node time divided by nodes (the figures' solid line).
    pub ideal_ms: f64,
    /// Observed time rescaled to a uniform load (the dotted line).
    pub balanced_ms: f64,
    /// (max node load / mean) − 1.
    pub load_excess: f64,
    /// The classified bottleneck for this run.
    pub bottleneck: Bottleneck,
}

impl ScalabilityCell {
    /// The figures' bar label: relative difference between real and ideal.
    pub fn overhead_vs_ideal(&self) -> f64 {
        if self.ideal_ms.is_nan() || self.ideal_ms == 0.0 {
            0.0
        } else {
            self.observed_ms / self.ideal_ms - 1.0
        }
    }
}

/// The full step-1 output.
#[derive(Debug, Clone)]
pub struct ScalabilityTable {
    /// All (model, nodes) cells, in sweep order.
    pub cells: Vec<ScalabilityCell>,
}

impl ScalabilityTable {
    /// Looks up one cell.
    pub fn get(&self, model: DataModel, nodes: u32) -> Option<&ScalabilityCell> {
        self.cells
            .iter()
            .find(|c| c.model == model && c.nodes == nodes)
    }
}

/// The step-4 output: fitted regressions + the composed system model.
#[derive(Debug, Clone)]
pub struct CalibratedModel {
    /// The composed Formula 2 model.
    pub system: SystemModel,
    /// The raw Figure 6 piecewise fit.
    pub piecewise: PiecewiseFit,
    /// The raw Figure 7 log-linear fit.
    pub loglin: LogLinearFit,
    /// Dataset size the optimizer defaults to.
    pub total_elements: u64,
}

impl CalibratedModel {
    /// Figure 9's question: the optimal partition count on `nodes` nodes.
    pub fn optimize(&self, nodes: u64) -> OptimalChoice {
        optimize_partitions(&self.system, self.total_elements as f64, nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_runs_all_models() {
        let study = Study::new(5_000);
        for model in DataModel::ALL {
            let result = study.run(model, 2);
            assert_eq!(result.total_cells, 5_000, "{model:?} lost cells");
        }
    }

    #[test]
    fn scalability_table_has_baselines() {
        let study = Study::new(4_000);
        let table = study.scalability(&[DataModel::Fine], &[1, 2, 4]);
        assert_eq!(table.cells.len(), 3);
        let one = table.get(DataModel::Fine, 1).unwrap();
        assert!((one.ideal_ms - one.observed_ms).abs() < 1e-9);
        let four = table.get(DataModel::Fine, 4).unwrap();
        assert!(four.ideal_ms < one.observed_ms);
        assert!(four.observed_ms >= four.balanced_ms - 1e-9);
        assert!(four.overhead_vs_ideal() >= 0.0);
    }

    #[test]
    fn profile_renders_gantt() {
        let study = Study::new(2_000);
        let (result, gantt) = study.profile(DataModel::Medium, 2);
        assert!(!gantt.is_empty());
        assert!(gantt.contains("in-db"));
        assert_eq!(result.traces.len(), 2); // 2 000 elements / 1 000 per key
    }

    #[test]
    fn calibration_recovers_the_store_constants() {
        // Deterministic study → the fits must recover the cost model the
        // simulator runs on (Formula 6/7 constants).
        let mut study = Study::new(200_000);
        study.config = study.config.deterministic();
        let cal = study.calibrate();
        let q = &cal.system.db.query_time;
        assert!(
            (q.per_cell_ms - 0.0387).abs() < 0.004,
            "below-threshold slope {}",
            q.per_cell_ms
        );
        assert!(
            (q.threshold_cells - 1425.0).abs() < 450.0,
            "breakpoint {}",
            q.threshold_cells
        );
        let p = &cal.system.db.parallelism;
        assert!(p.b < -0.3, "speed-up must fall with row size: b={}", p.b);
        assert!(p.a > 4.0, "intercept {}", p.a);
        // The calibrated optimizer returns something sane.
        let opt = cal.optimize(4);
        assert!(opt.partitions > 1);
        assert!(opt.total_ms() > 0.0);
    }

    #[test]
    fn full_report_covers_all_four_steps() {
        let mut study = Study::new(20_000);
        study.config = study.config.deterministic();
        let report = study.full_report(&[DataModel::Fine], &[1, 2]);
        assert!(report.contains("[step 1]"));
        assert!(report.contains("[steps 2-3]"));
        assert!(report.contains("[step 4]"));
        assert!(report.contains("fine-grained"));
        assert!(report.contains("query_time(s)"));
        assert!(report.contains("partitions"));
    }

    #[test]
    fn slow_and_fast_masters_calibrate_different_master_models() {
        let slow = Study::with_slow_master(10_000);
        let fast = Study::new(10_000);
        assert_eq!(slow.config.master.codec.tx_cpu_us, 150.0);
        assert_eq!(fast.config.master.codec.tx_cpu_us, 19.0);
    }
}
