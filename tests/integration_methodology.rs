//! End-to-end tests of the four-step methodology through the `Study`
//! facade: scalability analysis → stage tracing → bottleneck
//! classification → model calibration.

use kvscale::prelude::*;
use kvscale::workloads::DataModel;

const ELEMENTS: u64 = 20_000;

#[test]
fn scalability_table_invariants() {
    let study = Study::new(ELEMENTS);
    let table = study.scalability(&DataModel::ALL, &[1, 2, 4]);
    assert_eq!(table.cells.len(), 9);
    for cell in &table.cells {
        assert!(cell.observed_ms > 0.0, "{cell:?}");
        // The balanced estimate can never exceed the observation.
        assert!(cell.balanced_ms <= cell.observed_ms + 1e-9, "{cell:?}");
        // Overheads versus ideal are non-negative by construction at n=1.
        if cell.nodes == 1 {
            assert!(cell.overhead_vs_ideal().abs() < 1e-9);
        }
    }
    // More nodes must help models with enough partitions to spread (at
    // this reduced scale Coarse has only 2 partitions, which can both land
    // on one node — itself a Formula 1 lesson).
    for model in [DataModel::Medium, DataModel::Fine] {
        let t1 = table.get(model, 1).unwrap().observed_ms;
        let t4 = table.get(model, 4).unwrap().observed_ms;
        assert!(t4 < t1, "{model:?}: {t4} !< {t1}");
    }
}

#[test]
fn slow_master_changes_fine_grained_bottleneck() {
    // The paper's Figure 1 → Figure 5 transition: with the slow master the
    // fine-grained workload is master-bound; the optimized master frees it.
    // Needs enough keys for the 150 µs/message cost to dominate.
    let elements = 100_000;
    let slow = Study::with_slow_master(elements);
    let fast = Study::new(elements);
    let slow_run = slow.run(DataModel::Fine, 8);
    let fast_run = fast.run(DataModel::Fine, 8);
    assert!(
        matches!(slow_run.report.bottleneck, Bottleneck::MasterSend { .. }),
        "slow master: {:?}",
        slow_run.report.bottleneck
    );
    assert!(
        !matches!(fast_run.report.bottleneck, Bottleneck::MasterSend { .. }),
        "fast master: {:?}",
        fast_run.report.bottleneck
    );
    assert!(fast_run.makespan < slow_run.makespan);
    // Same answers regardless of the master's speed.
    assert_eq!(slow_run.counts_by_kind, fast_run.counts_by_kind);
}

#[test]
fn issue_span_matches_formula3() {
    let study = Study::with_slow_master(ELEMENTS);
    let result = study.run(DataModel::Fine, 4);
    let keys = DataModel::Fine.partitions_for(ELEMENTS) as f64;
    let expected_ms = keys * 0.150;
    let got_ms = result.issue_span.as_millis_f64();
    assert!(
        (got_ms - expected_ms).abs() / expected_ms < 0.25,
        "issue span {got_ms} vs Formula 3 {expected_ms}"
    );
}

#[test]
fn profile_gantt_covers_all_stages_and_nodes() {
    let study = Study::new(ELEMENTS);
    let (result, gantt) = study.profile(DataModel::Medium, 4);
    for stage in Stage::ALL {
        assert!(gantt.contains(stage.name()), "missing stage {stage}");
    }
    for &node in result.requests_per_node().keys() {
        assert!(
            gantt.contains(&format!("node {node}")),
            "missing node {node} in gantt"
        );
    }
}

#[test]
fn calibration_then_optimization_is_consistent() {
    let mut study = Study::new(50_000);
    study.config = study.config.deterministic();
    let cal = study.calibrate();
    // The calibrated model must agree with the generating cost model to
    // within a few percent on a mid-size row.
    let predicted = cal.system.db.query_time.query_time_ms(500.0);
    let truth = CostModel::paper_cassandra().service_ms_for_cells(500);
    assert!(
        (predicted - truth).abs() / truth < 0.10,
        "calibrated {predicted} vs truth {truth}"
    );
    // And its optimizer must beat naive extreme choices.
    let opt = cal.optimize(8);
    let coarse = cal
        .system
        .predict_for_total(cal.total_elements as f64, 10.0, 8)
        .total_ms();
    let fine = cal
        .system
        .predict_for_total(cal.total_elements as f64, cal.total_elements as f64, 8)
        .total_ms();
    assert!(opt.total_ms() <= coarse);
    assert!(opt.total_ms() <= fine);
}

#[test]
fn figure6_knee_survives_noise_proportional_to_row_size() {
    // Unlike the tests above this study keeps its noise: `calibrate` reads
    // the stratified Figure 6 sample five times a key (the `fig06` binary
    // reads nine) under the calibration profile. The sample's tail is a few
    // rows of ~10 000 cells whose noise is worth several knees; the fit
    // must still put the break at the column index, not in front of that
    // tail.
    let fit = Study::new(1_000_000).calibrate().piecewise;
    assert!(
        (1_390.0..=1_440.0).contains(&fit.breakpoint),
        "breakpoint {} cells (column index at 1425)",
        fit.breakpoint
    );
    assert!(
        (5.0..=9.0).contains(&fit.jump()),
        "jump {:+.2} ms (paper: about +7)",
        fit.jump()
    );
    assert!(
        fit.below.r2 >= 0.99 && fit.above.r2 >= 0.99,
        "R² below/above {:.4} / {:.4}",
        fit.below.r2,
        fit.above.r2
    );
}

#[test]
fn study_reruns_are_deterministic() {
    let study = Study::new(ELEMENTS);
    let a = study.run(DataModel::Coarse, 4);
    let b = study.run(DataModel::Coarse, 4);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.report.requests_per_node, b.report.requests_per_node);
    assert_eq!(a.counts_by_kind, b.counts_by_kind);
}
