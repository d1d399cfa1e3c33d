//! Extension (§IX future work) — hierarchical storage tiers.
//!
//! "We aim to extend the model to predict the time of serving requests out
//! of each of these devices" — done: a KNL-style MCDRAM/DDR4/NVM/SSD/HDD
//! stack with waterfall residency feeds the database model, and the
//! predicted query time vs working-set size shows the capacity cliffs a
//! designer needs to see before buying hardware.

use kvs_bench::{banner, fmt_ms, Csv};
use kvs_model::{StorageHierarchy, SystemModel};

fn main() {
    banner(
        "Extension §IX",
        "hierarchical storage: query time vs working-set size",
    );
    let hier = StorageHierarchy::knl_like();
    println!("\nstorage stack:");
    for t in hier.tiers() {
        println!(
            "  {:<7} {:>7} GiB  {:>9.2} µs access  {:>7.0} MB/s",
            t.name,
            t.capacity_bytes >> 30,
            t.access_latency_us,
            t.bandwidth_bytes_per_ms / 1_000.0
        );
    }
    println!("\ncapacity cliffs (cumulative):");
    for (name, bytes) in hier.capacity_cliffs() {
        println!(
            "  beyond {:>6} GiB the working set spills past {name}",
            bytes >> 30
        );
    }

    // Query model: 16 nodes, the optimizer's ~133-cell rows (Figure 9), a
    // fixed number of rows read per query; the *device* time replaces the
    // in-memory portion of Formula 6's per-row cost as the dataset grows.
    let model = SystemModel::paper_optimized();
    let rows_per_query = 7_545u64; // Figure 9's 16-node optimum
    let cells_per_row = 133u64;
    let row_bytes = cells_per_row * 46;
    let base = model.predict(rows_per_query as f64, cells_per_row as f64, 16);

    let mut csv = Csv::new(
        "ext_tiering",
        &["working_set_gib", "device_ms_per_row", "query_ms"],
    );
    println!(
        "\n{:>16} {:>18} {:>12}",
        "working set", "device ms/row", "query time"
    );
    let gib = 1u64 << 30;
    for ws_gib in [1u64, 8, 15, 32, 100, 300, 600, 1_024, 2_048, 4_096, 8_192] {
        let ws = ws_gib * gib;
        let device_ms = hier.read_ms(row_bytes, ws);
        // The slave term scales by the device surcharge on every row the
        // most loaded node serves (amortized over the same parallelism).
        let per_row_extra = device_ms / model.db.parallelism.speedup(cells_per_row as f64);
        let query_ms = base.total_ms() + base.keymax * per_row_extra;
        println!(
            "{:>12} GiB {:>15.3} ms {:>12}",
            ws_gib,
            device_ms,
            fmt_ms(query_ms)
        );
        csv.row(&[
            &ws_gib,
            &format!("{device_ms:.4}"),
            &format!("{query_ms:.2}"),
        ]);
    }
    println!("\nReading: query time is flat while the working set fits in RAM, then");
    println!("steps at every capacity cliff — NVM keeps the system interactive where");
    println!("the HDD tier would push the same query into tens of seconds. This is");
    println!("the §IX design tool: size the fast tiers to your hot working set.");
    csv.finish();
}
