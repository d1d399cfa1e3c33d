//! Every input the program sees, made from the seed: partition ids, cell
//! kinds and payloads, and the YCSB operation stream — together with the
//! answers the program must give for them.

use kvs_balance::HashRing;
use kvs_store::schema::DEFAULT_PAYLOAD_BYTES;
use kvs_store::{Cell, PartitionKey};
use kvs_workloads::ycsb::{generate_ops, lower_ops, standard_mixes, LegKind};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::{BTreeMap, HashSet};

/// Distinct cell kinds; the aggregation query counts cells per kind.
pub const KINDS: u8 = 4;

/// Virtual nodes per node — the figure `ClusterData::load` builds its ring
/// with. [`Dataset::generate`] places ids on the same ring to balance
/// them; the workloads assert the balance after loading, so a drift in
/// that figure fails loudly instead of widening the spread.
const RING_VNODES: usize = 128;

/// A generated data set and its oracle.
pub struct Dataset {
    /// `(partition key, cells)` in generation order; index `i` is the
    /// partition the operation stream calls key `i`.
    pub partitions: Vec<(PartitionKey, Vec<Cell>)>,
    /// Cells over all partitions.
    pub total_cells: u64,
    /// The aggregation answer: kind → cells of that kind.
    pub counts_by_kind: BTreeMap<u8, u64>,
}

impl Dataset {
    /// `partitions` partitions of `cells_each` cells. Ids are drawn from
    /// the seed and kept only while their primary node (of `nodes`) is
    /// below an equal share: which ids a seed gives varies, how evenly
    /// they spread does not, so run-to-run spread reflects the program
    /// and not a 9/11 split of twenty partitions.
    ///
    /// # Panics
    /// If `partitions` is not a multiple of `nodes`.
    pub fn generate(seed: u64, nodes: u32, partitions: usize, cells_each: usize) -> Dataset {
        assert_eq!(
            partitions % nodes as usize,
            0,
            "partitions must divide evenly over nodes"
        );
        let quota = partitions / nodes as usize;
        let ring = HashRing::with_nodes(nodes, RING_VNODES);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut placed = vec![0usize; nodes as usize];
        let mut seen = HashSet::with_capacity(partitions);
        let mut out = Dataset {
            partitions: Vec::with_capacity(partitions),
            total_cells: (partitions * cells_each) as u64,
            counts_by_kind: BTreeMap::new(),
        };
        while out.partitions.len() < partitions {
            let pk = PartitionKey::from_id(rng.next_u64());
            let node = ring.node_for_key(pk.as_bytes()).0 as usize;
            if placed[node] == quota || !seen.insert(pk.clone()) {
                continue;
            }
            placed[node] += 1;
            let cells = (0..cells_each as u64)
                .map(|c| {
                    let kind = rng.gen_range(0..KINDS);
                    *out.counts_by_kind.entry(kind).or_insert(0) += 1;
                    Cell::new(c, kind, payload(&mut rng))
                })
                .collect();
            out.partitions.push((pk, cells));
        }
        out
    }

    /// The partition keys, in generation order.
    pub fn keys(&self) -> Vec<PartitionKey> {
        self.partitions.iter().map(|(pk, _)| pk.clone()).collect()
    }
}

/// A seeded payload of the size that makes a cell encode to the paper's
/// 46 bytes.
fn payload(rng: &mut StdRng) -> Vec<u8> {
    let mut bytes = vec![0u8; DEFAULT_PAYLOAD_BYTES];
    rng.fill_bytes(&mut bytes);
    bytes
}

/// One point operation on partition `partition` (an index into
/// [`Dataset::partitions`]): a read, or an update carrying the cell to
/// overwrite. An update keeps the kind of the cell it replaces, so the
/// oracle holds all run.
#[derive(Debug, Clone, PartialEq)]
pub struct PointOp {
    /// Index of the partition operated on.
    pub partition: usize,
    /// `None` reads; `Some(cell)` overwrites the cell with that
    /// clustering key.
    pub update: Option<Cell>,
}

/// `ops` operations of YCSB `update_heavy` (zipfian 0.99, 50 % read /
/// 50 % update) over the partitions of `data`, lowered to point
/// operations. The stream depends on `seed` and the data's shape only.
pub fn point_ops(seed: u64, data: &Dataset, ops: u64) -> Vec<PointOp> {
    let spec = standard_mixes()
        .into_iter()
        .find(|m| m.name == "update_heavy")
        .expect("kvs-workloads ships the update_heavy mix");
    let stream = generate_ops(&spec, data.partitions.len() as u64, ops, seed);
    // A second stream for cell choice and payloads, so the key sequence
    // is exactly what `generate_ops` gives for the seed.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    lower_ops(&stream)
        .iter()
        .map(|leg| {
            let partition = leg.key as usize;
            let update = match leg.kind {
                LegKind::Read => None,
                LegKind::Write | LegKind::Rmw => {
                    let cells = &data.partitions[partition].1;
                    let c = rng.gen_range(0..cells.len());
                    Some(Cell::new(c as u64, cells[c].kind, payload(&mut rng)))
                }
            };
            PointOp { partition, update }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = Dataset::generate(7, 2, 64, 8);
        let b = Dataset::generate(7, 2, 64, 8);
        let c = Dataset::generate(8, 2, 64, 8);
        assert_eq!(a.partitions, b.partitions);
        assert_eq!(a.counts_by_kind, b.counts_by_kind);
        assert_ne!(a.keys(), c.keys());
        assert_eq!(point_ops(7, &a, 500), point_ops(7, &b, 500));
        assert_ne!(point_ops(7, &a, 500), point_ops(8, &a, 500));
    }

    #[test]
    fn same_seed_same_routes_other_seed_other_routes() {
        use kvs_cluster::ClusterData;
        use kvs_store::TableOptions;
        let routes = |seed| {
            let d = Dataset::generate(seed, 2, 64, 2);
            let loaded = ClusterData::load(2, 2, TableOptions::default(), d.partitions);
            loaded
                .partitions()
                .map(|(pk, _)| (pk.clone(), loaded.replicas_of(pk).to_vec()))
                .collect::<Vec<_>>()
        };
        assert_eq!(routes(7), routes(7));
        assert_ne!(routes(7), routes(8));
    }

    #[test]
    fn oracle_counts_the_generated_cells() {
        let d = Dataset::generate(3, 2, 10, 50);
        assert_eq!(d.total_cells, 500);
        assert_eq!(d.counts_by_kind.values().sum::<u64>(), 500);
        let of_kind_0 = d
            .partitions
            .iter()
            .flat_map(|(_, cells)| cells)
            .filter(|c| c.kind == 0)
            .count();
        assert_eq!(d.counts_by_kind[&0], of_kind_0 as u64);
    }

    #[test]
    fn primaries_are_spread_exactly_evenly() {
        let d = Dataset::generate(11, 2, 20, 1);
        let ring = HashRing::with_nodes(2, RING_VNODES);
        let on_zero = d
            .partitions
            .iter()
            .filter(|(pk, _)| ring.node_for_key(pk.as_bytes()).0 == 0)
            .count();
        assert_eq!(on_zero, 10);
    }

    #[test]
    fn updates_overwrite_an_existing_cell_with_its_kind() {
        let d = Dataset::generate(5, 2, 32, 4);
        let ops = point_ops(5, &d, 2_000);
        let updates: Vec<_> = ops.iter().filter(|o| o.update.is_some()).collect();
        // update_heavy is half and half.
        assert!((800..1_200).contains(&updates.len()), "{}", updates.len());
        for op in updates {
            let cell = op.update.as_ref().unwrap();
            let replaced = &d.partitions[op.partition].1[cell.clustering as usize];
            assert_eq!(cell.kind, replaced.kind);
        }
    }
}
