//! Property tests for the cluster layer: codecs, the USL interference
//! model and the write coordinator.

use kvs_cluster::coord::{Coordinator, Input, Op, Status};
use kvs_cluster::messages::{QueryRequest, QueryResponse};
use kvs_cluster::usl::{formula7_peak_speedup, params_for_cells, UslParams};
use kvs_cluster::{Codec, Consistency, OpKind, WriteOptions};
use kvs_store::{Cell, PartitionKey};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Both codecs round-trip arbitrary requests.
    #[test]
    fn codecs_roundtrip_requests(id in any::<u64>(),
                                 key in proptest::collection::vec(any::<u8>(), 0..64)) {
        let req = QueryRequest {
            request_id: id,
            partition: PartitionKey::new(key),
        };
        for codec in [Codec::verbose(), Codec::compact()] {
            let bytes = codec.encode_request(&req);
            prop_assert_eq!(codec.decode_request(bytes).expect("roundtrip"), req.clone());
        }
    }

    /// Both codecs round-trip arbitrary responses (any kind→count map).
    #[test]
    fn codecs_roundtrip_responses(id in any::<u64>(),
                                  counts in proptest::collection::btree_map(any::<u8>(), 1u64..1_000_000, 0..32),
                                  version in any::<u64>()) {
        let cells = counts.values().sum();
        let resp = QueryResponse {
            request_id: id,
            counts: counts.clone() as BTreeMap<u8, u64>,
            cells,
            version,
        };
        for codec in [Codec::verbose(), Codec::compact()] {
            let bytes = codec.encode_response(&resp);
            prop_assert_eq!(codec.decode_response(bytes).expect("roundtrip"), resp.clone());
        }
    }

    /// The verbose codec is always the bigger wire format.
    #[test]
    fn verbose_never_smaller(id in any::<u64>(), key_len in 0usize..64) {
        let req = QueryRequest {
            request_id: id,
            partition: PartitionKey::new(vec![0xAA; key_len]),
        };
        let v = Codec::verbose().encode_request(&req).len();
        let c = Codec::compact().encode_request(&req).len();
        prop_assert!(v > c, "verbose {v} vs compact {c}");
    }

    /// Truncating any codec output never decodes successfully and never
    /// panics.
    #[test]
    fn truncation_is_safe(id in any::<u64>(), cut_frac in 0.0f64..0.999) {
        let req = QueryRequest {
            request_id: id,
            partition: PartitionKey::from_id(id),
        };
        for codec in [Codec::verbose(), Codec::compact()] {
            let bytes = codec.encode_request(&req);
            let cut = ((bytes.len() as f64) * cut_frac) as usize;
            prop_assert!(codec.decode_request(bytes.slice(..cut)).is_none());
        }
    }

    /// The in-place response encoder appends, after whatever the buffer
    /// already holds, exactly the bytes `encode_response` returns for the
    /// message `from_tally` would have built — for any number of kinds
    /// from none to all 256, wherever in the tally they sit.
    #[test]
    fn in_place_response_is_encode_response(id in any::<u64>(),
                                            version in any::<u64>(),
                                            kinds in 0usize..=256,
                                            first_kind in any::<u8>(),
                                            counts in proptest::collection::vec(1u64..=1 << 40, 256),
                                            prefix in proptest::collection::vec(any::<u8>(), 0..40)) {
        let tally = tally_of(kinds, first_kind, &counts);
        let message = QueryResponse::from_tally(id, &tally).with_version(version);
        prop_assert_eq!(message.counts.len(), kinds);
        for codec in [Codec::verbose(), Codec::compact()] {
            let mut out = prefix.clone();
            codec.append_response(&mut out, id, &tally, version);
            prop_assert_eq!(&out[..prefix.len()], &prefix[..]);
            prop_assert_eq!(&out[prefix.len()..], &codec.encode_response(&message)[..]);
        }
    }

    /// Likewise the in-place request encoder and `encode_request`.
    #[test]
    fn in_place_request_is_encode_request(id in any::<u64>(),
                                          key in proptest::collection::vec(any::<u8>(), 0..64),
                                          prefix in proptest::collection::vec(any::<u8>(), 0..40)) {
        let req = QueryRequest {
            request_id: id,
            partition: PartitionKey::new(key),
        };
        for codec in [Codec::verbose(), Codec::compact()] {
            let mut out = prefix.clone();
            codec.append_request(&mut out, id, &req.partition);
            prop_assert_eq!(&out[..prefix.len()], &prefix[..]);
            prop_assert_eq!(&out[prefix.len()..], &codec.encode_request(&req)[..]);
        }
    }

    /// Folding an encoded response into an accumulator is `decode_response`
    /// then `merge`: the same accumulator after, the same verdict on every
    /// truncation and on trailing bytes, and an accumulator left alone by
    /// input that is refused.
    #[test]
    fn fold_response_is_decode_then_merge(id in any::<u64>(),
                                          version in any::<u64>(),
                                          kinds in 0usize..=256,
                                          first_kind in any::<u8>(),
                                          counts in proptest::collection::vec(1u64..=1 << 40, 256),
                                          before in proptest::collection::btree_map(any::<u8>(), 1u64..=1 << 40, 0..8),
                                          before_version in any::<u64>(),
                                          trailing in proptest::collection::vec(any::<u8>(), 1..4)) {
        let tally = tally_of(kinds, first_kind, &counts);
        let acc = QueryResponse {
            request_id: 0,
            cells: before.values().sum(),
            counts: before,
            version: before_version,
        };
        for codec in [Codec::verbose(), Codec::compact()] {
            let wire = codec.encode_response(&QueryResponse::from_tally(id, &tally).with_version(version));
            let mut longer = wire.to_vec();
            longer.extend_from_slice(&trailing);
            // Every truncation (sampled densely at both ends, where the
            // framing lives), the message itself, and the message with
            // bytes after it.
            let cuts = (0..wire.len()).filter(|&c| c < 48 || c + 48 > wire.len() || c % 61 == 0);
            let inputs = cuts.map(|c| &wire[..c]).chain([&wire[..], &longer[..]]);
            for input in inputs {
                let mut folded = acc.clone();
                let cells = codec.fold_response(input, &mut folded);
                let mut merged = acc.clone();
                let decoded = codec.decode_response(bytes::Bytes::copy_from_slice(input));
                if let Some(response) = &decoded {
                    merged.merge(response);
                }
                prop_assert_eq!(cells, decoded.map(|r| r.cells), "{:?} on {} of {} bytes", codec.kind, input.len(), wire.len());
                prop_assert_eq!(folded, merged);
            }
            prop_assert!(codec.fold_response(&wire, &mut acc.clone()).is_some());
            prop_assert!(codec.fold_response(&wire[..wire.len() - 1], &mut acc.clone()).is_none());
        }
    }

    /// USL invariants hold for any solvable (peak speed-up, peak k) target:
    /// S(1)=1, S(k) ≤ k, inflation ≥ 1 and monotone, retrograde after k*.
    #[test]
    fn usl_invariants(k_star in 2.0f64..64.0, frac in 0.05f64..0.95) {
        // USL with σ ≥ 0 can only place a peak of up to k²/(2k−1) at k;
        // draw targets inside the representable region.
        let s_max = k_star * k_star / (2.0 * k_star - 1.0);
        let s_star = 1.0 + frac * (s_max - 1.0) * 0.98;
        let p = UslParams::solve(s_star, k_star);
        prop_assert!((p.speedup(1) - 1.0).abs() < 1e-9);
        let mut prev_inflation = 0.0;
        for k in 1..=128usize {
            let s = p.speedup(k);
            prop_assert!(s <= k as f64 + 1e-9, "superlinear at k={k}");
            prop_assert!(s > 0.0);
            let infl = p.inflation(k);
            prop_assert!(infl >= 1.0 - 1e-12);
            prop_assert!(infl >= prev_inflation - 1e-12, "inflation not monotone at k={k}");
            prev_inflation = infl;
        }
        // The solved peak is where it was asked to be (within discreteness).
        let k_round = k_star.round() as usize;
        prop_assert!((p.speedup(k_round) - s_star).abs() / s_star < 0.05);
        // Past ~2·k* throughput is at or below the peak.
        prop_assert!(p.speedup((2.0 * k_star).ceil() as usize) <= s_star + 1e-6);
    }

    /// The per-row-size USL parameters always yield sane service inflation
    /// and respect the Formula 7 ceiling.
    #[test]
    fn params_for_cells_sane(cells in 1u64..1_000_000, k in 1usize..128) {
        let p = params_for_cells(cells);
        let s = p.speedup(k);
        // Deep retrograde territory (k ≫ k*) may dip below 1× — genuine
        // thrashing — but must never collapse entirely.
        prop_assert!(s >= 0.5, "throughput collapsed: {s}");
        prop_assert!(s <= formula7_peak_speedup(cells) * 1.05 + 1e-9,
            "speed-up exceeds the Formula 7 ceiling: {s}");
        prop_assert!(p.inflation(k) >= 1.0);
    }
}

/// Nodes the coordinator property draws replicas and inputs from.
const NODES: u32 = 6;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The write coordinator alone, fed a seeded interleaving of acks and
    /// answers, duplicates, stray ids, `Busy`, `Down` and round timeouts
    /// for each of a run of legs:
    /// * a level is reported only once `required(cl)` distinct replicas
    ///   replied with a version at least the write's stamp;
    /// * a failed write hints every replica that stayed silent (or finds
    ///   its queue full);
    /// * no hint queue ever holds more than `hint_queue_cap`.
    #[test]
    fn the_coordinator_counts_distinct_replicas(seed in any::<u64>(), cap in 1usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coord = Coordinator::default();
        coord.begin(WriteOptions { hint_queue_cap: cap, read_repair: true });
        let keys: Vec<PartitionKey> = (0..4).map(PartitionKey::from_id).collect();
        let cells = [Cell::new(1, 0, vec![0xAB; 4])];
        for _ in 0..24 {
            let rf = rng.gen_range(1..=5u32);
            let first = rng.gen_range(0..NODES);
            let replicas: Vec<u32> = (0..rf).map(|k| (first + k) % NODES).collect();
            let kind = [OpKind::Read, OpKind::Write, OpKind::Rmw][rng.gen_range(0..3usize)];
            let consistency = [Consistency::One, Consistency::Quorum, Consistency::All][rng.gen_range(0..3usize)];
            let write = kind != OpKind::Read;
            let key = &keys[rng.gen_range(0..keys.len())];
            let op = Op { kind, key, replicas: &replicas, cells: if write { &cells } else { &[] }, consistency };
            let suspect: Vec<bool> = (0..NODES).map(|_| rng.gen_bool(0.15)).collect();
            let mut leg = coord.start(op, rng.gen_range(0..1_000u64), 0.0, |n| suspect[n as usize]);
            let need = consistency.required(replicas.len());
            // The model: replicas that replied to this leg at all, and those
            // whose reply counts toward its level.
            let (mut replied, mut counted) = (BTreeSet::new(), BTreeSet::new());
            let mut last = Input::Timeout;
            for _ in 0..48 {
                while coord.next_send().is_some() {}
                if leg.status() != Status::Open {
                    break;
                }
                let node = rng.gen_range(0..NODES);
                let id = if rng.gen_bool(0.85) { leg.id() } else { leg.id() + rng.gen_range(1..4u64) };
                let version = leg.stamp().saturating_sub(1) + rng.gen_range(0..3u64);
                let input = match rng.gen_range(0..10u32) {
                    0..=4 => Input::Reply { id, node, version },
                    5 => Input::Busy { id, node },
                    6 => Input::Down(node),
                    7 => Input::Timeout,
                    _ => last,
                };
                if let Input::Reply { id, node, version } = input {
                    if id == leg.id() && replicas.contains(&node) {
                        replied.insert(node);
                        if !write || version >= leg.stamp() {
                            counted.insert(node);
                        }
                    }
                }
                coord.step(&mut leg, input, 1.0);
                last = input;
                for n in 0..NODES {
                    prop_assert!(coord.hinted_for(n) <= cap, "node {} holds {} hints", n, coord.hinted_for(n));
                }
            }
            // Two round timeouts close any leg still open.
            coord.step(&mut leg, Input::Timeout, 2.0);
            coord.step(&mut leg, Input::Timeout, 2.0);
            while coord.next_send().is_some() {}
            prop_assert!(leg.status() != Status::Open);
            if leg.status() == Status::Reached {
                prop_assert!(counted.len() >= need, "reached {:?} with {} of {} replicas", consistency, counted.len(), need);
            }
            if write && leg.status() == Status::Failed {
                for &node in replicas.iter().filter(|n| !replied.contains(n)) {
                    let hints = coord.take_hints(node);
                    let hinted = hints.iter().any(|h| h.partition == *key && h.timestamp == leg.stamp());
                    prop_assert!(hinted || hints.len() >= cap, "silent replica {} was not hinted", node);
                    coord.restore_hints(node, hints);
                }
            }
        }
    }
}

/// A tally with `kinds` non-zero slots, the run of them starting (and
/// wrapping) at `first_kind`, slot `k` holding `counts[k]`.
fn tally_of(kinds: usize, first_kind: u8, counts: &[u64]) -> [u64; 256] {
    let mut tally = [0u64; 256];
    for k in (0..kinds).map(|j| (first_kind as usize + j) % 256) {
        tally[k] = counts[k];
    }
    tally
}
