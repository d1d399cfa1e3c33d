//! Property tests for the cluster layer: codecs, the USL interference
//! model, the write coordinator and the read dispatcher.

use kvs_cluster::coord::{Coordinator, Input, Op, Status};
use kvs_cluster::dispatch::{Dispatcher, ReadOptions, View};
use kvs_cluster::messages::{QueryRequest, QueryResponse, Totals};
use kvs_cluster::usl::{formula7_peak_speedup, params_for_cells, UslParams};
use kvs_cluster::{Codec, Consistency, OpKind, ReplicaPolicy, WriteOptions};
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

    /// Folding an encoded response into a dense accumulator is
    /// `decode_response` then `merge`: the same totals after, seen through
    /// the accumulator's map view, the same verdict on every truncation and
    /// on trailing bytes, and an accumulator left alone by input that is
    /// refused.
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
        let mut acc = Totals {
            cells: before.values().sum(),
            version: before_version,
            ..Totals::default()
        };
        before.iter().for_each(|(&kind, &count)| acc.kinds[kind as usize] = count);
        let message = QueryResponse {
            request_id: 0,
            cells: acc.cells,
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
                let mut merged = message.clone();
                let decoded = codec.decode_response(bytes::Bytes::copy_from_slice(input));
                if let Some(response) = &decoded {
                    merged.merge(response);
                }
                prop_assert_eq!(cells, decoded.map(|r| r.cells), "{:?} on {} of {} bytes", codec.kind, input.len(), wire.len());
                prop_assert_eq!((folded.counts(), folded.cells, folded.version), (merged.counts, merged.cells, merged.version));
                if cells.is_none() {
                    prop_assert_eq!(&folded, &acc);
                }
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

/// The read dispatcher's view in its property: a fixed phi per node, some
/// past the threshold, and hedging on or off.
struct Seen {
    phi: Vec<f64>,
    hedge: Option<u64>,
}

impl View for Seen {
    fn phi(&self, node: u32) -> f64 {
        self.phi[node as usize]
    }

    fn hedge_delay(&self, _: u32) -> Option<u64> {
        self.hedge
    }
}

/// Who an answer or a `Busy` claims to be: mostly a frame on the wire,
/// else a stray — an unknown id, or a node that was never asked.
fn target(rng: &mut StdRng, wire: &[(u64, u32, u64)], n: usize) -> (u64, u32) {
    match rng.gen_range(0..8u32) {
        0..=4 if !wire.is_empty() => {
            let (id, node, _) = wire[rng.gen_range(0..wire.len())];
            (id, node)
        }
        5 => (
            u64::MAX - rng.gen_range(0..2u64),
            rng.gen_range(0..NODES + 2),
        ),
        _ => (rng.gen_range(0..n as u64 + 2), rng.gen_range(0..NODES + 2)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The read dispatcher alone, two queries per seed on one machine, fed
    /// a seeded schedule of issues, answers (duplicated, stray or unknown
    /// ids, nodes never asked), `Busy` with windows, `Down`, `Expired` and
    /// `poll` advancing time, hedging on or off, driven strict (the first
    /// miss ends the query) or degraded. A model of the frames on the wire
    /// checks that
    /// * each issued id settles exactly once, answered or missed;
    /// * once a node's window is known, no send takes it past the window;
    /// * a node is exhausted only after a frame of its timed out or a
    ///   `Busy` allowance on it ran out: a `Busy` never uses up
    ///   `max_retries`;
    /// * nothing is sent to a node that went down;
    /// * a hedge is counted as won only when its node answered first.
    #[test]
    fn the_dispatcher_settles_every_request_once(seed in any::<u64>()) {
        const MS: u64 = 1_000_000;
        const N: usize = NODES as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let timeout = rng.gen_range(2..20u64) * MS;
        let max_retries = rng.gen_range(0..3u32);
        let allowance = timeout * (max_retries as u64 + 1);
        let policies = [
            ReplicaPolicy::Primary,
            ReplicaPolicy::Random,
            ReplicaPolicy::RoundRobin,
            ReplicaPolicy::LeastLoaded,
        ];
        let opts = ReadOptions {
            policy: policies[rng.gen_range(0..4usize)],
            timeout: Some(timeout),
            max_retries,
            busy_backoff: rng.gen_range(0..timeout),
            deadline: rng.gen_bool(0.5).then(|| rng.gen_range(20..200u64) * MS),
            phi_threshold: 8.0,
        };
        let view = Seen {
            phi: (0..N).map(|_| if rng.gen_bool(0.2) { 9.0 } else { rng.gen_range(0.0..4.0) }).collect(),
            hedge: rng.gen_bool(0.5).then(|| rng.gen_range(1..8u64) * MS),
        };
        let strict = rng.gen_bool(0.5);
        let mut d = Dispatcher::new(N, opts);
        // What outlives a query: the windows advertised, the nodes that
        // went down, and the nodes that may be exhausted ("struck": a frame
        // of theirs timed out, or a `Busy` allowance on them ran out, since
        // they were last heard from).
        let (mut window, mut dead, mut struck) = ([0usize; N], [false; N], [false; N]);
        for _ in 0..2 {
            let n = rng.gen_range(1..40usize);
            let replicas: Vec<Vec<u32>> = (0..n)
                .map(|_| {
                    let (first, rf) = (rng.gen_range(0..NODES), rng.gen_range(1..=3u32));
                    (0..rf).map(|k| (first + k) % NODES).collect()
                })
                .collect();
            d.begin(n);
            // (id, node, sent) of every frame on the wire, released no
            // later than the machine releases it (a hedge at its timeout
            // too); the hedges alone, held until the machine drops them;
            // per id, the nodes a hedge went to, the `Busy` that last took
            // it off the wire, and how often it settled.
            let mut wire: Vec<(u64, u32, u64)> = Vec::new();
            let mut hedges: Vec<(u64, u32, u64)> = Vec::new();
            let mut hedged: Vec<Vec<u32>> = vec![Vec::new(); n];
            let mut busied: Vec<Option<(u32, u64)>> = vec![None; n];
            let mut settled = vec![0u32; n];
            let (mut issued, mut now, mut won, mut last) = (0, 0u64, 0u64, (0u64, 0u32));
            for _ in 0..300 {
                let mut ended = Vec::new();
                match rng.gen_range(0..12u32) {
                    0..=2 if issued < n => {
                        let loads: Vec<usize> = replicas[issued].iter().map(|&r| d.load(r)).collect();
                        d.issue(issued as u64, &replicas[issued], &loads, now, &mut rng, &view);
                        issued += 1;
                    }
                    0..=5 => {
                        let (id, node) = if rng.gen_bool(0.15) { last } else { target(&mut rng, &wire, n) };
                        last = (id, node);
                        if let Some(s) = struck.get_mut(node as usize) {
                            *s = false;
                        }
                        if let Some(done) = d.answer(id, node) {
                            if done.hedge {
                                prop_assert!(hedged[id as usize].contains(&node), "id {} won by node {}, which no hedge went to", id, node);
                                won += 1;
                            }
                            ended.push(id);
                        }
                    }
                    6 | 7 => {
                        let (id, node) = target(&mut rng, &wire, n);
                        let w = [0usize, 0, 1, 2, 4][rng.gen_range(0..5usize)];
                        d.busy(id, node, w, now);
                        if (node as usize) < N {
                            struck[node as usize] = false;
                            if w != 0 {
                                window[node as usize] = w;
                            }
                        }
                        if let Some(at) = wire.iter().position(|f| (f.0, f.1) == (id, node)) {
                            wire.swap_remove(at);
                            busied[id as usize] = Some((node, now));
                        }
                        hedges.retain(|f| (f.0, f.1) != (id, node));
                    }
                    8 if rng.gen_bool(0.3) => {
                        let node = rng.gen_range(0..NODES);
                        d.down(node, &view);
                        dead[node as usize] = true;
                        wire.retain(|f| f.1 != node);
                        hedges.retain(|f| f.1 != node);
                    }
                    8 => d.expired(rng.gen_range(0..n as u64 + 1)),
                    _ => {
                        now += rng.gen_range(0..timeout);
                        d.poll(now, &view);
                        for &(_, node, sent) in wire.iter().chain(&hedges) {
                            if sent + timeout <= now {
                                struck[node as usize] = true;
                            }
                        }
                        for &(node, at) in busied.iter().flatten() {
                            if at + allowance <= now {
                                struck[node as usize] = true;
                            }
                        }
                        wire.retain(|f| f.2 + timeout > now);
                    }
                }
                let mut missed = false;
                while let Some((id, _)) = d.next_miss() {
                    ended.push(id);
                    missed = true;
                }
                for &id in &ended {
                    settled[id as usize] += 1;
                    prop_assert!(settled[id as usize] == 1, "id {} settled twice", id);
                    wire.retain(|f| f.0 != id);
                    hedges.retain(|f| f.0 != id);
                    busied[id as usize] = None;
                }
                while let Some(s) = d.next_send(now, &view) {
                    let node = s.node as usize;
                    prop_assert!(!dead[node], "{:?} went to a node that is down", s);
                    wire.push((s.id, s.node, now));
                    if s.hedge {
                        hedges.push((s.id, s.node, now));
                        hedged[s.id as usize].push(s.node);
                    } else {
                        busied[s.id as usize] = None;
                    }
                    let out = wire.iter().filter(|f| f.1 == s.node).count();
                    prop_assert!(window[node] == 0 || out <= window[node], "node {} has {} out, window {}", node, out, window[node]);
                }
                for node in 0..N {
                    let exhausted = d.hard_suspect(node as u32) && !dead[node];
                    prop_assert!(!exhausted || struck[node], "node {} exhausted with no timeout and no spent allowance", node);
                }
                if strict && missed {
                    break;
                }
            }
            // The query ends: whatever is still open misses.
            d.abandon();
            while let Some((id, _)) = d.next_miss() {
                settled[id as usize] += 1;
            }
            for (id, &count) in settled.iter().enumerate() {
                prop_assert_eq!(count, (id < issued) as u32, "id {} settled {} times", id, count);
            }
            prop_assert_eq!(d.counters().hedges_won, won);
            prop_assert_eq!(d.open(), 0);
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
