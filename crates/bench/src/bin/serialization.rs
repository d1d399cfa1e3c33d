//! §V-B inline numbers — the serialization optimization.
//!
//! The paper: switching from default-Java to Kryo serialization (plus
//! trimming logging/integrity checks) took 10 000 messages from 1.5 s to
//! 192 ms of master time (150 → 19 µs each) and shrank the master's
//! outbound traffic from 7.5 MB/15 000 packets to ≈900 KB.
//!
//! Sizes are measured from the real encoders; the CPU figure is the paper's
//! modelled constant. What this implementation costs per message is timed by
//! the `cluster.codec.*` rungs of `benchmark/`, so nothing here reads a
//! clock and the output repeats byte for byte.

use kvs_bench::{banner, Csv};
use kvs_cluster::messages::{QueryRequest, QueryResponse};
use kvs_cluster::{Codec, NetworkConfig};
use kvs_store::PartitionKey;

const MESSAGES: u64 = 10_000;

fn main() {
    banner(
        "§V-B",
        "serialization: Verbose (Java-like) vs Compact (Kryo-like)",
    );
    let mut csv = Csv::new(
        "serialization",
        &[
            "codec",
            "req_bytes",
            "resp_bytes",
            "total_tx_bytes",
            "modelled_cpu_ms",
            "wire_ms",
        ],
    );
    let net = NetworkConfig::default();
    for codec in [Codec::verbose(), Codec::compact()] {
        let name = format!("{:?}", codec.kind);
        let mut total_bytes = 0u64;
        let mut resp_bytes_total = 0u64;
        for i in 0..MESSAGES {
            let req = QueryRequest {
                request_id: i,
                partition: PartitionKey::from_id(i),
            };
            let bytes = codec.encode_request(&req);
            total_bytes += bytes.len() as u64;
            let decoded = codec.decode_request(bytes).expect("roundtrip");
            let resp = QueryResponse::from_kinds(decoded.request_id, [0u8, 1, 2, 3]);
            resp_bytes_total += codec.encode_response(&resp).len() as u64;
        }
        let modelled_ms = MESSAGES as f64 * codec.tx_cpu_us / 1_000.0;
        let wire_ms = net.transit(total_bytes as usize).as_millis_f64();
        println!("\n{name} codec:");
        println!("  request size        : {} B", total_bytes / MESSAGES);
        println!("  response size       : {} B", resp_bytes_total / MESSAGES);
        println!(
            "  {MESSAGES} requests on the wire : {:.2} MB",
            total_bytes as f64 / 1e6
        );
        println!(
            "  modelled master CPU : {modelled_ms:.0} ms ({} µs/msg — the paper's measurement)",
            codec.tx_cpu_us
        );
        println!("  network transit     : {wire_ms:.2} ms");
        csv.row(&[
            &name,
            &(total_bytes / MESSAGES),
            &(resp_bytes_total / MESSAGES),
            &total_bytes,
            &format!("{modelled_ms:.1}"),
            &format!("{wire_ms:.3}"),
        ]);
    }
    println!("\nPaper: 10 000 messages 1.5 s → 192 ms of master CPU; traffic 7.5 MB → ~0.9 MB.");
    csv.finish();
}
