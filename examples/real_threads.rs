//! Real concurrency: run the same RCV state machines over actual OS
//! threads — one thread per node, crossbeam channels for message passing,
//! random injected delays (so channels are NOT FIFO), and every message
//! serialized to bytes and parsed back on the wire.
//!
//! ```text
//! cargo run --release --example real_threads
//! ```

use std::time::Duration;

use rcv::core::RcvConfig;
use rcv::runtime::wire::verifying_hook;
use rcv::runtime::{run_rcv_cluster, ClusterSpec, NetDelay, RunSpec};

fn main() {
    let n = 8;
    let rounds = 5;

    // Round-trip every message through the binary wire codec.
    let spec = ClusterSpec::quick(n, 7)
        .rounds(rounds)
        .think(Duration::from_micros(300))
        .cs_duration(Duration::from_millis(1))
        .delay(NetDelay::Uniform {
            min: Duration::from_micros(100),
            max: Duration::from_millis(3),
        })
        .timeout(Duration::from_secs(60))
        .wire_hook(verifying_hook());

    println!(
        "Threaded RCV cluster: {n} nodes x {rounds} CS rounds, jittered non-FIFO delivery,\n\
         all messages byte-serialized on the wire...\n"
    );

    let report = run_rcv_cluster(spec, RcvConfig::paper());

    println!("CS executions completed : {}", report.completed);
    println!("CS entries (checker)    : {}", report.cs_entries);
    println!("mutex violations        : {}", report.violations);
    println!("messages exchanged      : {}", report.messages);
    println!("timed out               : {}", report.timed_out);

    assert!(
        report.is_clean((n as u64) * (rounds as u64)),
        "cluster run was not clean"
    );
    println!(
        "\nAll {} critical sections executed with zero overlap.",
        report.completed
    );

    // And the same real-concurrency treatment for every algorithm in the
    // workspace: one threaded cluster per algorithm, codec-verified wires
    // (`run_threaded` itself pins FIFO-requiring algorithms to a constant,
    // per-pair-FIFO delay).
    println!("\nAll 8 algorithms on real threads (4 nodes x 2 rounds each):");
    for (i, algo) in rcv::workload::Algo::all().into_iter().enumerate() {
        let spec = RunSpec::quick(4, 40 + i as u64).rounds(2);
        let r = algo.run_threaded(&spec);
        assert!(r.is_clean(spec.expected()), "{}: {:?}", algo.name(), r);
        println!(
            "  {:<12} {} CS, {:>4} msgs, safe, codec-verified",
            algo.name(),
            r.completed,
            r.messages
        );
    }
}
