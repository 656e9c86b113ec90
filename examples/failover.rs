//! The paper's favourite demo (§1): "pulling the plug on an arbitrary
//! switch in SRC's main LAN. The network reconfigures in less than 200
//! milliseconds, and users see no service interruption."
//!
//! This example runs the demo twice:
//!
//! 1. On the control plane, with the distributed reconfiguration protocol
//!    of §2 (epoch tags, three phases) running in virtual time — printing
//!    how long topology re-acquisition takes.
//! 2. On the data plane, with live traffic across the failed switch being
//!    rerouted and delivery resuming.
//!
//! Run with: `cargo run --example failover`

use an2::Network;
use an2_cells::Packet;
use an2_reconfig::harness::ReconfigNet;
use an2_topology::{generators, SwitchId};

fn main() -> Result<(), an2::NetError> {
    // --- Part 1: reconfiguration timing --------------------------------
    let topo = generators::src_installation(12, 0);
    let mut recon = ReconfigNet::with_defaults(topo, 99);
    recon.run_to_quiescence().expect("the protocol quiesces");
    assert!(recon.converged());
    println!(
        "boot: {} switches converged at t = {} using {} messages",
        recon.topology().switch_count(),
        recon.now(),
        recon.total_messages(),
    );

    let victim = SwitchId(5);
    let t0 = recon.now();
    recon.kill_switch(victim);
    recon.run_to_quiescence().expect("the protocol quiesces");
    let survivor = SwitchId(0);
    assert!(recon.partition_converged(survivor));
    let elapsed = recon
        .last_completion(survivor)
        .expect("survivors completed")
        .duration_since(t0);
    println!(
        "plug pulled on {victim}: survivors reconverged in {elapsed} \
         (paper: < 200ms) — under the bound: {}",
        elapsed < an2_sim::SimDuration::from_millis(200),
    );

    // --- Part 2: live traffic across the failure -----------------------
    let mut net = Network::builder().src_installation(8, 8).seed(3).build();
    let hosts: Vec<_> = net.hosts().collect();
    let vc = net.open_best_effort(hosts[0], hosts[4])?;
    let path = net.circuit_path(vc).unwrap().to_vec();
    println!("\ncircuit {vc:?} runs via {path:?}");

    // Stream packets; pull the plug on the first switch mid-stream.
    for k in 0..5u8 {
        net.send_packet(vc, Packet::from_bytes(vec![k; 2000]))?;
    }
    net.step(2_000);
    let first_switch = path[0];
    println!("pulling the plug on {first_switch} with traffic in flight...");
    net.fail_switch(first_switch);
    assert!(!net.is_broken(vc), "dual-homed host must fail over");
    println!("rerouted via {:?}", net.circuit_path(vc).unwrap());

    for k in 5..10u8 {
        net.send_packet(vc, Packet::from_bytes(vec![k; 2000]))?;
    }
    net.step(60_000);
    let got = net.take_received(hosts[4]);
    let stats = net.stats(vc);
    println!(
        "delivered {} packets ({} cells; {} cells dropped in the failure, \
         {} packet(s) lost to the drop and left for retransmission)",
        got.len(),
        stats.delivered_cells,
        stats.dropped_cells,
        stats.packets_corrupted,
    );
    assert!(
        got.len() >= 8,
        "nearly all packets must survive the failover"
    );
    Ok(())
}
