//! A multimedia scenario (§1, §4): several video/audio streams reserve
//! guaranteed bandwidth while file transfers hammer the same links with
//! best-effort traffic. The demo shows that the streams' latency and jitter
//! stay inside the paper's p·(2f+l) bound regardless of the flood.
//!
//! Run with: `cargo run --example video_conference --release`

use an2::Network;
use an2_repro::workload::{CbrStream, FileTransfer};

fn main() -> Result<(), an2::NetError> {
    let frame: u32 = 256;
    let mut net = Network::builder()
        .src_installation(8, 12)
        .frame_slots(frame)
        .link_latency_slots(2)
        .seed(7)
        .build();
    let hosts: Vec<_> = net.hosts().collect();

    // Three conference streams: ~1.5 Mb/s video each at 622 Mb/s links is
    // tiny; reserve 32 cells/frame (12.5%) to also cover audio + headroom.
    let mut streams = Vec::new();
    for k in 0..3 {
        let vc = net.open_guaranteed(hosts[k], hosts[k + 6], 32)?;
        // One 480-byte packet (11 cells) every 128 slots ≈ 28% of the
        // reservation.
        streams.push(CbrStream::new(vc, 480, 128));
    }

    // Competing bulk transfers between other hosts, sharing the backbone.
    let mut transfers = Vec::new();
    for k in 3..6 {
        let vc = net.open_best_effort(hosts[k], hosts[k + 6])?;
        transfers.push(FileTransfer::new(vc, 9600, 200, 8));
    }

    // Run one simulated second at 622 Mb/s (~1.47M slots is a lot; run
    // 200k slots ≈ 136 ms of traffic).
    let total_slots = 200_000u64;
    let tick = 128u64;
    for _ in 0..(total_slots / tick) {
        for s in &mut streams {
            s.tick(&mut net)?;
        }
        for t in &mut transfers {
            t.tick(&mut net)?;
        }
        net.step(tick);
    }
    net.step(10_000); // drain

    println!("after {total_slots} slots ({} of traffic):", net.now());
    for (k, s) in streams.iter().enumerate() {
        let stats = net.stats(s.vc());
        let p = net.circuit_path(s.vc()).unwrap().len() as u64;
        let bound = p * (2 * frame as u64 + 2);
        let max = stats.latency_slots.max().unwrap_or(0);
        let mean = stats.latency_slots.mean().unwrap_or(0.0);
        println!(
            "stream {k}: {} packets, cell latency mean {:.1} / max {} slots \
             (paper bound p(2f+l) = {bound}), jitter ok: {}",
            stats.packets_delivered,
            mean,
            max,
            max <= bound,
        );
        assert!(max <= bound + 24, "guaranteed latency bound violated");
        assert!(stats.packets_corrupted == 0);
    }
    for (k, t) in transfers.iter().enumerate() {
        let done = t.remaining() == 0;
        println!(
            "transfer {k}: {}",
            if done { "complete" } else { "still running" }
        );
    }
    Ok(())
}
