//! Application traffic for the AN2 network.
//!
//! The paper motivates AN2's two service classes with concrete
//! applications: "a guaranteed traffic stream [...] is well suited to
//! transmitting multi-media data", while "file transfers and
//! remote-procedure call are examples of applications where best-effort
//! scheduling is most appropriate" (§1). This module provides those
//! workloads as drivers over [`an2::Network`]:
//!
//! * [`CbrStream`] — a constant-bit-rate multimedia source on a guaranteed
//!   circuit (fixed-size packets on a fixed period).
//! * [`FileTransfer`] — a windowed bulk transfer on a best-effort circuit.
//! * [`RpcPair`] — request/response traffic, one request outstanding at a
//!   time.
//! * [`PoissonMix`] — background load: Poisson packet arrivals over a set
//!   of circuits.
//!
//! Each driver exposes `tick(net)`, to be called once per batch of slots;
//! drivers never block and are deterministic given the network's seed and
//! their own.

use an2::{Network, VcId};
use an2_cells::Packet;
use an2_sim::SimRng;
use an2_topology::HostId;

/// A constant-bit-rate stream: one `packet_bytes` packet every
/// `interval_slots` slots — a digital-audio/video source (§1).
#[derive(Debug)]
pub struct CbrStream {
    vc: VcId,
    packet_bytes: usize,
    interval_slots: u64,
    next_due: u64,
    sent: u64,
}

impl CbrStream {
    /// A stream on an (already opened, typically guaranteed) circuit.
    ///
    /// # Panics
    ///
    /// Panics if `interval_slots == 0`.
    pub fn new(vc: VcId, packet_bytes: usize, interval_slots: u64) -> Self {
        assert!(interval_slots > 0, "interval must be positive");
        CbrStream {
            vc,
            packet_bytes,
            interval_slots,
            next_due: 0,
            sent: 0,
        }
    }

    /// Packets sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// The stream's circuit.
    pub fn vc(&self) -> VcId {
        self.vc
    }

    /// Emits every packet due by the network's current slot.
    ///
    /// # Errors
    ///
    /// Propagates [`an2::NetError`] (e.g. the circuit broke).
    pub fn tick(&mut self, net: &mut Network) -> Result<(), an2::NetError> {
        while self.next_due <= net.slot() {
            net.send_packet(self.vc, Packet::from_bytes(vec![0xCB; self.packet_bytes]))?;
            self.next_due += self.interval_slots;
            self.sent += 1;
        }
        Ok(())
    }
}

/// A windowed bulk transfer: keeps up to `window` packets in the source
/// controller's outbox until `total_packets` have been queued.
#[derive(Debug)]
pub struct FileTransfer {
    vc: VcId,
    packet_bytes: usize,
    remaining: u64,
    window: usize,
}

impl FileTransfer {
    /// A transfer of `total_packets` packets of `packet_bytes` each.
    pub fn new(vc: VcId, packet_bytes: usize, total_packets: u64, window: usize) -> Self {
        FileTransfer {
            vc,
            packet_bytes,
            remaining: total_packets,
            window: window.max(1),
        }
    }

    /// Packets not yet handed to the network.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Tops the outbox up to the window.
    ///
    /// # Errors
    ///
    /// Propagates [`an2::NetError`].
    pub fn tick(&mut self, net: &mut Network) -> Result<(), an2::NetError> {
        while self.remaining > 0 && net.outbox_len(self.vc) < self.window {
            net.send_packet(self.vc, Packet::from_bytes(vec![0xF1; self.packet_bytes]))?;
            self.remaining -= 1;
        }
        Ok(())
    }
}

/// Request/response RPC over a pair of circuits (one per direction).
#[derive(Debug)]
pub struct RpcPair {
    client: HostId,
    server: HostId,
    to_server: VcId,
    to_client: VcId,
    request_bytes: usize,
    reply_bytes: usize,
    outstanding: bool,
    completed: u64,
}

impl RpcPair {
    /// An RPC conversation over two open circuits.
    pub fn new(
        client: HostId,
        server: HostId,
        to_server: VcId,
        to_client: VcId,
        request_bytes: usize,
        reply_bytes: usize,
    ) -> Self {
        RpcPair {
            client,
            server,
            to_server,
            to_client,
            request_bytes,
            reply_bytes,
            outstanding: false,
            completed: 0,
        }
    }

    /// Completed round trips.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Drives both sides: the server answers arrived requests; the client
    /// issues a new request whenever none is outstanding, and accounts
    /// arrived replies.
    ///
    /// # Errors
    ///
    /// Propagates [`an2::NetError`].
    pub fn tick(&mut self, net: &mut Network) -> Result<(), an2::NetError> {
        // Server: consume requests, send replies.
        let requests = net.take_received(self.server);
        for (vc, _req) in requests {
            if vc == self.to_server {
                net.send_packet(
                    self.to_client,
                    Packet::from_bytes(vec![0x22; self.reply_bytes]),
                )?;
            }
        }
        // Client: consume replies.
        let replies = net.take_received(self.client);
        for (vc, _rep) in replies {
            if vc == self.to_client && std::mem::take(&mut self.outstanding) {
                self.completed += 1;
            }
        }
        // Client: issue the next request.
        if !self.outstanding {
            net.send_packet(
                self.to_server,
                Packet::from_bytes(vec![0x11; self.request_bytes]),
            )?;
            self.outstanding = true;
        }
        Ok(())
    }
}

/// Background traffic: on each tick, each circuit sends a packet with
/// probability `rate` (Bernoulli approximation of Poisson arrivals).
#[derive(Debug)]
pub struct PoissonMix {
    vcs: Vec<VcId>,
    rate: f64,
    packet_bytes: usize,
    rng: SimRng,
    sent: u64,
}

impl PoissonMix {
    /// Background load over `vcs`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= rate <= 1`.
    pub fn new(vcs: Vec<VcId>, rate: f64, packet_bytes: usize, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        PoissonMix {
            vcs,
            rate,
            packet_bytes,
            rng: SimRng::new(seed),
            sent: 0,
        }
    }

    /// Packets sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// One arrival opportunity per circuit. Broken circuits are skipped.
    pub fn tick(&mut self, net: &mut Network) {
        for &vc in &self.vcs {
            if self.rng.gen_bool(self.rate)
                && !net.is_broken(vc)
                && net
                    .send_packet(vc, Packet::from_bytes(vec![0x99; self.packet_bytes]))
                    .is_ok()
            {
                self.sent += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> (Network, Vec<HostId>) {
        let net = Network::builder().src_installation(6, 8).seed(21).build();
        let hosts = net.hosts().collect();
        (net, hosts)
    }

    #[test]
    fn cbr_stream_sends_on_schedule() {
        let (mut n, h) = net();
        let vc = n.open_guaranteed(h[0], h[1], 64).unwrap();
        let mut s = CbrStream::new(vc, 480, 500);
        for _ in 0..10 {
            s.tick(&mut n).unwrap();
            n.step(500);
        }
        assert_eq!(s.sent(), 10);
        assert_eq!(s.vc(), vc);
        n.step(5_000);
        assert_eq!(n.stats(vc).packets_delivered, 10);
    }

    #[test]
    fn file_transfer_completes_and_respects_window() {
        let (mut n, h) = net();
        let vc = n.open_best_effort(h[2], h[5]).unwrap();
        let mut ft = FileTransfer::new(vc, 960, 40, 4);
        let mut guard = 0;
        while ft.remaining() > 0 {
            ft.tick(&mut n).unwrap();
            assert!(n.outbox_len(vc) <= 4 * 21, "window in packets -> cells");
            n.step(200);
            guard += 1;
            assert!(guard < 1_000, "transfer stalled");
        }
        n.step(20_000);
        assert_eq!(n.stats(vc).packets_delivered, 40);
    }

    #[test]
    fn rpc_round_trips_accumulate() {
        let (mut n, h) = net();
        let to_server = n.open_best_effort(h[0], h[3]).unwrap();
        let to_client = n.open_best_effort(h[3], h[0]).unwrap();
        let mut rpc = RpcPair::new(h[0], h[3], to_server, to_client, 100, 400);
        // Each round trip spans two ticks: the server replies on the tick
        // after the request lands, the client accounts it one tick later.
        for _ in 0..50 {
            rpc.tick(&mut n).unwrap();
            n.step(400);
        }
        assert!(
            rpc.completed() >= 20,
            "only {} RPCs completed",
            rpc.completed()
        );
    }

    #[test]
    fn poisson_mix_approximates_rate() {
        let (mut n, h) = net();
        let vcs: Vec<VcId> = (0..4)
            .map(|k| n.open_best_effort(h[k], h[k + 4]).unwrap())
            .collect();
        let mut bg = PoissonMix::new(vcs, 0.25, 480, 5);
        for _ in 0..1_000 {
            bg.tick(&mut n);
            n.step(50);
        }
        let expect = 1_000.0 * 4.0 * 0.25;
        assert!(
            (bg.sent() as f64 - expect).abs() < expect * 0.2,
            "sent {} vs expected {expect}",
            bg.sent()
        );
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn cbr_zero_interval_rejected() {
        CbrStream::new(VcId::new(1), 100, 0);
    }

    #[test]
    fn cbr_surfaces_broken_circuit() {
        let mut n = Network::builder().ring(3, 3).seed(9).build();
        let hosts: Vec<_> = n.hosts().collect();
        let vc = n.open_best_effort(hosts[0], hosts[1]).unwrap();
        let (host_link, _) = n.topology().host_attachments(hosts[0])[0];
        n.fail_link(host_link);
        let mut s = CbrStream::new(vc, 100, 10);
        assert!(s.tick(&mut n).is_err());
    }

    #[test]
    fn guaranteed_stream_has_less_jitter_than_best_effort_under_load() {
        // §1: guaranteed streams are "assured of receiving a specified
        // bandwidth with bounded delay and jitter" — the reason multimedia
        // rides the guaranteed class. Run identical CBR streams over both
        // classes while a flood shares their path; compare latency spread.
        let mut n = Network::builder()
            .src_installation(6, 8)
            .frame_slots(128)
            .seed(77)
            .build();
        let hosts: Vec<_> = n.hosts().collect();
        let gt = n.open_guaranteed(hosts[0], hosts[4], 32).unwrap();
        let be = n.open_best_effort(hosts[1], hosts[4]).unwrap();
        let flood = n.open_best_effort(hosts[2], hosts[4]).unwrap();
        let mut gt_stream = CbrStream::new(gt, 480, 256);
        let mut be_stream = CbrStream::new(be, 480, 256);
        let mut flood_ft = FileTransfer::new(flood, 9600, 500, 16);
        for _ in 0..200 {
            gt_stream.tick(&mut n).unwrap();
            be_stream.tick(&mut n).unwrap();
            flood_ft.tick(&mut n).unwrap();
            n.step(256);
        }
        n.step(50_000);
        let spread = |vc| {
            let mut h = n.stats(vc).latency_slots.clone();
            h.percentile(0.99).unwrap() - h.percentile(0.01).unwrap()
        };
        let gt_jitter = spread(gt);
        let be_jitter = spread(be);
        assert!(
            gt_jitter <= be_jitter,
            "guaranteed jitter {gt_jitter} should not exceed best-effort {be_jitter}"
        );
        // And the guaranteed stream never lost a packet to the flood.
        assert_eq!(n.stats(gt).packets_delivered, gt_stream.sent());
    }
}
