//! Figures F1–F4: the paper's four illustrations, regenerated as artifacts.

use crate::flow_exp::{round_trip_slots, CreditLine};
use an2_schedule::{FrameSchedule, ReservationMatrix};
use an2_topology::{generators, SwitchId, Topology};
use std::fmt::Write;

/// F1 — the Figure 1 sample installation, with its fault-tolerance
/// properties checked.
#[derive(Debug)]
pub struct Figure1 {
    /// The generated installation.
    pub topo: Topology,
    /// Every host is attached to two distinct switches.
    pub all_hosts_dual_homed: bool,
    /// No single inter-switch link failure partitions the switches.
    pub survives_link_failure: bool,
    /// No single switch failure partitions survivors or strands a host.
    pub survives_switch_failure: bool,
}

/// Builds and checks the Figure 1 installation.
pub fn figure1(switches: usize, hosts: usize) -> Figure1 {
    let topo = generators::src_installation(switches, hosts);
    let all_hosts_dual_homed = topo.hosts().all(|h| {
        let att = topo.host_attachments(h);
        att.len() == 2 && att[0].1 != att[1].1
    });
    Figure1 {
        all_hosts_dual_homed,
        survives_link_failure: topo.survives_any_single_link_failure(),
        survives_switch_failure: topo.survives_any_single_switch_failure(),
        topo,
    }
}

impl Figure1 {
    /// Renders the report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "F1  sample AN1/AN2 installation (paper Figure 1)\n\
             switches: {}   hosts: {}   links: {}",
            self.topo.switch_count(),
            self.topo.host_count(),
            self.topo.link_count()
        );
        let _ = writeln!(
            out,
            "every host dual-homed:            {}",
            self.all_hosts_dual_homed
        );
        let _ = writeln!(
            out,
            "survives any single link death:   {}",
            self.survives_link_failure
        );
        let _ = writeln!(
            out,
            "survives any single switch death: {}",
            self.survives_switch_failure
        );
        out
    }
}

/// F2 — Figure 2's reservation table and one valid 3-slot frame schedule.
pub fn figure2() -> (ReservationMatrix, FrameSchedule, String) {
    let reservations = ReservationMatrix::figure2();
    let schedule = FrameSchedule::figure2();
    assert!(schedule.satisfies(&reservations));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "F2  guaranteed traffic: reservations and schedule (paper Figure 2)"
    );
    let _ = writeln!(out, "reservations (cells per frame), input x output:");
    let _ = writeln!(out, "        out1 out2 out3 out4");
    for i in 0..4 {
        let row: Vec<String> = (0..4)
            .map(|o| {
                let c = reservations.cells(i, o);
                if c == 0 {
                    "   .".into()
                } else {
                    format!("{c:>4}")
                }
            })
            .collect();
        let _ = writeln!(out, "  in{} {}", i + 1, row.join(" "));
    }
    let _ = writeln!(out, "schedule:");
    for slot in 0..3 {
        let _ = writeln!(out, "  slot {}: {}", slot + 1, schedule.format_slot(slot));
    }
    // Also demonstrate that Slepian–Duguid *constructs* a valid schedule
    // from the same reservations, not merely verifies the printed one.
    let built = FrameSchedule::build(&reservations);
    assert!(built.satisfies(&reservations));
    let _ = writeln!(
        out,
        "(independently rebuilt by Slepian-Duguid: satisfies = true)"
    );
    (reservations, schedule, out)
}

/// F3 — the Figure 3 insertion trace: adding 4→3 to the two-slot schedule,
/// reproducing the three displacement steps exactly.
pub fn figure3() -> String {
    // The initial p/q slots of Figure 3 (1-based in the paper).
    let mut s = FrameSchedule::new(4, 2);
    // p: 1→3 2→1 3→2 ; q: 1→2 3→4 4→1
    let initial = [
        (0u32, 0usize, 2usize),
        (0, 1, 0),
        (0, 2, 1),
        (1, 0, 1),
        (1, 2, 3),
        (1, 3, 0),
    ];
    // Rebuild via insert: every initial pair has a free slot, so no
    // displacement happens and the layout is exact.
    for &(slot, i, o) in &initial {
        assert!(s.pair_free(slot, i, o));
        // insert() scans from slot 0; to pin slots exactly, fill slot 0
        // first (it is scanned first), then slot 1 entries.
        let trace = s.insert(i, o).expect("initial layout inserts");
        assert_eq!(trace.slot_p, slot, "initial layout must land on its slot");
    }
    let mut out = String::new();
    let _ = writeln!(out, "F3  adding the reservation 4->3 (paper Figure 3)");
    let _ = writeln!(out, "initial  p: {}", s.format_slot(0));
    let _ = writeln!(out, "         q: {}", s.format_slot(1));
    let trace = s.insert(3, 2).expect("paper example inserts");
    let _ = writeln!(
        out,
        "slot p = {} (input 4 free), slot q = {} (output 3 free)",
        trace.slot_p + 1,
        trace.slot_q.map(|q| q + 1).unwrap_or(0)
    );
    for (k, m) in trace.moves.iter().enumerate() {
        let conn = format!("{}->{}", m.conn.0 + 1, m.conn.1 + 1);
        match m.displaced {
            Some(d) => {
                let _ = writeln!(
                    out,
                    "move {}: place {conn} in slot {}, displacing {}->{}",
                    k + 1,
                    m.slot + 1,
                    d.0 + 1,
                    d.1 + 1
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "move {}: place {conn} in slot {} (no conflict)",
                    k + 1,
                    m.slot + 1
                );
            }
        }
    }
    let _ = writeln!(out, "final    p: {}", s.format_slot(0));
    let _ = writeln!(out, "         q: {}", s.format_slot(1));
    let _ = writeln!(
        out,
        "paper steps used: {} (bound N = 4)",
        trace.paper_steps()
    );
    // The paper's final state.
    assert_eq!(s.format_slot(0), "1→2 2→1 3→4 4→3");
    assert_eq!(s.format_slot(1), "1→3 3→2 4→1");
    out
}

/// F4 — credit flow control across one link (paper Figure 4), on the
/// fabric's host0 – sw0 – sw1 – host1 line, shown one credit round trip at
/// a time: with fewer credits than the round trip needs, each window
/// carries exactly one cell per credit.
pub fn figure4() -> String {
    const CREDITS: u32 = 3;
    const LATENCY: u64 = 2;
    let window = round_trip_slots(LATENCY);
    let mut line = CreditLine::new(CREDITS, LATENCY, 4 * window);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "F4  credit flow control for best-effort traffic (paper Figure 4)"
    );
    let _ = writeln!(
        out,
        "host0 -> sw0 -> sw1 -> host1, {CREDITS} buffers per hop, {LATENCY}-slot links: \
         a credit spent comes back {window} slots later"
    );
    let (mut sent, mut delivered) = (0, 0);
    for w in 0..4 {
        line.fabric.step(window);
        let s = line.stats();
        let (now_sent, now_delivered) = (s.sent_cells, s.delivered_cells);
        // In the steady state every round trip returns every credit once.
        assert!(w == 0 || now_sent - sent == CREDITS as u64, "F4 window {w}");
        let _ = writeln!(
            out,
            "  slots {:>2}-{:>2}: host0 sent {} cells, host1 received {}, \
             sw0 balance now {}, sw1 buffers {}, {} cells and credits on the sw0-sw1 wire",
            w * window,
            (w + 1) * window - 1,
            now_sent - sent,
            now_delivered - delivered,
            line.fabric
                .switch_mut(SwitchId(0))
                .credit_balance(line.vc)
                .unwrap(),
            line.fabric.switch_mut(SwitchId(1)).buffered_cells(line.vc),
            line.fabric.inflight_on_link(line.mid),
        );
        (sent, delivered) = (now_sent, now_delivered);
    }
    let _ = writeln!(
        out,
        "steady state: every forwarded cell frees a buffer and returns one \
         credit; the sender transmits only with a positive balance, so the \
         circuit runs at {CREDITS}/{window} of the link."
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f1_properties_hold() {
        let f = figure1(8, 16);
        assert!(f.all_hosts_dual_homed);
        assert!(f.survives_link_failure);
        assert!(f.survives_switch_failure);
        assert!(f.render().contains("dual-homed"));
    }

    #[test]
    fn f2_matches_paper_tables() {
        let (r, s, text) = figure2();
        assert_eq!(r.total(), 10);
        assert_eq!(s.total_cells(), 10);
        assert!(text.contains("slot 2: 1→4 2→1 3→2 4→3"));
    }

    #[test]
    fn f3_reproduces_three_steps() {
        let text = figure3();
        assert!(text.contains("final    p: 1→2 2→1 3→4 4→3"));
        assert!(text.contains("paper steps used: 3"));
    }

    #[test]
    fn f4_reaches_steady_state() {
        let text = figure4();
        assert!(text.contains("credit"));
    }
}
