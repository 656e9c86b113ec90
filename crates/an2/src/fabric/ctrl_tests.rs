//! The control transport's bookkeeping: every message sent is counted once,
//! every message destroyed — at the send, on a purged wire, at a crashed
//! line card — is counted lost once, and the rest arrive in send order.

use super::*;
use an2_reconfig::agent::Msg;

/// A wire message that fits one control cell (an invitation, 12 bytes).
fn msg() -> CtrlMsg {
    CtrlMsg::UpDown(Msg::Invite {
        tag: an2_reconfig::Tag::ZERO,
        from: SwitchId(0),
    })
}

fn arrived(t: &mut CtrlTransport) -> Vec<(u16, u32)> {
    t.take_arrivals()
        .into_iter()
        .map(|(to, link, _)| (to.0, link.0))
        .collect()
}

#[test]
fn a_message_to_a_crashed_switch_is_lost_at_the_port() {
    let mut t = CtrlTransport::default();
    t.send(5, SwitchId(1), LinkId(0), msg(), true);
    t.send(5, SwitchId(2), LinkId(1), msg(), true);
    t.send(9, SwitchId(2), LinkId(1), msg(), true);
    t.deliver_due(4, |_| false, None);
    assert_eq!(arrived(&mut t), []);
    t.deliver_due(5, |s| s == SwitchId(1), None);
    assert_eq!(arrived(&mut t), [(2, 1)]);
    assert_eq!(t.counters.messages_sent, 3);
    assert_eq!(t.counters.messages_lost, 1);
    assert!(!t.is_idle(), "the slot-9 message is still on its wire");
    t.deliver_due(9, |_| false, None);
    assert_eq!(arrived(&mut t), [(2, 1)]);
    assert!(t.is_idle());
    assert_eq!(t.counters.messages_lost, 1);
}

#[test]
fn a_purged_link_loses_its_messages_once() {
    let mut t = CtrlTransport::default();
    t.send(5, SwitchId(1), LinkId(0), msg(), true);
    t.send(6, SwitchId(2), LinkId(1), msg(), true);
    t.send(7, SwitchId(1), LinkId(0), msg(), true);
    t.purge_on(LinkId(0));
    assert_eq!(t.counters.messages_lost, 2);
    t.purge_on(LinkId(0));
    assert_eq!(t.counters.messages_lost, 2, "nothing left to lose");
    t.deliver_due(10, |_| false, None);
    assert_eq!(arrived(&mut t), [(2, 1)]);
    assert_eq!(t.counters.messages_lost, 2);
}

#[test]
fn a_message_lost_at_the_send_never_reaches_the_wire() {
    let mut t = CtrlTransport::default();
    t.send(5, SwitchId(1), LinkId(0), msg(), false);
    assert!(t.is_idle());
    let c = t.counters;
    assert_eq!((c.messages_sent, c.messages_lost, c.cells_sent), (1, 1, 1));
}

#[test]
fn next_due_is_the_minimum() {
    let mut t = CtrlTransport::default();
    assert_eq!(t.next_due(), None);
    for due in [12, 7, 9] {
        t.send(due, SwitchId(0), LinkId(0), msg(), true);
    }
    assert_eq!(t.next_due(), Some(7));
    t.deliver_due(7, |_| false, None);
    assert_eq!(t.next_due(), Some(9));
}
