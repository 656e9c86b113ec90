//! The calendar ring against its definition: events come out on their due
//! slot in push order, whatever else shares their bucket.

use super::*;

fn credit(vc: u32, link: u32) -> Event {
    Event::CreditToHost {
        vc: VcId::new(vc),
        link: LinkId(link),
        epoch: 0,
    }
}

/// The `(vc, link)` of each event, in order.
fn ids<'a>(events: impl IntoIterator<Item = &'a Event>) -> Vec<(u32, u32)> {
    events
        .into_iter()
        .map(|e| (e.vc().raw(), e.link().0))
        .collect()
}

fn take(agenda: &mut Agenda, slot: u64) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    agenda.take_due(slot, &mut out);
    assert!(out.iter().all(|&(due, _)| due == slot));
    ids(out.iter().map(|(_, e)| e))
}

#[test]
fn an_event_a_ring_ahead_waits_in_a_shared_bucket_for_its_own_slot() {
    let mut agenda = Agenda::new(6); // an 8-bucket ring
    let ring = agenda.mask + 1;
    assert_eq!(ring, 8);
    agenda.push(3, credit(1, 0));
    agenda.push(3 + ring, credit(2, 0)); // jittered a full ring ahead
    agenda.push(3, credit(3, 0));
    assert_eq!(agenda.buckets[3].len(), 3, "all three share bucket 3");

    assert_eq!(take(&mut agenda, 3), [(1, 0), (3, 0)]);
    assert_eq!(agenda.buckets[3].len(), 1, "the later arrival stays");
    assert_eq!(agenda.next_due(), Some(3 + ring));
    for slot in 4..3 + ring {
        assert_eq!(take(&mut agenda, slot), []);
    }
    assert_eq!(take(&mut agenda, 3 + ring), [(2, 0)]);
    assert_eq!(agenda.next_due(), None);
}

#[test]
fn drain_where_takes_one_link_and_leaves_the_rest_in_order() {
    let mut agenda = Agenda::new(6);
    // Three links interleaved over two due slots; vc numbers record the
    // push order.
    for (vc, (due, link)) in [(5, 1), (5, 2), (6, 1), (5, 1), (5, 3), (6, 2), (5, 2)]
        .into_iter()
        .enumerate()
    {
        agenda.push(due, credit(vc as u32, link));
    }
    assert_eq!(agenda.count_matching(|e| e.link() == LinkId(1)), 3);

    let drained = agenda.drain_where(|e| e.link() == LinkId(1));
    // Bucket by bucket, push order within each.
    assert_eq!(ids(&drained), [(0, 1), (3, 1), (2, 1)]);
    assert_eq!(agenda.count_matching(|e| e.link() == LinkId(1)), 0);
    assert_eq!(take(&mut agenda, 5), [(1, 2), (4, 3), (6, 2)]);
    assert_eq!(take(&mut agenda, 6), [(5, 2)]);
    assert!(agenda.drain_where(|_| true).is_empty());
}

#[test]
fn next_due_is_the_minimum_over_an_empty_and_a_wrapped_ring() {
    let mut agenda = Agenda::new(2); // a 4-bucket ring
    assert_eq!(agenda.next_due(), None);
    // Slots 6 and 9 sit in buckets 2 and 1: bucket order is not due order.
    agenda.push(9, credit(1, 0));
    agenda.push(6, credit(2, 0));
    assert_eq!(agenda.next_due(), Some(6));
    assert_eq!(take(&mut agenda, 6), [(2, 0)]);
    assert_eq!(agenda.next_due(), Some(9));
    assert_eq!(take(&mut agenda, 9), [(1, 0)]);
    assert_eq!(agenda.next_due(), None);
}
