//! Delta debugging over sequences: the smallest part of a failing input
//! that still fails.
//!
//! [`ddmin`] is Zeller's classic minimiser, generic over any `&[T]`; the
//! chaos campaigns run it over flap and crash lists, and the property
//! suites over the event sequences they draw, through [`assert_sequence`].

use std::fmt::{Debug, Display};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Minimizes `items` to a 1-minimal subset on which `fails` still returns
/// `true` (removing any single remaining element makes it pass or cannot
/// be verified). `items` itself must fail. This is Zeller's ddmin with
/// chunk-and-complement probing.
pub fn ddmin<T: Clone>(items: &[T], mut fails: impl FnMut(&[T]) -> bool) -> Vec<T> {
    let mut current: Vec<T> = items.to_vec();
    let mut n = 2usize;
    while current.len() >= 2 {
        let chunk = current.len().div_ceil(n);
        let mut reduced = false;
        // Try each chunk alone.
        for start in (0..current.len()).step_by(chunk) {
            let subset: Vec<T> = current[start..(start + chunk).min(current.len())].to_vec();
            if subset.len() < current.len() && fails(&subset) {
                current = subset;
                n = 2;
                reduced = true;
                break;
            }
        }
        if reduced {
            continue;
        }
        // Try each complement.
        if n > 2 || current.len() > 2 {
            for start in (0..current.len()).step_by(chunk) {
                let mut complement = current.clone();
                complement.drain(start..(start + chunk).min(complement.len()));
                if !complement.is_empty() && complement.len() < current.len() && fails(&complement)
                {
                    current = complement;
                    n = (n - 1).max(2);
                    reduced = true;
                    break;
                }
            }
        }
        if reduced {
            continue;
        }
        if n >= current.len() {
            break;
        }
        n = (2 * n).min(current.len());
    }
    current
}

/// Runs `check` on `seq`, the sequence drawn at grid point `point`. A
/// panic inside `check` counts as an `Err` carrying its message.
///
/// # Panics
///
/// Panics when `seq` fails, naming the point, the drawn length, the
/// [`ddmin`]-minimised subsequence that still fails and its error.
#[track_caller]
pub fn assert_sequence<T: Clone + Debug>(
    point: impl Display,
    seq: &[T],
    check: impl Fn(&[T]) -> Result<(), String>,
) {
    let run = |s: &[T]| {
        catch_unwind(AssertUnwindSafe(|| check(s))).unwrap_or_else(|payload| {
            Err(payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panicked".to_string()))
        })
    };
    if run(seq).is_ok() {
        return;
    }
    let min = ddmin(seq, |s| run(s).is_err());
    let err = run(&min).expect_err("ddmin keeps a failing subsequence");
    panic!(
        "{point}: a sequence of {} fails; ddmin keeps {}: {min:?}: {err}",
        seq.len(),
        min.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddmin_finds_single_culprit() {
        let items: Vec<u32> = (0..20).collect();
        let min = ddmin(&items, |s| s.contains(&13));
        assert_eq!(min, vec![13]);
    }

    #[test]
    fn ddmin_finds_interacting_pair() {
        let items: Vec<u32> = (0..16).collect();
        let min = ddmin(&items, |s| s.contains(&3) && s.contains(&11));
        assert_eq!(min, vec![3, 11]);
    }

    #[test]
    fn ddmin_is_one_minimal_on_monotone_predicates() {
        let items: Vec<u32> = (0..32).collect();
        let min = ddmin(&items, |s| s.len() >= 5);
        assert_eq!(min.len(), 5, "1-minimal: removing any element passes");
    }

    #[test]
    fn ddmin_keeps_everything_when_all_needed() {
        let items: Vec<u32> = vec![1, 2, 3];
        let min = ddmin(&items, |s| s.len() == 3);
        assert_eq!(min, items);
    }

    #[test]
    #[should_panic(expected = "p: a sequence of 20 fails; ddmin keeps 1: [13]: unlucky 13")]
    fn a_failing_sequence_is_reported_minimised_even_when_the_check_panics() {
        let items: Vec<u32> = (0..20).collect();
        assert_sequence("p", &items, |s| match s.iter().find(|&&x| x == 13) {
            Some(x) => panic!("unlucky {x}"),
            None => Ok(()),
        });
    }
}
