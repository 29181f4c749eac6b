//! The workspace's one ordered parallel map.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Applies `f` to every item on up to `threads` scoped threads (0 = one
/// per available core) and returns the results in input order.
///
/// Threads claim the next unclaimed item through a shared atomic index,
/// so one slow item never holds back a statically assigned chunk. With
/// one thread, or at most one item, `f` runs inline on the caller's
/// thread. A panic in `f` propagates to the caller.
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        threads
    };
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let claimed: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return done;
                        };
                        done.push((i, f(item)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|p| resume_unwind(p)))
            .collect()
    });
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, result) in claimed.into_iter().flatten() {
        slots[i] = Some(result);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every item is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn output_order_is_input_order_when_costs_vary() {
        // Early items are the slowest, so later ones finish first.
        let items: Vec<u64> = (0..24).collect();
        let out = par_map(4, &items, |&i| {
            std::thread::sleep(Duration::from_millis((24 - i) % 5));
            i * i
        });
        assert_eq!(out, items.iter().map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn zero_threads_means_all_cores() {
        let items: Vec<u32> = (0..10).collect();
        assert_eq!(par_map(0, &items, |&i| i + 1), (1..11).collect::<Vec<_>>());
    }

    #[test]
    fn more_threads_than_items() {
        assert_eq!(par_map(16, &[3, 1, 2], |&i| i * 10), vec![30, 10, 20]);
    }

    #[test]
    fn empty_input() {
        let none: [u8; 0] = [];
        assert!(par_map(4, &none, |&i| i).is_empty());
        assert!(par_map(0, &none, |&i| i).is_empty());
    }

    #[test]
    fn a_panic_in_f_reaches_the_caller() {
        let items: Vec<u32> = (0..8).collect();
        let caught = std::panic::catch_unwind(|| {
            par_map(3, &items, |&i| {
                assert_ne!(i, 5, "item five fails");
                i
            })
        });
        let payload = caught.expect_err("the panic propagates");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(msg.contains("item five fails"), "payload kept: {msg:?}");
    }
}
