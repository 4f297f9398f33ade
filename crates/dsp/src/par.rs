//! Minimal order-preserving data parallelism on `std::thread::scope`.
//!
//! The acquisition loops in `divot-core` fan independent work items
//! (ETS points, averaging repeats, lanes, ROC trials) across CPU cores.
//! No external thread-pool crate is available offline, so this module
//! provides the two primitives those loops need, built directly on scoped
//! threads:
//!
//! * [`par_map_indexed`] — compute `f(0..n)` with dynamic (work-stealing)
//!   scheduling, returning results in index order;
//! * [`par_map_mut`] / [`par_zip_mut`] — run a closure over disjoint
//!   mutable items (channels, lanes) with static chunking.
//!
//! **Determinism contract**: these helpers only schedule; they never
//! change *what* is computed. As long as `f(i)` depends only on `i` and
//! shared read-only state (no shared RNG, no observable global mutation),
//! the returned vector is bitwise identical to the serial loop
//! `(0..n).map(f).collect()` — the property the
//! `parallel_equivalence` integration test pins down.
//!
//! Worker count comes from [`max_threads`]: the `DIVOT_THREADS`
//! environment variable when set, else [`std::thread::available_parallelism`].

use std::sync::atomic::{AtomicUsize, Ordering};

/// Record one fan-out in the process-wide telemetry (no-op when none is
/// installed): `par.fanouts` / `par.items` counters plus the
/// `par.workers` gauge. Called once per fan-out, never per item, so the
/// registry lookup stays off the hot path.
fn note_fanout(items: usize, workers: usize) {
    if let Some(t) = divot_telemetry::global() {
        let r = t.registry();
        r.counter("par.fanouts").inc();
        r.counter("par.items").add(items as u64);
        r.gauge("par.workers").set(workers as f64);
    }
}

/// Number of worker threads parallel helpers may use: `DIVOT_THREADS` if
/// set to a positive integer, otherwise the machine's available
/// parallelism (1 if that cannot be determined).
pub fn max_threads() -> usize {
    match std::env::var("DIVOT_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Compute `f(i)` for every `i in 0..n` across worker threads and return
/// the results in index order.
///
/// Scheduling is dynamic (an atomic work counter), so unevenly sized items
/// balance automatically; the output order is index order regardless of
/// which worker computed what.
///
/// Falls back to the plain serial loop when `n <= 1` or only one thread is
/// available.
///
/// # Panics
///
/// Propagates a panic from any invocation of `f`.
pub fn par_map_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = max_threads().min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    note_fanout(n, workers);
    let next = AtomicUsize::new(0);
    let mut per_worker: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        mine.push((i, f(i)));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for chunk in &mut per_worker {
        for (i, v) in chunk.drain(..) {
            slots[i] = Some(v);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index computed exactly once"))
        .collect()
}

/// Run `f(index, &mut item)` over every item of a mutable slice across
/// worker threads (static chunking), returning the results in item order.
///
/// # Panics
///
/// Propagates a panic from any invocation of `f`.
pub fn par_map_mut<A, T, F>(items: &mut [A], f: F) -> Vec<T>
where
    A: Send,
    T: Send,
    F: Fn(usize, &mut A) -> T + Sync,
{
    let n = items.len();
    let workers = max_threads().min(n.max(1));
    if workers <= 1 {
        return items.iter_mut().enumerate().map(|(i, a)| f(i, a)).collect();
    }
    note_fanout(n, workers);
    let chunk = n.div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks_mut(chunk)
            .enumerate()
            .map(|(c, slice)| {
                let f = &f;
                scope.spawn(move || {
                    slice
                        .iter_mut()
                        .enumerate()
                        .map(|(j, a)| f(c * chunk + j, a))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    })
}

/// Run `f(index, &mut a, &mut b)` over two equal-length mutable slices in
/// lock step across worker threads, returning the results in item order.
///
/// # Panics
///
/// Panics if the slices differ in length; propagates a panic from `f`.
pub fn par_zip_mut<A, B, T, F>(a: &mut [A], b: &mut [B], f: F) -> Vec<T>
where
    A: Send,
    B: Send,
    T: Send,
    F: Fn(usize, &mut A, &mut B) -> T + Sync,
{
    assert_eq!(a.len(), b.len(), "zipped slices must match in length");
    let n = a.len();
    let workers = max_threads().min(n.max(1));
    if workers <= 1 {
        return a
            .iter_mut()
            .zip(b.iter_mut())
            .enumerate()
            .map(|(i, (x, y))| f(i, x, y))
            .collect();
    }
    note_fanout(n, workers);
    let chunk = n.div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = a
            .chunks_mut(chunk)
            .zip(b.chunks_mut(chunk))
            .enumerate()
            .map(|(c, (sa, sb))| {
                let f = &f;
                scope.spawn(move || {
                    sa.iter_mut()
                        .zip(sb.iter_mut())
                        .enumerate()
                        .map(|(j, (x, y))| f(c * chunk + j, x, y))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexed_map_preserves_order() {
        let out = par_map_indexed(1000, |i| i * i);
        assert_eq!(out, (0..1000).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn indexed_map_matches_serial_bitwise() {
        // Per-index derived RNG: the contract the acquisition engine
        // relies on.
        let work = |i: usize| {
            let mut rng = crate::rng::DivotRng::derive(99, i as u64);
            (0..50).map(|_| rng.normal(0.0, 1.0)).sum::<f64>()
        };
        let serial: Vec<f64> = (0..64).map(work).collect();
        let parallel = par_map_indexed(64, work);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.to_bits(), p.to_bits());
        }
    }

    #[test]
    fn empty_and_single_items() {
        assert_eq!(par_map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(1, |i| i + 7), vec![7]);
        let mut empty: [u8; 0] = [];
        assert_eq!(par_map_mut(&mut empty, |_, _| 0u8), Vec::<u8>::new());
    }

    #[test]
    fn map_mut_mutates_every_item_in_order() {
        let mut items: Vec<u64> = (0..97).collect();
        let out = par_map_mut(&mut items, |i, v| {
            *v += 1;
            *v * i as u64
        });
        assert_eq!(items, (1..98).collect::<Vec<u64>>());
        assert_eq!(out, (0..97).map(|i| (i + 1) * i).collect::<Vec<u64>>());
    }

    #[test]
    fn zip_mut_pairs_by_index() {
        let mut a: Vec<u32> = (0..33).collect();
        let mut b: Vec<u32> = (0..33).map(|i| 100 + i).collect();
        let out = par_zip_mut(&mut a, &mut b, |i, x, y| {
            *x += *y;
            *x as usize + i
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 100 + 2 * i + i);
        }
    }

    #[test]
    #[should_panic(expected = "zipped slices must match")]
    fn zip_rejects_length_mismatch() {
        let mut a = [1u8; 3];
        let mut b = [1u8; 4];
        let _ = par_zip_mut(&mut a, &mut b, |_, _, _| ());
    }

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }
}
