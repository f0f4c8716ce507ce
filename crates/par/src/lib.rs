//! # tm-par
//!
//! Deterministic data parallelism for the `backbone-tm` workspace on
//! plain `std::thread::scope` — no external runtime.
//!
//! The estimation pipeline is full of embarrassingly parallel outer
//! loops (per-snapshot estimation, per-OD-pair LPs, per-interval moment
//! accumulation, per-λ regularization sweeps). All of them need one
//! property a generic work-stealing pool does not guarantee by default:
//! **bit-identical results regardless of thread count**. The helpers
//! here provide that by construction — inputs are split into
//! *index-ordered* chunks, each chunk is processed on its own scoped
//! thread, and outputs are reassembled in input order before returning.
//! Floating-point reduction order is therefore a pure function of the
//! input, never of scheduling.
//!
//! Thread count comes from `std::thread::available_parallelism`; the
//! `TM_PAR_THREADS` environment variable overrides it in either
//! direction (`1` forces serial execution for flame profiles;
//! oversubscribing a small box exercises the threaded path — results
//! are identical regardless, by construction).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

thread_local! {
    /// True while the current thread is already inside a parallel
    /// worker: nested `par_map` calls then run serially instead of
    /// multiplying thread counts (outer sweep × inner estimator).
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Number of worker threads parallel helpers will use.
pub fn threads() -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    match std::env::var("TM_PAR_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        // Deliberately NOT capped at `hw`: oversubscription must be
        // possible so the threaded path is exercisable on small boxes.
        Some(n) if n >= 1 => n,
        _ => hw.max(1),
    }
}

/// Map `f` over `items` in parallel, returning outputs in input order.
///
/// Deterministic: the output vector is identical to
/// `items.iter().map(f).collect()` for any thread count (each item is
/// mapped independently; no cross-item reduction happens here).
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed(items, |_, item| f(item))
}

/// [`par_map`] variant passing the item index alongside the item.
pub fn par_map_indexed<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let n = items.len();
    let workers = threads().min(n.max(1));
    if workers <= 1 || n <= 1 || IN_WORKER.with(|w| w.get()) {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    // Split into contiguous chunks; chunk boundaries depend only on
    // (n, workers), and outputs are concatenated in chunk order.
    let chunk = n.div_ceil(workers);
    let mut out: Vec<Vec<U>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (ci, slice) in items.chunks(chunk).enumerate() {
            let f = &f;
            let base = ci * chunk;
            handles.push(scope.spawn(move || {
                IN_WORKER.with(|w| w.set(true));
                slice
                    .iter()
                    .enumerate()
                    .map(|(k, t)| f(base + k, t))
                    .collect::<Vec<U>>()
            }));
        }
        for h in handles {
            out.push(h.join().expect("tm_par worker panicked"));
        }
    });
    let mut flat = Vec::with_capacity(n);
    for mut v in out {
        flat.append(&mut v);
    }
    flat
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn indexed_map_sees_global_indices() {
        let items = vec![10usize; 97];
        let out = par_map_indexed(&items, |i, &x| i + x);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i + 10);
        }
    }

    #[test]
    fn nested_par_map_runs_serially_inside_workers() {
        // An inner par_map inside a worker must not spawn more threads
        // (thread counts would otherwise multiply). Detect by checking
        // the inner call executes on the worker's own thread.
        let outer: Vec<usize> = (0..16).collect();
        let results = par_map(&outer, |_| {
            let tid = std::thread::current().id();
            let inner: Vec<usize> = (0..8).collect();
            let inner_tids = par_map(&inner, |_| std::thread::current().id());
            inner_tids.iter().all(|&t| t == tid)
        });
        assert!(results.iter().all(|&serial_inner| serial_inner));
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<usize> = Vec::new();
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[5usize], |&x| x + 1), vec![6]);
        assert!(threads() >= 1);
    }
}
