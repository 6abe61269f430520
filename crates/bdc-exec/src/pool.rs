//! Scoped work-stealing thread pool with an index-ordered `par_map`.
//!
//! Determinism contract: `par_mapi(items, f)` returns exactly
//! `items.iter().enumerate().map(|(i, t)| f(i, t)).collect()` for any worker
//! count, provided `f` is a pure function of `(i, t)`. The pool only changes
//! *when* each task runs, never what it computes or where its result lands,
//! so parallel output is bit-identical to the serial path.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

thread_local! {
    /// Set on pool worker threads. A `par_map` issued from inside a
    /// worker runs inline instead of spawning a second tier of threads:
    /// the outer fan-out already owns the machine's parallelism, and
    /// nesting would oversubscribe it (w² threads competing for w cores)
    /// without changing any result — the pool's contract is that output
    /// never depends on where tasks run.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Worker-count override installed by [`set_workers`]; 0 means "not set".
static WORKER_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Forces the worker count for subsequent [`par_map`] calls in this
/// process. `None` restores the default resolution order (environment,
/// then hardware). Benchmarks and the determinism suite use this to pin
/// 1/2/8-worker runs.
pub fn set_workers(n: Option<usize>) {
    WORKER_OVERRIDE.store(n.map_or(0, |v| v.max(1)), Ordering::Relaxed);
}

/// The worker count the next [`par_map`] call will use: the
/// [`set_workers`] override if installed, else `BDC_WORKERS` from the
/// environment, else the machine's available parallelism.
///
/// A malformed `BDC_WORKERS` prints the parser's one-line diagnostic to
/// stderr and exits with status 2 — an invalid knob silently falling back
/// to the default would make "I pinned the worker count" runs lie, and a
/// panic's backtrace spam is the wrong answer to a typo'd env var.
/// Binaries that call [`crate::env_config`] up front never reach this
/// backstop.
#[expect(
    clippy::disallowed_methods,
    reason = "bdc-exec is where the BDC_* knobs are read and validated"
)]
pub fn workers() -> usize {
    let forced = WORKER_OVERRIDE.load(Ordering::Relaxed);
    if forced != 0 {
        return forced;
    }
    if let Ok(raw) = std::env::var("BDC_WORKERS") {
        return parse_workers(&raw).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Validates a `BDC_WORKERS` value: a positive integer, surrounding
/// whitespace tolerated.
///
/// # Errors
/// A one-line diagnostic naming the variable and the offending value.
pub fn parse_workers(raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(0) => Err(format!(
            "BDC_WORKERS must be >= 1 (use 1 for serial execution), got `{raw}`"
        )),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "BDC_WORKERS must be a positive integer (e.g. `BDC_WORKERS=8`), got `{raw}`"
        )),
    }
}

/// Maps `f` over `items` on the pool, returning results in index order.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_mapi(items, |_, t| f(t))
}

/// Maps `f(index, item)` over `items` on the pool, returning results in
/// index order. The index parameter is how randomized tasks derive a
/// per-task seed (see [`crate::task_seed`]) instead of consuming a shared
/// sequential RNG stream.
///
/// # Panics
/// Propagates the first panic raised by `f` after all workers have joined.
pub fn par_mapi<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let w = workers().min(n);
    if w <= 1 || IN_POOL.with(|p| p.get()) {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    // Workers inherit the spawning thread's attribution scope so tallies
    // recorded inside the fan-out stay credited to it (see
    // [`crate::stages::enter_scope`]).
    let scope = crate::stages::current_scope();

    // Per-worker deques, seeded with contiguous index blocks for locality.
    // A worker pops from the front of its own deque and, when empty, steals
    // from the back of a victim's — the classic work-stealing discipline,
    // here with plain mutexed deques (tasks are simulation-scale, so lock
    // traffic is negligible).
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..w)
        .map(|k| Mutex::new((k * n / w..(k + 1) * n / w).collect()))
        .collect();

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|s| {
        for k in 0..w {
            let tx = tx.clone();
            let queues = &queues;
            let f = &f;
            s.spawn(move || {
                IN_POOL.with(|p| p.set(true));
                crate::stages::adopt_scope(scope);
                loop {
                    let mine = queues[k].lock().expect("queue poisoned").pop_front();
                    let idx = mine.or_else(|| {
                        (1..w).find_map(|off| {
                            queues[(k + off) % w]
                                .lock()
                                .expect("queue poisoned")
                                .pop_back()
                        })
                    });
                    // Work is only ever consumed, never produced, so finding
                    // every deque empty means this worker is done for good.
                    match idx {
                        Some(i) => {
                            if tx.send((i, f(i, &items[i]))).is_err() {
                                break;
                            }
                        }
                        None => break,
                    }
                }
            });
        }
        drop(tx);
        // Receive until every sender is gone (normal completion or a
        // worker unwinding); placement by index makes the output order
        // independent of completion order.
        for (i, r) in rx {
            slots[i] = Some(r);
        }
        // Leaving the scope joins the workers and propagates any panic.
    });
    slots
        .into_iter()
        .map(|r| r.expect("worker completed every index"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialize tests that touch the global override.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn par_map_is_index_ordered_for_all_worker_counts() {
        let _g = LOCK.lock().unwrap();
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for w in [1, 2, 3, 8, 64] {
            set_workers(Some(w));
            let got = par_map(&items, |&x| x * x + 1);
            assert_eq!(got, expect, "workers = {w}");
        }
        set_workers(None);
    }

    #[test]
    fn par_mapi_passes_the_index() {
        let _g = LOCK.lock().unwrap();
        set_workers(Some(4));
        let items = vec!["a"; 100];
        let got = par_mapi(&items, |i, s| format!("{s}{i}"));
        for (i, s) in got.iter().enumerate() {
            assert_eq!(s, &format!("a{i}"));
        }
        set_workers(None);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let _g = LOCK.lock().unwrap();
        set_workers(Some(8));
        assert_eq!(par_map(&[] as &[i32], |x| *x), Vec::<i32>::new());
        assert_eq!(par_map(&[41], |x| x + 1), vec![42]);
        set_workers(None);
    }

    #[test]
    fn worker_panic_propagates() {
        let _g = LOCK.lock().unwrap();
        set_workers(Some(2));
        let items: Vec<usize> = (0..16).collect();
        let res = std::panic::catch_unwind(|| {
            par_map(&items, |&i| {
                assert!(i != 7, "boom");
                i
            })
        });
        assert!(res.is_err());
        set_workers(None);
    }

    #[test]
    fn set_workers_overrides_environment() {
        let _g = LOCK.lock().unwrap();
        set_workers(Some(3));
        assert_eq!(workers(), 3);
        set_workers(None);
        assert!(workers() >= 1);
    }

    #[test]
    fn parse_workers_accepts_positive_integers() {
        for (raw, expect) in [("1", 1), ("8", 8), (" 4 ", 4), ("64", 64)] {
            assert_eq!(parse_workers(raw), Ok(expect), "{raw:?}");
        }
    }

    #[test]
    fn parse_workers_rejects_with_a_diagnostic() {
        for raw in ["0", "-2", "", " ", "abc", "1.5", "8workers", "+"] {
            let err = parse_workers(raw).expect_err(raw);
            assert!(
                err.contains("BDC_WORKERS"),
                "diagnostic names the knob: {err}"
            );
            assert!(err.contains(raw.trim()) || raw.trim().is_empty(), "{err}");
        }
    }
}
