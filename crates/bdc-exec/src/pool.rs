//! Scoped thread pool with an index-ordered `par_map` whose nested
//! fan-outs recruit idle cores.
//!
//! Determinism contract: `par_mapi(items, f)` returns exactly
//! `items.iter().enumerate().map(|(i, t)| f(i, t)).collect()` for any worker
//! count, provided `f` is a pure function of `(i, t)`. The pool only changes
//! *when* each task runs, never what it computes or where its result lands,
//! so parallel output is bit-identical to the serial path.
//!
//! Scheduling (DESIGN.md §5e): a call hands out its indices from one
//! claim counter, and at each claim it recruits a helper thread while
//! fewer than [`workers`] threads run pool work process-wide, so nested
//! calls use cores that free up. A helper runs only its own call's items:
//! it never blocks on a single-flight lock its caller holds.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::Scope;

/// Threads running pool work right now, process-wide: each thread that
/// entered an outermost fan-out, plus every live helper. Helpers are
/// recruited only while this is below [`workers`]. Like the claim counter,
/// it publishes no other data (results travel through mutexes and joins),
/// so its operations are `Relaxed`.
static RUNNING: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while this thread is counted in [`RUNNING`], so a nested call
    /// does not count it twice.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
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
/// sequential RNG stream. With `workers() == 1` no thread is spawned.
///
/// # Panics
/// Propagates a panic raised by `f` after every helper has joined.
pub fn par_mapi<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let cap = workers();
    if cap <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let _place = Place::take();
    // Helpers adopt the caller's attribution scope, so tallies recorded
    // inside the fan-out stay credited to it (see [`crate::enter_scope`]).
    let call = Call {
        items,
        f: &f,
        cap,
        scope: crate::stages::current_scope(),
        next: AtomicUsize::new(0),
        slots: items.iter().map(|_| Mutex::new(None)).collect(),
        helpers: Mutex::new((0, false)),
    };
    // Leaving the scope joins the helpers and propagates any panic.
    std::thread::scope(|s| {
        call.run(s);
        call.wait_uncounted();
    });
    let slots = call.slots.into_iter();
    let slots = slots.map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner));
    slots.map(|r| r.expect("every index ran")).collect()
}

/// No code panics while it holds one of the pool's locks, and
/// [`HelperExit`]'s `drop` must not panic, so a poisoned lock is taken
/// as it is.
fn lock<X>(m: &Mutex<X>) -> MutexGuard<'_, X> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Counts the calling thread in [`RUNNING`] until dropped, unless a call
/// further up its stack already does. An outermost caller always runs its
/// own items, so it is counted even when the count is at the cap.
struct Place(bool);

impl Place {
    fn take() -> Self {
        let outermost = !COUNTED.with(|c| c.replace(true));
        if outermost {
            RUNNING.fetch_add(1, Ordering::Relaxed);
        }
        Place(outermost)
    }
}

impl Drop for Place {
    fn drop(&mut self) {
        if self.0 {
            RUNNING.fetch_sub(1, Ordering::Relaxed);
            COUNTED.with(|c| c.set(false));
        }
    }
}

/// The shared state of one [`par_mapi`] call.
struct Call<'a, T, R, F> {
    items: &'a [T],
    f: &'a F,
    cap: usize,
    scope: u64,
    /// The next unclaimed index.
    next: AtomicUsize,
    slots: Vec<Mutex<Option<R>>>,
    /// Live helpers, and whether the caller gave its place up to wait.
    helpers: Mutex<(usize, bool)>,
}

impl<T: Sync, R: Send, F: Fn(usize, &T) -> R + Sync> Call<'_, T, R, F> {
    /// Claims and runs items until none is left. At each claim that
    /// leaves another item, a free place recruits a helper.
    fn run<'s>(&'s self, s: &'s Scope<'s, '_>) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = self.items.get(i) else {
                return;
            };
            let free = |r| (r < self.cap).then_some(r + 1);
            if i + 1 < self.items.len()
                && RUNNING
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, free)
                    .is_ok()
            {
                lock(&self.helpers).0 += 1;
                let helper = std::thread::Builder::new().spawn_scoped(s, move || {
                    let _exit = HelperExit(self);
                    COUNTED.with(|c| c.set(true));
                    crate::stages::adopt_scope(self.scope);
                    self.run(s);
                });
                if helper.is_err() {
                    // No thread to be had: give the place back and go on.
                    drop(HelperExit(self));
                }
            }
            *lock(&self.slots[i]) = Some((self.f)(i, item));
        }
    }

    /// The caller has nothing left to claim: while helpers still run, its
    /// place goes back to the pool, and the last helper to exit hands it
    /// back (see [`HelperExit`]), so helpers never push the count past
    /// the cap.
    fn wait_uncounted(&self) {
        let mut h = lock(&self.helpers);
        if h.0 > 0 {
            h.1 = true;
            RUNNING.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Gives a helper's place up when its thread ends, by return or by
/// unwinding, so a panicking task never leaks a count.
struct HelperExit<'c, 'a, T, R, F>(&'c Call<'a, T, R, F>);

impl<T, R, F> Drop for HelperExit<'_, '_, T, R, F> {
    fn drop(&mut self) {
        let mut h = lock(&self.0.helpers);
        h.0 -= 1;
        if h.0 == 0 && h.1 {
            h.1 = false; // the waiting caller takes this place over
        } else {
            RUNNING.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;
    use std::time::Duration;

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

    /// Runs `f` on its own thread and fails unless it finishes within
    /// `secs`, so a deadlock fails the test instead of hanging it.
    fn within<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(Duration::from_secs(secs))
            .expect("finished in time without panicking")
    }

    /// Polls `cond` until it holds; panics after 10 s.
    fn wait_until(cond: impl Fn() -> bool) {
        for _ in 0..10_000 {
            if cond() {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("condition not reached in 10 s");
    }

    fn distinct(tags: &[usize]) -> usize {
        tags.iter().collect::<std::collections::BTreeSet<_>>().len()
    }

    /// Runs `f` as the second item of a two-item fan-out, whose first
    /// item returns only once `f` has started, so `f` runs on a helper.
    fn on_a_helper(f: impl Fn() + Sync) {
        let started = std::sync::atomic::AtomicBool::new(false);
        par_mapi(&[(); 2], |o, _| {
            if o == 0 {
                wait_until(|| started.load(Ordering::SeqCst));
            } else {
                started.store(true, Ordering::SeqCst);
                f();
            }
        });
    }

    fn nap() {
        std::thread::sleep(Duration::from_millis(2));
    }

    thread_local! {
        /// Marks the test's own thread.
        static ON_CALLER: Cell<bool> = const { Cell::new(false) };
        /// A process-unique number per thread.
        static TAG: usize = {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            NEXT.fetch_add(1, Ordering::Relaxed)
        };
    }

    #[test]
    fn nested_par_mapi_is_index_ordered_at_depth_three() {
        let _g = LOCK.lock().unwrap();
        ON_CALLER.with(|c| c.set(true));
        let items: Vec<u64> = (0..6).collect();
        let leaf = |(i, j, k): (usize, usize, usize), (a, b, c): (u64, u64, u64)| {
            (a * 100 + b * 10 + c) * 1000 + (i * 36 + j * 6 + k) as u64
        };
        let mut expect = Vec::new();
        for (i, &a) in items.iter().enumerate() {
            for (j, &b) in items.iter().enumerate() {
                for (k, &c) in items.iter().enumerate() {
                    expect.push(leaf((i, j, k), (a, b, c)));
                }
            }
        }
        for w in [1, 2, 3, 8] {
            set_workers(Some(w));
            let got: Vec<u64> = par_mapi(&items, |i, &a| {
                par_mapi(&items, |j, &b| {
                    par_mapi(&items, |k, &c| {
                        // One worker means no thread is ever spawned.
                        assert!(w > 1 || ON_CALLER.with(Cell::get), "spawned at 1 worker");
                        leaf((i, j, k), (a, b, c))
                    })
                })
            })
            .into_iter()
            .flatten()
            .flatten()
            .collect();
            assert_eq!(got, expect, "workers = {w}");
        }
        set_workers(None);
    }

    #[test]
    fn helpers_never_exceed_workers() {
        let _g = LOCK.lock().unwrap();
        static NOW: AtomicUsize = AtomicUsize::new(0);
        static PEAK: AtomicUsize = AtomicUsize::new(0);
        let outer: Vec<usize> = (0..5).collect();
        let inner: Vec<usize> = (0..6).collect();
        for w in [2, 3, 4] {
            set_workers(Some(w));
            PEAK.store(0, Ordering::SeqCst);
            par_map(&outer, |_| {
                par_map(&inner, |_| {
                    let now = NOW.fetch_add(1, Ordering::SeqCst) + 1;
                    PEAK.fetch_max(now, Ordering::SeqCst);
                    nap();
                    NOW.fetch_sub(1, Ordering::SeqCst);
                })
            });
            let peak = PEAK.load(Ordering::SeqCst);
            assert!(peak <= w, "{peak} tasks ran at once on {w} workers");
        }
        set_workers(None);
    }

    #[test]
    fn an_idle_core_joins_a_nested_fan_out() {
        let _g = LOCK.lock().unwrap();
        set_workers(Some(2));
        // Outer item 1 runs on a helper and fans out. Its first nested
        // item waits until only one thread holds a place, i.e. the caller
        // has nothing left to claim; the next claim must then recruit a
        // helper into the place the caller gave up.
        let tags = Mutex::new(Vec::new());
        on_a_helper(|| {
            par_mapi(&[(); 4], |i, _| {
                if i == 0 {
                    wait_until(|| RUNNING.load(Ordering::SeqCst) == 1);
                } else {
                    tags.lock().unwrap().push(TAG.with(|t| *t));
                    wait_until(|| distinct(&tags.lock().unwrap()) == 2);
                }
            });
        });
        assert_eq!(distinct(&tags.into_inner().unwrap()), 2);
        set_workers(None);
    }

    #[test]
    fn nested_tallies_are_credited_to_the_outer_scope() {
        let _g = LOCK.lock().unwrap();
        let tag = format!("pool-nested-{:x}", std::process::id());
        let tally = |w| {
            set_workers(Some(w));
            let scope = crate::stages::new_scope();
            let _in = crate::stages::enter_scope(scope);
            par_mapi(&[(); 4], |i, _| {
                par_mapi(&[(); 5], |j, _| {
                    nap();
                    crate::stages::note_stage(&tag, (i + j) % 3 == 0);
                });
            });
            crate::stages::scope_counters(scope)
        };
        let serial = tally(1);
        assert_eq!(serial.get(&tag), Some(&(7, 13)));
        for w in [2, 3, 8] {
            assert_eq!(tally(w), serial, "workers = {w}");
        }
        set_workers(None);
    }

    #[test]
    fn nested_panic_propagates_and_leaks_no_place() {
        let _g = LOCK.lock().unwrap();
        set_workers(Some(2));
        // Outer item 1 runs on a helper and panics inside its own nested
        // fan-out; the caller stays busy until that helper has left.
        let started = std::sync::atomic::AtomicBool::new(false);
        let res = std::panic::catch_unwind(|| {
            par_mapi(&[(); 2], |o, _| {
                if o == 0 {
                    wait_until(|| started.load(Ordering::SeqCst));
                    wait_until(|| RUNNING.load(Ordering::SeqCst) == 1);
                } else {
                    started.store(true, Ordering::SeqCst);
                    par_map(&[0; 8], |_| {
                        nap();
                        panic!("boom");
                    });
                }
            })
        });
        assert!(res.is_err());
        assert_eq!(RUNNING.load(Ordering::SeqCst), 0, "a place leaked");
        // The next fan-out still recruits a helper.
        let tags = Mutex::new(Vec::new());
        par_map(&[0; 4], |_| {
            tags.lock().unwrap().push(TAG.with(|t| *t));
            wait_until(|| distinct(&tags.lock().unwrap()) == 2);
        });
        set_workers(None);
    }

    #[test]
    fn nested_fan_out_under_a_held_flight_lock_completes() {
        let _g = LOCK.lock().unwrap();
        set_workers(Some(2));
        let sums = within(60, || {
            par_map(&[0_usize, 1, 2, 3], |&o| {
                // Every outer item holds the same single-flight lock
                // while its nested fan-out runs.
                let flight = crate::artifact_flight(Path::new("pool-test"), "nested", 1);
                let _held = flight.lock().unwrap_or_else(PoisonError::into_inner);
                par_map(&[1_usize; 6], |&x| {
                    nap();
                    x + o
                })
                .iter()
                .sum::<usize>()
            })
        });
        assert_eq!(sums, vec![6, 12, 18, 24]);
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
