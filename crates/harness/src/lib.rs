//! The work-stealing thread pools shared by the experiment harness
//! (`psbench_core::harness`) and the metasystem shard loop
//! (`psbench_metasim::epoch`).
//!
//! This crate is a dependency leaf: it sits below both `psbench-core` and
//! `psbench-metasim` so the two can share one pool implementation without a
//! cycle (`psbench-core` depends on `psbench-metasim` for experiment E7).
//!
//! Two entry points:
//!
//! * [`parallel_map`] — one batch of independent tasks on scoped threads
//!   spawned for the call (experiments, sweeps, chunked profiling);
//! * [`with_gang`] — a [`Gang`] of threads spawned once and reused for many
//!   rounds over a mutable slice, blocked in between (the metasystem's
//!   per-epoch shard advance, thousands of rounds per run).
//!
//! Both guarantee **bit-identical results for any thread count**: work items
//! never interact mid-flight, results come back in input order, and
//! `threads == 1` takes a plain sequential loop — the serial twin every
//! parallel run must match.

#![warn(missing_docs)]

use parking_lot::Mutex;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Condvar;

/// Number of worker threads the parallel entry points use by default: one per
/// available hardware thread.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Map `f` over `0..n` on a small work-stealing pool of scoped threads.
///
/// Workers pull the next undone index from a shared atomic counter, so long
/// and short tasks balance across threads. Results come back in input order,
/// and each call `f(i)` sees exactly the same inputs as in a sequential loop —
/// every run seeds its own RNG from data carried by the task itself, so the
/// output is bit-identical to `(0..n).map(f).collect()`.
///
/// # Panics
/// Propagates a panic from any worker once all threads have been joined.
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        return (0..n).map(f).collect();
    }
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = f(i);
                results.lock()[i] = Some(value);
            });
        }
    });
    results
        .into_inner()
        .into_iter()
        .map(|r| r.expect("every index produces a result"))
        .collect()
}

/// How many spin-loop iterations the driving thread polls for items still
/// in flight on other threads before it blocks. A metasystem shard advance
/// takes microseconds, so the last item usually finishes within the spin.
const WAIT_SPINS: u32 = 1 << 14;

/// The slice of one [`Gang::run`] round, published to the workers. The raw
/// pointer stays valid while it can be dereferenced: an item is only touched
/// after its index was claimed for this round's number, and the driving
/// thread, which holds the `&mut` borrow the pointer came from, does not
/// return from `run` until every claimed item has finished.
struct Round<T, P> {
    /// Rounds published so far; workers compare it with the last round they
    /// saw.
    number: u32,
    items: *mut T,
    len: usize,
    /// The round's parameter, or `None` to tell the workers to exit.
    param: Option<P>,
    /// Workers blocked on [`Shared::wake`].
    sleepers: usize,
    /// Whether the driving thread is blocked on [`Shared::done`].
    waiting: bool,
}

// SAFETY: a `Round` only carries the pointer across threads inside
// `Shared::round`; the items it points at are `T: Send`, and each one is
// dereferenced by exactly one thread per round (the claim word in
// `Shared::drain` hands every index out once) while the driving thread waits.
unsafe impl<T: Send, P: Send> Send for Round<T, P> {}

/// State shared by the driving thread and the gang's workers.
struct Shared<'op, T, P> {
    op: &'op (dyn Fn(&mut T, P) + Sync),
    round: Mutex<Round<T, P>>,
    /// Signalled when a round is published to blocked workers.
    wake: Condvar,
    /// Signalled to the blocked driving thread when a round's last item
    /// finishes.
    done: Condvar,
    /// The work-stealing counter: the current round's number in the high 32
    /// bits and its next unclaimed index in the low 32. A thread still
    /// holding an older round's number can claim nothing.
    claim: AtomicU64,
    /// Items of the current round that have finished.
    finished: AtomicUsize,
    /// The first panic caught in a round, re-raised on the driving thread.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<T, P: Copy> Shared<'_, T, P> {
    /// Claim and process indices of round `number` until none are left. A
    /// panic in `op` is caught and stored, and its item still counts as
    /// finished, so the driving thread never waits for it forever.
    fn drain(&self, number: u32, items: *mut T, len: usize, param: P) {
        let mut word = self.claim.load(Ordering::Relaxed);
        loop {
            let i = word as u32 as usize;
            if (word >> 32) as u32 != number || i >= len {
                return;
            }
            // Acquire pairs with the driving thread's release of the round,
            // so the items' state before the round is visible here.
            match self.claim.compare_exchange_weak(
                word,
                word + 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => {}
                Err(current) => {
                    word = current;
                    continue;
                }
            }
            // SAFETY: `i < len` is in bounds of the slice `items` came from,
            // the claim word yields each index of a round to exactly one
            // thread, and the driving thread touches no item until every
            // claimed one has finished, so this `&mut` is unique.
            let done = catch_unwind(AssertUnwindSafe(|| {
                (self.op)(unsafe { &mut *items.add(i) }, param)
            }));
            if let Err(payload) = done {
                self.panic.lock().get_or_insert(payload);
            }
            // Release publishes the item's mutation to the driving thread.
            if self.finished.fetch_add(1, Ordering::Release) + 1 == len {
                let round = self.round.lock();
                if round.waiting {
                    self.done.notify_one();
                }
            }
            word = self.claim.load(Ordering::Relaxed);
        }
    }

    /// A worker's life: block until a round opens, drain it, and block
    /// again; exit when a round carries no parameter. An idle worker never
    /// spins, so it leaves its core to whatever else is runnable there.
    fn work(&self) {
        let mut seen = 0u32;
        loop {
            let (number, items, len, param) = {
                let mut round = self.round.lock();
                while round.number == seen {
                    round.sleepers += 1;
                    round = self.wake.wait(round).unwrap_or_else(|e| e.into_inner());
                    round.sleepers -= 1;
                }
                match round.param {
                    Some(param) => (round.number, round.items, round.len, param),
                    None => return,
                }
            };
            seen = number;
            self.drain(number, items, len, param);
        }
    }

    /// Block the driving thread until all `len` items of the round have
    /// finished — spinning briefly first, since the last ones are usually
    /// about to.
    fn wait_finished(&self, len: usize) {
        // Acquire pairs with each finished item's release.
        let finished = || self.finished.load(Ordering::Acquire) >= len;
        for _ in 0..WAIT_SPINS {
            if finished() {
                return;
            }
            std::hint::spin_loop();
        }
        let mut round = self.round.lock();
        round.waiting = true;
        while !finished() {
            round = self.done.wait(round).unwrap_or_else(|e| e.into_inner());
        }
        round.waiting = false;
    }
}

impl<T, P> Shared<'_, T, P> {
    /// Open the next round (`param` of `None` dismisses the workers) and
    /// return its number.
    fn publish(&self, items: *mut T, len: usize, param: Option<P>) -> u32 {
        let mut round = self.round.lock();
        round.number = round.number.wrapping_add(1);
        round.items = items;
        round.len = len;
        round.param = param;
        // Every item of the previous round has finished, so no thread adds
        // to the old count after this reset.
        self.finished.store(0, Ordering::Relaxed);
        self.claim
            .store(u64::from(round.number) << 32, Ordering::Release);
        if round.sleepers > 0 {
            self.wake.notify_all();
        }
        round.number
    }
}

/// A persistent gang of worker threads that applies one operation to every
/// element of a slice, round after round, without spawning threads per round.
///
/// Built by [`with_gang`]. In a round every thread of the gang — the driving
/// thread included — claims elements from one atomic work-stealing counter,
/// so long and short items balance across threads. The driving thread waits
/// only for items another thread has claimed, never for a worker to wake up:
/// a worker that is slow to be scheduled finds the round already drained,
/// and the round costs what the serial loop would. Between rounds the
/// workers block. With one thread a round is a plain sequential loop over
/// the slice: the serial twin. Elements never interact within a round, so
/// the mutations are bit-identical for any thread count.
pub struct Gang<'g, 'op, T, P> {
    /// `None` for the one-thread gang, which spawns nothing.
    shared: Option<&'g Shared<'op, T, P>>,
    op: &'op (dyn Fn(&mut T, P) + Sync),
}

impl<T: Send, P: Copy + Send> Gang<'_, '_, T, P> {
    /// Apply the gang's operation to every element of `items` with the
    /// round parameter `param`, returning once all of them are done.
    ///
    /// # Panics
    /// Re-raises, on this thread, the first panic the operation raised on
    /// any thread of the gang — after every item of the round finished, so a
    /// panic never leaves an item in flight.
    pub fn run(&mut self, items: &mut [T], param: P) {
        let Some(shared) = self.shared else {
            items.iter_mut().for_each(|item| (self.op)(item, param));
            return;
        };
        let len = items.len();
        assert!(
            len <= u32::MAX as usize,
            "a gang round takes at most 2^32 - 1 items"
        );
        let ptr = items.as_mut_ptr();
        let number = shared.publish(ptr, len, Some(param));
        shared.drain(number, ptr, len, param);
        shared.wait_finished(len);
        if let Some(payload) = shared.panic.lock().take() {
            resume_unwind(payload);
        }
    }
}

impl<T, P> Drop for Gang<'_, '_, T, P> {
    /// Dismiss the workers so the scope in [`with_gang`] can join them —
    /// also while the driving thread unwinds from a panic.
    fn drop(&mut self) {
        if let Some(shared) = self.shared {
            shared.publish(std::ptr::null_mut(), 0, None);
        }
    }
}

/// Run `body` with a [`Gang`] of `threads` threads (the calling thread and
/// `threads - 1` scoped workers, spawned once) that applies `op` to slice
/// elements in each [`Gang::run`]. The workers are joined before this returns.
///
/// # Panics
/// Propagates a panic from `body` or, through [`Gang::run`], from `op`.
pub fn with_gang<T, P, R>(
    threads: usize,
    op: &(dyn Fn(&mut T, P) + Sync),
    body: impl FnOnce(&mut Gang<'_, '_, T, P>) -> R,
) -> R
where
    T: Send,
    P: Copy + Send,
{
    let workers = threads.max(1) - 1;
    if workers == 0 {
        return body(&mut Gang { shared: None, op });
    }
    let shared = Shared {
        op,
        round: Mutex::new(Round {
            number: 0,
            items: std::ptr::null_mut(),
            len: 0,
            param: None,
            sleepers: 0,
            waiting: false,
        }),
        wake: Condvar::new(),
        done: Condvar::new(),
        claim: AtomicU64::new(0),
        finished: AtomicUsize::new(0),
        panic: Mutex::new(None),
    };
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| shared.work());
        }
        body(&mut Gang {
            shared: Some(&shared),
            op,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_matches_sequential_for_any_thread_count() {
        let seq: Vec<u64> = (0..97)
            .map(|i| (i as u64).wrapping_mul(2654435761))
            .collect();
        for threads in [1usize, 2, 3, 8, 64] {
            let par = parallel_map(97, threads, |i| (i as u64).wrapping_mul(2654435761));
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_map_handles_empty_input() {
        let out: Vec<u32> = parallel_map(0, 8, |_| unreachable!());
        assert!(out.is_empty());
    }

    /// Add 1000 to every element with a gang of `threads` threads and
    /// return how often each element was touched.
    fn touch_all(items: &mut [(u64, u32)], threads: usize) {
        with_gang(
            threads,
            &|item: &mut (u64, u32), add: u64| {
                item.0 += add;
                item.1 += 1;
            },
            |gang| gang.run(items, 1000),
        );
    }

    #[test]
    fn gang_mutates_each_element_exactly_once() {
        for threads in [1usize, 2, 3, 8, 64] {
            let mut items: Vec<(u64, u32)> = (0..131).map(|i| (i, 0)).collect();
            touch_all(&mut items, threads);
            let expected: Vec<(u64, u32)> = (0..131).map(|i| (i + 1000, 1)).collect();
            assert_eq!(items, expected, "threads = {threads}");
        }
    }

    #[test]
    fn gang_handles_empty_slice() {
        for threads in [1usize, 8] {
            let mut items: Vec<(u64, u32)> = Vec::new();
            touch_all(&mut items, threads);
            assert!(items.is_empty());
        }
    }

    fn spin(seed: u64, spins: u32) -> u64 {
        (0..spins).fold(seed, |acc, _| {
            acc.wrapping_mul(6364136223846793005).wrapping_add(1)
        })
    }

    #[test]
    fn gang_balances_uneven_work() {
        // Long and short items mixed: the atomic counter hands out indexes
        // one at a time, so stragglers don't serialize the round. This test
        // asserts correctness, not timing.
        let spins = |v: u64| if v.is_multiple_of(7) { 5000 } else { 10 };
        let mut items: Vec<u64> = (0..40).collect();
        with_gang(4, &|v: &mut u64, ()| *v = spin(*v, spins(*v)), |gang| {
            gang.run(&mut items, ())
        });
        let expected: Vec<u64> = (0..40u64).map(|i| spin(i, spins(i))).collect();
        assert_eq!(items, expected);
    }

    #[test]
    #[should_panic(expected = "item 17 failed")]
    fn gang_panic_reraises_on_the_caller() {
        let mut items: Vec<u64> = (0..64).collect();
        with_gang(
            3,
            &|v: &mut u64, ()| assert!(*v != 17, "item {v} failed"),
            |gang| gang.run(&mut items, ()),
        );
    }

    #[test]
    fn gang_rounds_of_a_few_items_race_late_workers_safely() {
        // Rounds shorter than a worker's wake-up: most are drained by the
        // driving thread alone, and a worker waking late must claim nothing
        // from a round that is already over.
        let mut items: Vec<u64> = (0..3).collect();
        with_gang(3, &|v: &mut u64, add: u64| *v += add, |gang| {
            for round in 0..3000u64 {
                let len = (round % 4) as usize;
                gang.run(&mut items[..len.min(3)], round);
            }
        });
        let sum = |i: u64| (0..3000u64).filter(|r| r % 4 > i).sum::<u64>();
        assert_eq!(items, vec![sum(0), 1 + sum(1), 2 + sum(2)]);
    }

    #[test]
    fn gang_reused_across_rounds_matches_fresh_gangs() {
        let op = |v: &mut u64, round: u64| *v = spin(*v ^ round, 1 + (*v % 13) as u32);
        let rounds = 200u64;
        let mut fresh: Vec<u64> = (0..37).collect();
        for round in 0..rounds {
            with_gang(1, &op, |gang| gang.run(&mut fresh, round));
        }
        for threads in [2usize, 3, 8] {
            let mut reused: Vec<u64> = (0..37).collect();
            with_gang(threads, &op, |gang| {
                for round in 0..rounds {
                    gang.run(&mut reused, round);
                }
            });
            assert_eq!(reused, fresh, "threads = {threads}");
        }
    }
}
