//! The workspace's one place that starts OS threads.
//!
//! Two kinds of work run on real threads, both fully deterministic
//! because no thread shares mutable state with another:
//!
//! * **lockstep parts** — the fleet executor's host ranges. Its threads
//!   meet at a barrier every window, so they must all run at once:
//!   [`fan_out`] gives each part its own scoped thread, the calling
//!   thread taking the first.
//! * **independent items** — experiment grid cells, the K shards of a
//!   sharded memory agent, the chunks of a parallel classification.
//!   Items differ in duration (a saturated load point next to an idle
//!   one), so [`par_map`] runs `min(items, cores)` threads, the caller
//!   being one of them, and each thread claims the next unclaimed item
//!   when it finishes one. Results come back in input order.
//!
//! [`cores`] is the one reading of the core count: the fleet caps its
//! part count with it, and [`par_map`] its thread count.

use std::sync::Mutex;

/// The machine's available parallelism, or 1 when it cannot be read.
#[allow(clippy::disallowed_methods)]
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs the first part through `caller` on the calling thread and every
/// other part through `worker` on a scoped thread of its own; returns
/// the results in part order once all have finished. No parts, no
/// calls.
///
/// `caller` is `FnOnce` and needs no `Send`, so it may hold state that
/// must stay on the calling thread.
///
/// # Panics
///
/// Resumes the first panic, in part order, of any worker once every
/// thread has finished; a panic in `caller` propagates after the
/// workers are joined.
#[allow(clippy::disallowed_methods)]
pub fn fan_out<I, R, W, C>(parts: I, worker: W, caller: C) -> Vec<R>
where
    I: IntoIterator,
    I::Item: Send,
    R: Send,
    W: Fn(I::Item) -> R + Sync,
    C: FnOnce(I::Item) -> R,
{
    let mut parts = parts.into_iter();
    let Some(own) = parts.next() else {
        return Vec::new();
    };
    std::thread::scope(|s| {
        let worker = &worker;
        let handles: Vec<_> = parts.map(|p| s.spawn(move || worker(p))).collect();
        let mut out = Vec::with_capacity(handles.len() + 1);
        out.push(caller(own));
        for h in handles {
            out.push(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        out
    })
}

/// Maps `f` over `items` on `min(items, cores())` threads through
/// [`fan_out`], preserving input order in the results.
///
/// Takes anything iterable whose items can cross threads: `&[T]`,
/// `&mut [T]`, arrays, `chunks(n).enumerate()`. Each thread claims the
/// next unclaimed item when it finishes its current one, so uneven item
/// durations balance on their own.
///
/// # Panics
///
/// Propagates a panic from `f` on any thread.
pub fn par_map<I, R, F>(items: I, f: F) -> Vec<R>
where
    I: IntoIterator,
    I::Item: Send,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    let items: Vec<I::Item> = items.into_iter().collect();
    let threads = items.len().min(cores());
    let queue = Mutex::new(items.into_iter().enumerate());
    let claim = |_| {
        let mut done = Vec::new();
        loop {
            let next = queue.lock().expect("no poisoned queue").next();
            let Some((i, item)) = next else {
                return done;
            };
            done.push((i, f(item)));
        }
    };
    let mut done: Vec<(usize, R)> = fan_out(0..threads, claim, claim)
        .into_iter()
        .flatten()
        .collect();
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let xs: Vec<u64> = (0..32).collect();
        let ys = par_map(&xs, |&x| x * x);
        assert_eq!(ys, xs.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let ys: Vec<u64> = par_map(&[] as &[u64], |&x| x);
        assert!(ys.is_empty());
    }

    #[test]
    fn more_items_than_workers() {
        // Far more items than any machine has cores: exercises the
        // dynamic claim, every item must be claimed exactly once.
        let xs: Vec<u64> = (0..997).collect();
        let ys = par_map(&xs, |&x| x + 1);
        assert_eq!(ys, (1..998).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Mix long and short cells; order must still be input order.
        let xs: Vec<u64> = (0..64).collect();
        let ys = par_map(&xs, |&x| {
            if x.is_multiple_of(7) {
                // Busy-work to skew durations.
                (0..10_000u64).fold(x, |a, b| a.wrapping_add(b))
            } else {
                x
            }
        });
        for (i, &y) in ys.iter().enumerate() {
            let x = i as u64;
            let want = if x.is_multiple_of(7) {
                (0..10_000u64).fold(x, |a, b| a.wrapping_add(b))
            } else {
                x
            };
            assert_eq!(y, want);
        }
    }

    #[test]
    fn mutable_items_are_mutated_in_place_in_order() {
        // More items than cores, so some threads claim several.
        let n = cores() as u64 * 3 + 1;
        let mut xs: Vec<u64> = (0..n).collect();
        let ys = par_map(&mut xs, |x| {
            *x += 100;
            *x
        });
        assert_eq!(xs, (100..100 + n).collect::<Vec<_>>());
        assert_eq!(ys, xs);
        let none: Vec<u64> = par_map(&mut [] as &mut [u64], |x| *x);
        assert!(none.is_empty());
    }

    #[test]
    #[should_panic(expected = "part 2 failed")]
    fn a_worker_panic_reaches_the_caller() {
        fan_out(
            0..4u32,
            |p| assert!(p != 2, "part {p} failed"),
            |p| assert_eq!(p, 0),
        );
    }

    #[test]
    fn fan_out_runs_the_first_part_on_the_caller() {
        let me = std::thread::current().id();
        let ran = fan_out(
            0..4u32,
            |p| (p, std::thread::current().id() == me),
            |p| (p, std::thread::current().id() == me),
        );
        assert_eq!(ran, vec![(0, true), (1, false), (2, false), (3, false)]);
        let none: Vec<()> = fan_out(0..0, |_| (), |_| ());
        assert!(none.is_empty());
    }

    #[test]
    fn cores_is_at_least_one() {
        assert!(cores() >= 1);
    }
}
