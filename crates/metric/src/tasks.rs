//! The one scoped task runner of the workspace: count seeding, the
//! sharded build's join tasks, the CSR fill and row sort, and the
//! snapshot section checksums all fan out through [`run_tasks`], sized
//! by [`workers`].

use std::sync::{Mutex, PoisonError};

/// The worker count for a request: `0` means one worker per available
/// core, any other value is taken as is. Callers that fall back to one
/// worker on small inputs apply their own cutoff first.
pub fn workers(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        requested
    }
}

/// Runs `f` once per input and returns the results in input order.
/// Serial on the calling thread when one worker (or one input) makes
/// threading pointless; otherwise `workers` scoped threads take the
/// inputs in order from a shared queue. Each task runs serially inside
/// and owns its input, so a task may hold disjoint mutable slices and
/// drop what it consumed as soon as it is done. Results and any
/// counters the tasks charge are identical to the serial schedule. A
/// panicking task re-raises its panic on the caller once every worker
/// has stopped, so no caller sees a short result vector.
pub fn run_tasks<I, T, F>(inputs: Vec<I>, workers: usize, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let workers = workers.min(inputs.len());
    if workers <= 1 {
        return inputs.into_iter().map(f).collect();
    }
    let queue = Mutex::new(inputs.into_iter().enumerate());
    // The guard lives for one `next()`, which cannot panic, so the
    // queue is never poisoned mid-update.
    let next = || queue.lock().unwrap_or_else(PoisonError::into_inner).next();
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    while let Some((i, input)) = next() {
                        out.push((i, f(input)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_tasks_returns_results_in_task_order() {
        let got = run_tasks((0..7).collect(), 3, |i: usize| i * i);
        assert_eq!(got, vec![0, 1, 4, 9, 16, 25, 36]);
        assert_eq!(
            run_tasks(Vec::<usize>::new(), 4, |i| i),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn a_panicking_task_reraises_on_the_caller() {
        for workers in [2, 3] {
            let run = std::panic::catch_unwind(|| {
                run_tasks((0..9).collect(), workers, |i: usize| {
                    assert_ne!(i, 4, "task 4 fails");
                    i
                })
            });
            assert!(run.is_err(), "workers={workers}");
        }
    }
}
