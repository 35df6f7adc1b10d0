//! The scoped task runner shared by the sharded build's join phases
//! (`disc_core::build_sharded_with`) and the part fill of the CSR
//! assembly
//! ([`crate::StratifiedDiskGraph::from_dist_edge_parts_checked`]).

/// Runs `f` once per input and returns the results in input order.
/// Serial without the `parallel` feature or when one worker (or one
/// input) makes threading pointless; otherwise an atomic cursor hands
/// input indices to `workers` scoped threads. Each task runs serially
/// inside and owns its input, so a task may hold disjoint mutable
/// slices and drop what it consumed as soon as it is done. Results and
/// any counters the tasks charge are identical to the serial schedule.
pub fn run_tasks<I, T, F>(inputs: Vec<I>, workers: usize, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    #[cfg(feature = "parallel")]
    if workers > 1 && inputs.len() > 1 {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;
        let count = inputs.len();
        let slots: Vec<Mutex<(Option<I>, Option<T>)>> = inputs
            .into_iter()
            .map(|input| Mutex::new((Some(input), None)))
            .collect();
        let lock = |t: usize| slots[t].lock().unwrap_or_else(|p| p.into_inner());
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers.min(count) {
                scope.spawn(|| loop {
                    let t = cursor.fetch_add(1, Ordering::Relaxed);
                    if t >= count {
                        break;
                    }
                    let Some(input) = lock(t).0.take() else {
                        unreachable!("the cursor hands out each task index once")
                    };
                    let out = f(input);
                    lock(t).1 = Some(out);
                });
            }
        });
        return slots
            .into_iter()
            .map(|slot| {
                match slot.into_inner().unwrap_or_else(|p| p.into_inner()).1 {
                    Some(out) => out,
                    // A panicking task would have propagated through the
                    // scope already.
                    None => unreachable!("every task index below count was claimed"),
                }
            })
            .collect();
    }
    let _ = workers;
    inputs.into_iter().map(f).collect()
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
}
