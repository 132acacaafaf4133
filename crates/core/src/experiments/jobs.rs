//! The dependency-aware job queue behind
//! [`Experiments::prewarm`](super::Experiments::prewarm).
//!
//! A prewarm has two kinds of work: *loads*, which bring one workload's
//! trace into memory (a store read, or a capture), and *runs*, which are
//! timing simulations, most of them replays of a loaded trace. A run
//! that needs a trace is not handed out before its load lands, so no
//! worker blocks on a trace another worker is still producing.
//!
//! Workers take the next pending load first, else the largest ready run,
//! and wait on a condition variable only when nothing is ready while a
//! load is in flight. Taking loads first starts every capture or decode
//! as early as possible; largest-first then starts the long replays (TC
//! dominates fig07) before the short ones that fill in at the end.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// What the workers share.
struct Queue {
    /// Loads are handed out in order; this is the next one.
    next_load: usize,
    /// Loads handed out and not yet landed.
    loads_in_flight: usize,
    /// Runs whose load has landed, by (load size, earliest index first).
    ready: BinaryHeap<(u64, Reverse<usize>)>,
    /// Per load, the runs waiting for it.
    waiting: Vec<Vec<usize>>,
    /// The first job panic; workers stop taking jobs once it is set.
    panic: Option<Box<dyn Any + Send>>,
}

/// Jobs run with the queue unlocked and their panics are caught, so no
/// thread can panic while holding it.
const UNPOISONED: &str = "the job queue lock is never held across a job";

#[derive(Clone, Copy)]
enum Job {
    Load(usize),
    Run(usize),
}

/// Runs every load and every run on `threads` workers (the calling
/// thread alone when `threads` is 1) and returns the seconds spent in
/// jobs, summed over workers. Time a worker waits for work is not busy
/// time.
///
/// `runs[i].0` names the load run `i` waits for (`None`: ready at once).
/// A load returns its trace's size; ready runs go largest size first,
/// ties in input order. A panicking job stops the queue, and the panic
/// resumes on the calling thread once every worker has stopped.
pub(crate) fn execute<L, R>(
    threads: usize,
    loads: &[L],
    runs: &[(Option<usize>, R)],
    load: impl Fn(&L) -> u64 + Sync,
    run: impl Fn(&R) + Sync,
) -> f64
where
    L: Sync,
    R: Sync,
{
    let mut waiting = vec![Vec::new(); loads.len()];
    let mut ready = BinaryHeap::new();
    for (i, (dep, _)) in runs.iter().enumerate() {
        match dep {
            Some(l) => waiting[*l].push(i),
            None => ready.push((0, Reverse(i))),
        }
    }
    let queue = Mutex::new(Queue {
        next_load: 0,
        loads_in_flight: 0,
        ready,
        waiting,
        panic: None,
    });
    let landed = Condvar::new();

    let worker = || -> f64 {
        let mut busy = 0.0;
        let mut q = queue.lock().expect(UNPOISONED);
        loop {
            let job = if q.panic.is_some() {
                break;
            } else if q.next_load < loads.len() {
                q.next_load += 1;
                q.loads_in_flight += 1;
                Job::Load(q.next_load - 1)
            } else if let Some((_, Reverse(i))) = q.ready.pop() {
                Job::Run(i)
            } else if q.loads_in_flight > 0 {
                q = landed.wait(q).expect(UNPOISONED);
                continue;
            } else {
                break;
            };
            drop(q);
            let start = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| match job {
                Job::Load(l) => load(&loads[l]),
                Job::Run(i) => {
                    run(&runs[i].1);
                    0
                }
            }));
            busy += start.elapsed().as_secs_f64();
            q = queue.lock().expect(UNPOISONED);
            match (job, outcome) {
                (_, Err(payload)) => {
                    q.panic.get_or_insert(payload);
                    landed.notify_all();
                }
                (Job::Load(l), Ok(size)) => {
                    q.loads_in_flight -= 1;
                    for i in std::mem::take(&mut q.waiting[l]) {
                        q.ready.push((size, Reverse(i)));
                    }
                    landed.notify_all();
                }
                (Job::Run(_), Ok(_)) => {}
            }
        }
        busy
    };

    let busy = if threads <= 1 {
        worker()
    } else {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("job panics are caught"))
                .sum()
        })
    };
    if let Some(payload) = queue.into_inner().expect(UNPOISONED).panic {
        std::panic::resume_unwind(payload);
    }
    busy
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_go_first_then_runs_largest_first() {
        let order = Mutex::new(Vec::new());
        let loads = [("a", 5), ("b", 9)];
        let runs = [
            (Some(0), "a1"),
            (Some(1), "b1"),
            (None, "free"),
            (Some(0), "a2"),
            (Some(1), "b2"),
        ];
        execute(
            1,
            &loads,
            &runs,
            |&(name, size)| {
                order.lock().unwrap().push(name);
                size
            },
            |&name| order.lock().unwrap().push(name),
        );
        assert_eq!(
            order.into_inner().unwrap(),
            ["a", "b", "b1", "b2", "a1", "a2", "free"]
        );
    }

    #[test]
    fn every_job_runs_once_on_many_workers() {
        let loads: Vec<u64> = (0..7).collect();
        let runs: Vec<(Option<usize>, usize)> = (0..40)
            .map(|i| (Some(i % 8).filter(|&l| l < 7), i))
            .collect();
        let done = Mutex::new(vec![0; runs.len()]);
        execute(
            4,
            &loads,
            &runs,
            |&size| size,
            |&i| done.lock().unwrap()[i] += 1,
        );
        assert!(done.into_inner().unwrap().iter().all(|&n| n == 1));
    }

    #[test]
    fn a_panicking_load_stops_the_queue_instead_of_hanging_it() {
        let runs = [(Some(0), ()), (Some(0), ()), (None, ())];
        let result = catch_unwind(|| {
            execute(3, &[()], &runs, |_| panic!("capture failed"), |_| {});
        });
        assert!(result.is_err());
    }
}
