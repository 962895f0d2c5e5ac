//! The driver pool: the process's fragment-driver threads, reused from query
//! to query, and the one place in this crate that starts a thread.
//!
//! Every non-root fragment instance runs as a job here ([`run`]), the way an
//! Ignite node runs query fragments as tasks on its long-lived query
//! executor. A query hands over all its jobs at once, and each job gets a
//! worker of its own; when too few are idle, new ones are started, each
//! counted in `exec.driver.spawned`. The pool is elastic and has no size:
//! drivers block on each other's exchanges, so a job left waiting for a
//! thread could be waiting for itself. Workers live as long as the process.
//!
//! Workers are numbered in the order they started, and a query's `i`-th job
//! goes to its `i`-th lowest-numbered idle worker. So the threads at work
//! are always the pool's first few, and a query shape that runs again puts
//! each of its drivers on the worker that ran it last time. That matters
//! because a worker keeps its glibc malloc arena for life: work spread over
//! every worker the pool ever started (the most recently idle first, say)
//! keeps arena-mates busy at once, and an arena grows to the sum of their
//! drivers' memory (`aql_clients` `peak_rss_mb` +29 %, EXPERIMENTS.md
//! *Reused driver threads*).
//!
//! A job comes with a [`CountDown`], its share of its query's [`Latch`]. The
//! worker runs the job to its end — which drops everything the job owned —
//! rejoins the idle list, and only then counts down; a job that unwinds
//! counts down as its worker unwinds. So once a latch reads zero, every job
//! behind it has dropped its state and every worker that ran one is idle
//! again. The pool therefore holds at least as many threads as the largest
//! query run so far has jobs, and a query run after the others have returned
//! starts a thread only if it has more jobs than any of them: a count that
//! does not depend on how the drivers were scheduled.

use crossbeam::channel::{bounded, Receiver, Sender};
use ic_common::obs::MetricsRegistry;
use ic_common::sync::{Condvar, Mutex};
use ic_common::{IcError, IcResult};
use std::sync::Arc;

pub(crate) type Job = Box<dyn FnOnce() + Send>;

/// A job and the count-down its worker drops once the job is done.
type Task = (Job, CountDown);

/// A worker: its number and the sending end of its one-task channel.
#[derive(Clone)]
struct Worker {
    number: usize,
    tasks: Sender<Task>,
}

/// The workers waiting for a job, and how many were ever started.
struct Pool {
    /// Highest number first, so the lowest-numbered are taken off the end.
    idle: Vec<Worker>,
    started: usize,
}

static POOL: Mutex<Pool> = Mutex::new(Pool { idle: Vec::new(), started: 0 });

impl Pool {
    /// The `jobs` lowest-numbered idle workers, lowest first, and the
    /// numbers of the workers to start for the jobs left over.
    fn take(&mut self, jobs: usize) -> (Vec<Worker>, std::ops::Range<usize>) {
        let keep = self.idle.len().saturating_sub(jobs);
        let mut idle = self.idle.split_off(keep);
        idle.reverse();
        let first = self.started;
        self.started += jobs - idle.len();
        (idle, first..self.started)
    }

    fn rejoin(&mut self, worker: Worker) {
        let at = self.idle.partition_point(|w| w.number > worker.number);
        self.idle.insert(at, worker);
    }
}

/// A query's wait for its jobs: the number of jobs not yet counted down.
#[derive(Default)]
pub(crate) struct Latch {
    left: Mutex<usize>,
    zero: Condvar,
}

/// One job's share of a [`Latch`]; dropping it counts the latch down.
pub(crate) struct CountDown(Arc<Latch>);

impl Latch {
    /// One more job to wait for.
    pub(crate) fn count_up(self: &Arc<Latch>) -> CountDown {
        *self.left.lock() += 1;
        CountDown(self.clone())
    }

    /// Block until every [`CountDown`] of this latch has been dropped.
    pub(crate) fn wait(&self) {
        let mut left = self.left.lock();
        while *left > 0 {
            left = self.zero.wait(left);
        }
    }
}

impl Drop for CountDown {
    fn drop(&mut self) {
        let mut left = self.0.left.lock();
        *left -= 1;
        if *left == 0 {
            self.0.zero.notify_all();
        }
    }
}

/// Run each of `jobs` on a pool thread of its own, every one counted up on
/// `latch` and counted down once the job has ended and its worker is idle
/// again. Fails when a thread could not be started, and then runs none of
/// the jobs.
pub(crate) fn run(jobs: Vec<Job>, latch: &Arc<Latch>) -> IcResult<()> {
    let (mut workers, new) = POOL.lock().take(jobs.len());
    for number in new {
        match start_worker(number) {
            Ok(worker) => workers.push(worker),
            Err(e) => {
                let mut pool = POOL.lock();
                workers.into_iter().for_each(|w| pool.rejoin(w));
                return Err(IcError::Exec(format!("no thread for a fragment driver: {e}")));
            }
        }
    }
    for (job, worker) in jobs.into_iter().zip(workers) {
        // An idle or new worker's channel is empty and its receiver alive:
        // a worker leaves only by unwinding out of a job, off the idle list.
        if worker.tasks.send((job, latch.count_up())).is_err() {
            return Err(IcError::Internal("a driver thread left the pool".into()));
        }
    }
    Ok(())
}

/// Start worker `number`, idle.
fn start_worker(number: usize) -> std::io::Result<Worker> {
    let (tasks, inbox) = bounded(1);
    let worker = Worker { number, tasks };
    let me = worker.clone();
    std::thread::Builder::new()
        .name(format!("ic-driver-{number}"))
        .spawn(move || work(me, inbox))?;
    MetricsRegistry::global().counter("exec.driver.spawned").inc();
    Ok(worker)
}

/// A worker's life: wait for a task, run it, rejoin the idle list, count
/// the task down.
fn work(me: Worker, inbox: Receiver<Task>) {
    while let Ok((job, done)) = inbox.recv() {
        job();
        POOL.lock().rejoin(me.clone());
        drop(done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A latch waits for every count-down, whichever thread drops it.
    #[test]
    fn a_latch_opens_at_its_last_count_down() {
        let latch = Arc::new(Latch::default());
        let (a, b) = (latch.count_up(), latch.count_up());
        let dropper = std::thread::spawn(move || drop((a, b)));
        latch.wait();
        assert_eq!(*latch.left.lock(), 0);
        dropper.join().unwrap();
        // A latch with nothing counted up is open.
        Arc::new(Latch::default()).wait();
    }

    /// A query's jobs go to the lowest-numbered idle workers, its first job
    /// to the lowest, whatever order the workers came back in; the rest
    /// are numbered past every worker started so far.
    #[test]
    fn jobs_take_the_lowest_numbered_idle_workers() {
        let mut pool = Pool { idle: Vec::new(), started: 0 };
        let (none, new) = pool.take(3);
        assert_eq!((none.len(), new), (0, 0..3));
        // Worker 1 is still busy; 2 came back before 0.
        for number in [2, 0] {
            pool.rejoin(Worker { number, tasks: bounded(1).0 });
        }
        let numbers = |ws: &[Worker]| ws.iter().map(|w| w.number).collect::<Vec<_>>();
        assert_eq!(numbers(&pool.idle), [2, 0]);
        let (idle, new) = pool.take(4);
        assert_eq!((numbers(&idle), new), (vec![0, 2], 3..5));
        pool.rejoin(Worker { number: 4, tasks: bounded(1).0 });
        let (idle, new) = pool.take(1);
        assert_eq!((numbers(&idle), new), (vec![4], 5..5));
    }
}
