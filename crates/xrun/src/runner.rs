//! The thread-pool batch executor.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Mutex;
use std::thread;
use std::time::Instant;

use crate::job::{Job, JobError, JobResult, JobSpec};
use crate::progress::{ProgressMode, ProgressSink, Quiet};
use nepsim::SimReport;

/// Executes batches of independent jobs on a pool of `std::thread`
/// workers and returns their results in submission order.
///
/// The pool is *self-scheduling*: workers pull the next job off a shared
/// queue as soon as they go idle, so uneven cell durations (a 20 k-cycle
/// window cell vs. an 80 k one) never leave threads parked behind a
/// static partition. Panicking jobs are isolated with
/// [`std::panic::catch_unwind`] and surface as per-job [`JobError`]s —
/// one failing cell cannot take down a sweep. (The process panic hook
/// still runs, so the usual panic message appears on stderr in addition
/// to the structured error.)
///
/// Worker threads are scoped to each [`run`](Runner::run) call: jobs may
/// borrow from the caller's stack, and no threads outlive the batch.
///
/// Every job's value stays in its slot until the whole batch returns,
/// so a job should return only what the caller's fold reads. The
/// replicated execution layers do so (`core::run_experiments` takes the
/// per-cell reduction; the scenario runner measures its slices on the
/// worker), which keeps a batch's bulk to one cell per busy worker
/// rather than one per job.
///
/// A runner can carry a content-addressed result cache
/// ([`with_cache`](Runner::with_cache)): the runner itself never
/// consults it — jobs are opaque closures — but every execution layer
/// built on the runner (`core::run_experiments`, the scenario and
/// fleet runners) checks [`cache`](Runner::cache) before simulating a
/// cell and publishes after. `ccache::Cache` is `Sync`, so the shared
/// reference crosses into the scoped workers like the progress sink
/// does.
pub struct Runner {
    workers: usize,
    progress: Box<dyn ProgressSink>,
    cache: Option<ccache::Cache>,
}

impl Runner {
    /// A runner with one worker per available CPU (as reported by
    /// [`std::thread::available_parallelism`]) and no progress output.
    #[must_use]
    pub fn new() -> Self {
        Runner {
            workers: default_workers(),
            progress: Box::new(Quiet),
            cache: None,
        }
    }

    /// A single-worker runner: jobs execute inline on the calling
    /// thread, still with panic isolation and progress reporting.
    #[must_use]
    pub fn serial() -> Self {
        Runner::new().with_workers(1)
    }

    /// Sets the worker count. `0` means "auto": one worker per
    /// available CPU.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = if workers == 0 {
            default_workers()
        } else {
            workers
        };
        self
    }

    /// Replaces the progress sink.
    #[must_use]
    pub fn with_progress(mut self, sink: Box<dyn ProgressSink>) -> Self {
        self.progress = sink;
        self
    }

    /// Replaces the progress sink with a built-in [`ProgressMode`].
    #[must_use]
    pub fn with_progress_mode(self, mode: ProgressMode) -> Self {
        self.with_progress(mode.sink())
    }

    /// Attaches a content-addressed result cache for the execution
    /// layers to consult (see the type docs).
    #[must_use]
    pub fn with_cache(mut self, cache: ccache::Cache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The attached result cache, if any.
    #[must_use]
    pub fn cache(&self) -> Option<&ccache::Cache> {
        self.cache.as_ref()
    }

    /// The number of workers [`run`](Runner::run) will use (before
    /// clamping to the batch size).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Executes a batch and returns one [`JobResult`] per job, in
    /// submission order.
    ///
    /// Never panics on job failure: a panicking job yields
    /// `outcome: Err(JobError)` in its slot and the rest of the batch
    /// completes. With equal jobs, the returned batch is identical for
    /// any worker count.
    ///
    /// Jobs *start* in submission order on any worker count: an idle
    /// worker always takes the oldest job that has not started. A job
    /// may therefore block on a job submitted before it, which is
    /// already running or done, but never on one submitted after it,
    /// which may not start until the blocked job returns (on one
    /// worker, never). The fleet runner's telemetry pipeline relies on
    /// this.
    pub fn run<T: Send>(&self, jobs: Vec<Job<'_, T>>) -> Vec<JobResult<T>> {
        let total = jobs.len();
        let batch_start = Instant::now();
        let progress: &dyn ProgressSink = &*self.progress;
        let workers = self.workers.min(total);

        let mut slots: Vec<Option<JobResult<T>>> = Vec::new();
        slots.resize_with(total, || None);

        let queue: Mutex<VecDeque<(usize, Job<'_, T>)>> =
            Mutex::new(jobs.into_iter().enumerate().collect());

        if workers <= 1 {
            // Inline serial path: no threads, same contract.
            while let Some((index, job)) = pop(&queue) {
                let result = execute(index, total, job, progress);
                slots[index] = Some(result);
            }
        } else {
            let (tx, rx) = mpsc::channel::<JobResult<T>>();
            let queue = &queue;
            thread::scope(|scope| {
                for _ in 0..workers {
                    let tx = tx.clone();
                    scope.spawn(move || {
                        while let Some((index, job)) = pop(queue) {
                            if tx.send(execute(index, total, job, progress)).is_err() {
                                break;
                            }
                        }
                    });
                }
                drop(tx);
                for result in rx {
                    let slot = result.index;
                    slots[slot] = Some(result);
                }
            });
        }

        let results: Vec<JobResult<T>> = slots
            .into_iter()
            .map(|slot| slot.expect("every job produces exactly one result"))
            .collect();
        let failed = results.iter().filter(|r| !r.is_ok()).count();
        progress.batch_finished(total, failed, batch_start.elapsed());
        results
    }

    /// Convenience wrapper: simulates every [`JobSpec`] in the batch
    /// (via [`JobSpec::simulate`]) and returns the reports in order.
    pub fn run_specs(&self, specs: &[JobSpec]) -> Vec<JobResult<SimReport>> {
        self.run(
            specs
                .iter()
                .map(|spec| Job::new(spec.label(), move || spec.simulate()))
                .collect(),
        )
    }
}

impl Default for Runner {
    fn default() -> Self {
        Runner::new()
    }
}

impl fmt::Debug for Runner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runner")
            .field("workers", &self.workers)
            .field("cached", &self.cache.is_some())
            .finish_non_exhaustive()
    }
}

fn default_workers() -> usize {
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Takes the next job off the shared queue. The lock is held only for
/// the pop itself, never while a job runs, so worker panics cannot
/// poison it.
fn pop<'a, T>(queue: &Mutex<VecDeque<(usize, Job<'a, T>)>>) -> Option<(usize, Job<'a, T>)> {
    queue.lock().expect("job queue poisoned").pop_front()
}

fn execute<T>(
    index: usize,
    total: usize,
    job: Job<'_, T>,
    progress: &dyn ProgressSink,
) -> JobResult<T> {
    let (name, work) = job.into_parts();
    progress.job_started(index, total, &name);
    let start = Instant::now();
    // Each job is a `job` span labelled with the job's name on its
    // worker thread, so a `--profile` trace shows the whole batch laid
    // out per worker while the summary folds it into one `job` row.
    let _prof = obs::prof::span_with_label("job", &name);
    // `Box<dyn FnOnce>` is not `UnwindSafe` by declaration, but every
    // job owns its state (nothing outside the closure can observe a
    // broken invariant after a caught panic), so the assertion is sound.
    let outcome = panic::catch_unwind(AssertUnwindSafe(work)).map_err(|payload| JobError {
        job: name.clone(),
        index,
        message: panic_message(payload.as_ref()),
    });
    let elapsed = start.elapsed();
    progress.job_finished(index, total, &name, outcome.is_ok(), elapsed);
    JobResult {
        name,
        index,
        outcome,
        elapsed,
    }
}

/// The message of a caught panic payload, as a [`JobError`] carries
/// it: the payload itself when it is a string (as `panic!` and
/// `assert!` payloads are), a placeholder otherwise. For a job that
/// catches a panic itself and reports it elsewhere.
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    #[test]
    fn default_worker_count_is_positive() {
        assert!(Runner::new().workers() >= 1);
        assert_eq!(Runner::serial().workers(), 1);
        assert!(Runner::new().with_workers(0).workers() >= 1);
        assert_eq!(Runner::new().with_workers(7).workers(), 7);
    }

    #[test]
    fn debug_shows_workers() {
        let text = format!("{:?}", Runner::new().with_workers(3));
        assert!(text.contains("workers: 3"), "{text}");
    }

    #[test]
    fn jobs_start_in_submission_order() {
        // Each job waits for its predecessor to start. A runner that
        // started a job before an earlier one would leave it waiting
        // out the timeout, and the batch would report the failure.
        const JOBS: usize = 12;
        for workers in [1, 2, 4] {
            let started = Mutex::new([false; JOBS]);
            let changed = std::sync::Condvar::new();
            let jobs: Vec<Job<'_, ()>> = (0..JOBS)
                .map(|k| {
                    let (started, changed) = (&started, &changed);
                    Job::new(format!("job {k}"), move || {
                        let mut flags = started.lock().unwrap();
                        if k > 0 {
                            let (guard, wait) = changed
                                .wait_timeout_while(flags, Duration::from_secs(5), |f| !f[k - 1])
                                .unwrap();
                            assert!(!wait.timed_out(), "job {} never started", k - 1);
                            flags = guard;
                        }
                        flags[k] = true;
                        changed.notify_all();
                    })
                })
                .collect();
            let results = Runner::new().with_workers(workers).run(jobs);
            let failed: Vec<_> = results
                .iter()
                .filter_map(|r| r.outcome.as_ref().err())
                .collect();
            assert!(failed.is_empty(), "{workers} workers: {failed:?}");
        }
    }

    #[test]
    fn jobs_may_borrow_from_the_caller() {
        let inputs = [10u64, 20, 30];
        let runner = Runner::new().with_workers(2);
        let jobs: Vec<Job<'_, u64>> = inputs
            .iter()
            .map(|v| Job::new(format!("borrow {v}"), move || *v + 1))
            .collect();
        let sums: Vec<u64> = runner
            .run(jobs)
            .into_iter()
            .map(|r| r.outcome.unwrap())
            .collect();
        assert_eq!(sums, vec![11, 21, 31]);
    }
}
