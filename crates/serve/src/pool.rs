//! A fixed-size worker pool for connection handling.
//!
//! `std::sync::mpsc` with a shared receiver: the accept loop pushes
//! jobs, `threads` workers pop and run them. No async runtime — the
//! repo's no-dependency discipline — and deliberately tiny: the only
//! lifecycle is "submit until dropped, then drain and join".

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::lock;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed pool of worker threads consuming closures in FIFO order.
pub struct ThreadPool {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawn `threads` workers (clamped to at least 1).
    pub fn new(threads: usize, name: &str) -> ThreadPool {
        let threads = threads.max(1);
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads)
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || worker_loop(&rx))
                    .unwrap_or_else(|e| panic!("cannot spawn pool worker: {e}"))
            })
            .collect();
        ThreadPool {
            tx: Some(tx),
            workers,
        }
    }

    /// Enqueue a job. Jobs submitted before drop are all executed.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        if let Some(tx) = &self.tx {
            // Send fails only when every worker has exited, which only
            // happens after drop; dropping the job then is correct.
            let _ = tx.send(Box::new(job));
        }
    }
}

fn worker_loop(rx: &Arc<Mutex<Receiver<Job>>>) {
    loop {
        let job = lock(rx).recv();
        match job {
            Ok(job) => job(),
            Err(_) => return, // sender dropped: pool shutting down
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.tx.take(); // close the channel; workers drain then exit
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn executes_all_jobs_before_shutdown() {
        let done = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(4, "test");
            for _ in 0..64 {
                let done = Arc::clone(&done);
                pool.execute(move || {
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
        } // drop joins the workers after the queue drains
        assert_eq!(done.load(Ordering::SeqCst), 64);
    }
}
