//! Hard wall-clock watchdog for threaded-cluster runs.
//!
//! The cluster's own `ClusterSpec::timeout` is a *soft* deadline: it makes
//! a stalled run return `timed_out = true`, but it only works while the
//! coordination machinery itself is healthy. If the cluster deadlocks in a
//! way the soft timeout cannot observe (a wedged serving loop, a node
//! stuck in a blocking send, a teardown bug), a test would hang the whole
//! CI job. [`run_with_watchdog`] closes that hole: it runs the cluster on
//! a helper thread and, when the hard deadline expires, prints a dump of
//! every registered cluster thread's last reported status and panics in
//! the *calling* thread — the job fails loudly, with enough state to
//! diagnose the deadlock, instead of hanging until the CI-level timeout
//! reaps it. (The stuck worker threads are leaked; the process is about to
//! die anyway.)
//!
//! Cluster threads report progress through [`StatusCell`]s registered in a
//! process-global roster; [`thread_dump`] renders the roster at any time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};
use std::time::{Duration, Instant};

struct CellInner {
    label: String,
    status: Mutex<String>,
    events: AtomicU64,
    born: Instant,
}

static ROSTER: Mutex<Vec<Weak<CellInner>>> = Mutex::new(Vec::new());

/// Locks `m`, recovering from poisoning: the roster and the status lines
/// stay readable after a thread panicked while holding one, and a dump
/// after a panic is exactly when they are wanted.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A cluster thread's live status slot. The owning thread updates it as it
/// makes progress; [`thread_dump`] reads every live slot. Dropping the
/// cell unregisters it (the roster holds only weak references).
pub struct StatusCell(Arc<CellInner>);

impl StatusCell {
    /// Registers a new status slot under `label` (conventionally the
    /// thread name, e.g. `rcv-node-3`).
    pub fn register(label: impl Into<String>) -> Self {
        let inner = Arc::new(CellInner {
            label: label.into(),
            status: Mutex::new(String::from("spawned")),
            events: AtomicU64::new(0),
            born: Instant::now(),
        });
        let mut roster = lock(&ROSTER);
        // Opportunistically drop slots whose threads are gone.
        roster.retain(|w| w.strong_count() > 0);
        roster.push(Arc::downgrade(&inner));
        StatusCell(inner)
    }

    /// Replaces the status line (call on state transitions, not per event).
    pub fn set(&self, status: impl Into<String>) {
        *lock(&self.0.status) = status.into();
    }

    /// Cheap per-event heartbeat; the count appears in the dump.
    #[inline]
    pub fn bump(&self) {
        self.0.events.fetch_add(1, Ordering::Relaxed);
    }
}

/// Renders the last reported status of every live registered thread.
pub fn thread_dump() -> String {
    let roster = lock(&ROSTER);
    let mut out = String::new();
    let mut live = 0;
    for cell in roster.iter().filter_map(Weak::upgrade) {
        live += 1;
        out.push_str(&format!(
            "  {:<20} age {:>7.1?}  events {:>8}  {}\n",
            cell.label,
            cell.born.elapsed(),
            cell.events.load(Ordering::Relaxed),
            lock(&cell.status),
        ));
    }
    if live == 0 {
        out.push_str("  (no cluster threads registered)\n");
    }
    out
}

/// Runs `f` on a helper thread under a hard wall-clock deadline.
///
/// * `f` finishes in time → its value is returned (panics propagate).
/// * `f` overruns `limit` → the registered-thread dump is printed and this
///   function panics with it, failing the surrounding test or binary
///   loudly. The overrunning thread is leaked.
pub fn run_with_watchdog<T, F>(label: &str, limit: Duration, f: F) -> T
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::Builder::new()
        .name(format!("watchdog-{label}"))
        .spawn(move || {
            let _ = tx.send(f());
        })
        .expect("spawn watchdog worker");
    match rx.recv_timeout(limit) {
        Ok(v) => {
            let _ = handle.join();
            v
        }
        Err(RecvTimeoutError::Disconnected) => {
            // The worker died without sending: re-raise its panic.
            match handle.join() {
                Err(panic) => std::panic::resume_unwind(panic),
                Ok(()) => unreachable!("worker exited without sending or panicking"),
            }
        }
        Err(RecvTimeoutError::Timeout) => {
            let dump = thread_dump();
            eprintln!("watchdog: '{label}' exceeded {limit:?}; thread dump:\n{dump}");
            panic!("watchdog: '{label}' exceeded its {limit:?} hard deadline\n{dump}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_work_passes_through() {
        let v = run_with_watchdog("fast", Duration::from_secs(5), || 41 + 1);
        assert_eq!(v, 42);
    }

    #[test]
    #[should_panic(expected = "hard deadline")]
    fn overrun_panics_with_a_dump() {
        let cell = StatusCell::register("stuck-thread");
        cell.set("pretending to deadlock");
        run_with_watchdog("stuck", Duration::from_millis(50), || {
            std::thread::sleep(Duration::from_secs(600));
        });
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panic_propagates() {
        run_with_watchdog("boom", Duration::from_secs(5), || panic!("worker boom"));
    }

    #[test]
    fn worker_panic_payload_survives_verbatim_and_immediately() {
        // The Disconnected arm must re-raise the worker's own payload —
        // not wrap it, not stringify it — and must do so as soon as the
        // worker dies, not after waiting out the deadline.
        let deadline = Duration::from_secs(600);
        let started = Instant::now();
        let payload = std::panic::catch_unwind(|| {
            run_with_watchdog("payload", deadline, || panic!("exact original payload"))
        })
        .expect_err("worker panicked");
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "propagation waited on the deadline"
        );
        let msg = payload
            .downcast_ref::<&'static str>()
            .expect("panic! with a literal keeps its &str payload");
        assert_eq!(*msg, "exact original payload");
    }

    #[test]
    fn non_string_panic_payloads_are_preserved() {
        // panic_any with a typed payload (the cluster's teardown re-raises
        // whatever a node thread threw): the exact value must come back.
        #[derive(Debug, PartialEq)]
        struct Crash(u32);
        let payload = std::panic::catch_unwind(|| {
            run_with_watchdog("typed", Duration::from_secs(600), || {
                std::panic::panic_any(Crash(7))
            })
        })
        .expect_err("worker panicked");
        assert_eq!(payload.downcast_ref::<Crash>(), Some(&Crash(7)));
    }

    #[test]
    fn spawned_node_thread_panic_reaches_the_caller() {
        // The cluster pattern: the worker spawns node threads, joins them,
        // and re-raises the first panic it finds. Composed with the
        // watchdog, a panic three threads deep must surface in the calling
        // thread with its payload intact.
        let payload = std::panic::catch_unwind(|| {
            run_with_watchdog("cluster-like", Duration::from_secs(600), || {
                let node = std::thread::Builder::new()
                    .name("rcv-node-0".into())
                    .spawn(|| panic!("node thread died: Lemma 6 violated"))
                    .expect("spawn node");
                if let Err(p) = node.join() {
                    std::panic::resume_unwind(p);
                }
            })
        })
        .expect_err("node panic must propagate");
        let msg = payload
            .downcast_ref::<&'static str>()
            .expect("payload type preserved through two hops");
        assert_eq!(*msg, "node thread died: Lemma 6 violated");
    }

    #[test]
    fn dump_lists_registered_cells() {
        let cell = StatusCell::register("dump-me");
        cell.set("round 2/3");
        cell.bump();
        let dump = thread_dump();
        assert!(dump.contains("dump-me"), "{dump}");
        assert!(dump.contains("round 2/3"), "{dump}");
        drop(cell);
        assert!(!thread_dump().contains("dump-me"));
    }
}
