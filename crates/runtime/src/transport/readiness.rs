//! The crate's one FFI module, two foreign calls: socket readiness and
//! timer precision.
//!
//! **Readiness** is the one way this crate waits on a socket: one
//! `ppoll(2)` call over a set of descriptors with a sub-millisecond
//! timeout. The hub waits on all its workers' sockets, a worker on its one.
//! std has no readiness API, and `poll`/`epoll_wait` take their timeout in
//! whole milliseconds — they would round the 20–200 µs delays the hub
//! injects up to 1 ms; a socket read timeout is rounded up to the scheduler
//! tick (4 ms at `CONFIG_HZ=250`) and treats zero as "forever". `ppoll`
//! takes a `timespec` on the high-resolution clock, so the hub can sleep
//! exactly until the next queued delivery is due, a node exactly until its
//! next request or timer, and a zero timeout is a poll.
//!
//! **Timer precision**: a timed wait on Linux may end up to the thread's
//! timer slack after its deadline (50 µs by default), so the kernel can
//! batch wake-ups. Exact timers belong to every thread whose waits end on
//! injected delays: the socket hub holds an [`ExactTimers`] guard
//! (`prctl(PR_SET_TIMERSLACK)`, 1 ns) for its serve loop, and each
//! thread-tier node thread for its whole life, since it sleeps until its
//! next delivery is due. Socket workers wait for frames the hub already
//! timed, so they, and the shared node driver, keep the default.
//!
//! This is the only module of `rcv-runtime` allowed to contain `unsafe`.

use std::marker::PhantomData;
use std::os::raw::{c_int, c_long, c_ulong, c_void};
use std::os::unix::io::RawFd;
use std::time::Duration;

// 64-bit only: there `time_t` and `long` are both 64 bits on every libc,
// which is what `Timespec` below assumes. Some 32-bit targets (musl,
// riscv32) have a 64-bit `time_t` beside a 32-bit `long`.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("rcv-runtime waits on sockets with ppoll(2): 64-bit Linux only");

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;
const PR_SET_TIMERSLACK: c_int = 29;
const PR_GET_TIMERSLACK: c_int = 30;

/// `struct pollfd`: one descriptor, what to wait for, what happened.
#[repr(C)]
#[derive(Debug)]
pub(crate) struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Waits for `fd` to become readable (or hang up), and also writable
    /// when `want_write`.
    pub(crate) fn new(fd: RawFd, want_write: bool) -> Self {
        PollFd {
            fd,
            events: if want_write { POLLIN | POLLOUT } else { POLLIN },
            revents: 0,
        }
    }

    /// An entry the kernel skips (a negative descriptor): keeps a set
    /// index-aligned with its owners after one of them is gone.
    pub(crate) fn ignored() -> Self {
        PollFd::new(-1, false)
    }

    /// A read will not block: data, EOF, or an error to collect. Hang-up
    /// and error conditions count, so the caller's ordinary `read` sees
    /// the EOF instead of this module inventing a second verdict path.
    pub(crate) fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL) != 0
    }
}

/// `struct timespec` on 64-bit Linux (the guard above): two 64-bit fields.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
}

/// Blocks until a descriptor in `fds` is ready or `timeout` elapses, and
/// returns how many are ready (their `revents` say how). Zero means the
/// timeout elapsed or a signal interrupted the wait — either way nothing
/// is ready and the caller re-evaluates its deadlines.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Duration) -> std::io::Result<usize> {
    let ts = Timespec {
        tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
    // structs laid out as `struct pollfd`, and `nfds` is its exact length,
    // so the kernel reads and writes only memory this call owns; `ts` is a
    // valid `struct timespec` that outlives the call (tv_nsec < 1e9 by
    // `subsec_nanos`); a null `sigmask` is documented to mean "leave the
    // signal mask alone". The call retains no pointer after it returns.
    let ready = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            &ts,
            std::ptr::null(),
        )
    };
    if ready >= 0 {
        return Ok(ready as usize);
    }
    // An interrupted wait found nothing (the kernel checks for signals
    // only once no descriptor is ready, and stores all-zero `revents`).
    match std::io::Error::last_os_error() {
        e if e.kind() == std::io::ErrorKind::Interrupted => Ok(0),
        e => Err(e),
    }
}

/// The calling thread's timer slack in nanoseconds, `None` if `prctl`
/// refuses.
pub(crate) fn timer_slack_ns() -> Option<c_ulong> {
    // SAFETY: `PR_GET_TIMERSLACK` takes no further argument and touches no
    // memory of this process; it returns the slack or −1.
    let slack = unsafe { prctl(PR_GET_TIMERSLACK) };
    c_ulong::try_from(slack).ok()
}

/// Sets the calling thread's timer slack; `false` if `prctl` refuses.
fn set_timer_slack_ns(ns: c_ulong) -> bool {
    // SAFETY: `PR_SET_TIMERSLACK` reads one integer argument, passed as
    // the `unsigned long` the kernel takes it as, and touches no memory of
    // this process.
    unsafe { prctl(PR_SET_TIMERSLACK, ns) == 0 }
}

/// Holds the calling thread's timer slack at 1 ns, so its timed waits end
/// at their deadline rather than up to the default 50 µs after it; drop
/// (also on unwind) puts the previous slack back. If `prctl` refuses, the
/// guard does nothing.
///
/// Slack is per thread and inherited at spawn: take the guard *after*
/// spawning the threads that should keep the default. The guard is not
/// `Send`, so it is dropped on the thread whose slack it set.
pub(crate) struct ExactTimers {
    previous: Option<c_ulong>,
    _this_thread: PhantomData<*const ()>,
}

impl ExactTimers {
    /// Sets the calling thread's slack to 1 ns until the guard drops.
    pub(crate) fn new() -> Self {
        ExactTimers {
            previous: timer_slack_ns().filter(|_| set_timer_slack_ns(1)),
            _this_thread: PhantomData,
        }
    }
}

impl Drop for ExactTimers {
    fn drop(&mut self) {
        if let Some(previous) = self.previous {
            set_timer_slack_ns(previous);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    #[test]
    fn times_out_with_nothing_ready() {
        let (a, _b) = UnixStream::pair().expect("socketpair");
        let mut fds = [PollFd::new(a.as_raw_fd(), false)];
        let ready = wait(&mut fds, Duration::from_millis(2)).expect("ppoll");
        assert_eq!(ready, 0);
        assert!(!fds[0].readable());
    }

    #[test]
    fn reports_readable_after_a_peer_write() {
        let (a, mut b) = UnixStream::pair().expect("socketpair");
        b.write_all(b"x").expect("write");
        let mut fds = [PollFd::new(a.as_raw_fd(), false)];
        let ready = wait(&mut fds, Duration::from_secs(5)).expect("ppoll");
        assert_eq!(ready, 1);
        assert!(fds[0].readable());
        assert_eq!(fds[0].revents, POLLIN);
    }

    #[test]
    fn reports_hang_up_after_the_peer_drops() {
        let (a, b) = UnixStream::pair().expect("socketpair");
        drop(b);
        let mut fds = [PollFd::new(a.as_raw_fd(), false)];
        let ready = wait(&mut fds, Duration::from_secs(5)).expect("ppoll");
        assert_eq!(ready, 1);
        assert_ne!(fds[0].revents & POLLHUP, 0);
        assert!(fds[0].readable(), "a hang-up must route into the read path");
    }

    #[test]
    fn an_idle_socket_is_writable_only_when_asked() {
        let (a, _b) = UnixStream::pair().expect("socketpair");
        let mut fds = [
            PollFd::new(a.as_raw_fd(), false),
            PollFd::new(a.as_raw_fd(), true),
        ];
        let ready = wait(&mut fds, Duration::from_secs(5)).expect("ppoll");
        assert_eq!(ready, 1);
        assert_eq!(fds[0].revents, 0);
        assert_eq!(fds[1].revents, POLLOUT);
    }

    #[test]
    fn ignored_entries_are_skipped() {
        let mut fds = [PollFd::ignored()];
        let ready = wait(&mut fds, Duration::from_micros(100)).expect("ppoll");
        assert_eq!(ready, 0);
        assert_eq!(fds[0].revents, 0);
    }

    /// `poll`/`epoll_wait` would turn 100 µs into 1 ms (or 0). A loaded
    /// machine overshoots any timer, so the upper bound is loose and taken
    /// over the best of several tries.
    #[test]
    fn honours_a_sub_millisecond_timeout() {
        let (a, _b) = UnixStream::pair().expect("socketpair");
        let mut fds = [PollFd::new(a.as_raw_fd(), false)];
        let best = (0..20)
            .map(|_| {
                let t0 = Instant::now();
                let ready = wait(&mut fds, Duration::from_micros(100)).expect("ppoll");
                assert_eq!(ready, 0);
                t0.elapsed()
            })
            .min()
            .expect("tries");
        assert!(
            best >= Duration::from_micros(100),
            "returned early: {best:?}"
        );
        assert!(best < Duration::from_millis(5), "timeout rounded: {best:?}");
    }

    #[test]
    fn exact_timers_hold_one_nanosecond_and_restore_the_previous_slack() {
        // A non-default starting value, so "restored" cannot be mistaken
        // for "reset to the default".
        let start = timer_slack_ns().expect("PR_GET_TIMERSLACK");
        assert!(set_timer_slack_ns(77_000));
        {
            let _exact = ExactTimers::new();
            assert_eq!(timer_slack_ns(), Some(1));
        }
        assert_eq!(timer_slack_ns(), Some(77_000));

        let unwound = std::panic::catch_unwind(|| {
            let _exact = ExactTimers::new();
            assert_eq!(timer_slack_ns(), Some(1));
            panic!("unwind through the guard");
        });
        assert!(unwound.is_err());
        assert_eq!(timer_slack_ns(), Some(77_000), "restored on unwind");
        assert!(set_timer_slack_ns(start));
    }
}
