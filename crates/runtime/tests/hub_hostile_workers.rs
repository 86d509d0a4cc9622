//! The hub against workers that misbehave *after* a valid handshake.
//!
//! The hub blocks in a readiness wait between passes, so every way a
//! worker can stall or die has to surface as an event or as the watchdog
//! timeout — never as a hub stuck inside the wait, and never as memory
//! growing with the misbehaviour. Each test drives `run_process_cluster`
//! with hand-rolled workers on real Unix-domain sockets; the polite one
//! plays the protocol-free minimum (Done → Shutdown → Report) so the
//! verdict is attributable to the hostile one alone.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rcv_runtime::orchestrator::{
    run_process_cluster, ProcessReport, ProcessSpec, OUTBUF_CAP, OVER_CAP_FAULT,
};
use rcv_runtime::run_with_watchdog;
use rcv_runtime::transport::frame::{encode_frame, hello, CtrlFrame, FrameBuf, WorkerReport};

const TAG: &str = "hostile";

/// A hand-driven worker connection, past the handshake.
struct Fake {
    node: u32,
    stream: UnixStream,
    fb: FrameBuf,
}

impl Fake {
    /// Connects, says `Hello`, and waits for `Start`.
    fn handshake(addr: &str, node: u32) -> Fake {
        let path = addr.strip_prefix("uds:").expect("uds address");
        let stream = UnixStream::connect(path).expect("connect to hub");
        let mut fake = Fake {
            node,
            stream,
            fb: FrameBuf::new(),
        };
        fake.send(&hello(node, TAG));
        match fake.next_frame() {
            Some(CtrlFrame::Start { node: spec, .. }) => assert_eq!(spec.node.raw(), node),
            other => panic!("expected Start, got {other:?}"),
        }
        fake
    }

    fn send(&mut self, frame: &CtrlFrame) {
        self.stream
            .write_all(encode_frame(frame).as_ref())
            .expect("write to hub");
    }

    /// The next frame from the hub; `None` once the hub hung up.
    fn next_frame(&mut self) -> Option<CtrlFrame> {
        let mut buf = [0u8; 4096];
        loop {
            if let Some(frame) = self.fb.next_frame().expect("hub frames decode") {
                return Some(frame);
            }
            match self.stream.read(&mut buf) {
                Ok(0) | Err(_) => return None,
                Ok(n) => self.fb.extend(&buf[..n]),
            }
        }
    }

    /// Announces `Done`, then reports when told to shut down (or leaves
    /// when the hub gives up on the run).
    fn finish_politely(mut self) {
        self.send(&CtrlFrame::Done { node: self.node });
        while let Some(frame) = self.next_frame() {
            if frame == CtrlFrame::Shutdown {
                self.send(&CtrlFrame::Report(WorkerReport {
                    node: self.node,
                    ..WorkerReport::default()
                }));
                return;
            }
        }
    }

    /// Holds the connection open, reading nothing, until the hub is gone.
    fn hold_until(self, released: mpsc::Receiver<()>) {
        let _ = released.recv();
    }
}

/// Runs a 2-node cluster: node 0 is `polite`, node 1 is `hostile`. The
/// hostile worker also gets a channel that closes once the hub returned.
fn run_pair(
    timeout: Duration,
    polite: impl FnOnce(Fake) + Send + 'static,
    hostile: impl FnOnce(Fake, mpsc::Receiver<()>) + Send + 'static,
) -> (ProcessReport, Duration) {
    run_with_watchdog("hostile-worker", Duration::from_secs(60), move || {
        let spec = ProcessSpec::quick(2, 1, TAG).timeout(timeout);
        let (release, released) = mpsc::channel();
        let mut workers: Vec<JoinHandle<()>> = Vec::new();
        let started = Instant::now();
        let report = run_process_cluster(&spec, |addr| {
            let (a0, a1) = (addr.to_string(), addr.to_string());
            workers.push(std::thread::spawn(move || polite(Fake::handshake(&a0, 0))));
            workers.push(std::thread::spawn(move || {
                hostile(Fake::handshake(&a1, 1), released)
            }));
            Ok(Vec::new())
        })
        .expect("a run that starts always reports");
        let elapsed = started.elapsed();
        drop(release);
        for w in workers {
            w.join().expect("fake worker");
        }
        (report, elapsed)
    })
}

#[test]
fn silent_worker_ends_in_a_timeout_verdict_at_the_deadline() {
    let timeout = Duration::from_millis(400);
    let (report, elapsed) = run_pair(timeout, Fake::finish_politely, Fake::hold_until);
    assert!(report.report.timed_out, "{report:?}");
    assert!(
        report.crashed.is_empty(),
        "a stall is not a crash: {report:?}"
    );
    assert!(elapsed >= timeout, "{elapsed:?}");
    // Nothing happens for most of the run: the hub must sleep through it.
    let hub = report.hub;
    assert!(hub.wakeups_readable + hub.wakeups_timer <= 16, "{hub:?}");
}

#[test]
fn half_a_frame_then_close_is_a_crash_verdict_before_the_deadline() {
    let timeout = Duration::from_secs(30);
    let (report, elapsed) = run_pair(timeout, Fake::finish_politely, |mut fake, _released| {
        let frame = encode_frame(&CtrlFrame::Send {
            to: 0,
            delay_us: 0,
            payload: vec![7u8; 64].into(),
        });
        let half = &frame.as_ref()[..frame.len() / 2];
        fake.stream.write_all(half).expect("write half a frame");
        // Dropping `fake` closes the socket mid-frame.
    });
    assert_eq!(report.crashed, vec![1], "{report:?}");
    assert!(!report.report.timed_out, "{report:?}");
    assert!(report.reports[0].is_some(), "the polite worker reported");
    assert!(elapsed < timeout / 2, "{elapsed:?}");
    assert_eq!(report.report.late.count, 0, "half a frame routes nothing");
}

#[test]
fn slow_loris_ends_in_a_timeout_verdict() {
    let timeout = Duration::from_millis(400);
    let (report, elapsed) = run_pair(timeout, Fake::finish_politely, |mut fake, released| {
        // A frame that claims 1000 body bytes and delivers one per 10 ms.
        fake.stream
            .write_all(&1000u32.to_be_bytes())
            .expect("length prefix");
        while released.try_recv() == Err(mpsc::TryRecvError::Empty) {
            if fake.stream.write_all(&[3]).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    });
    assert!(report.report.timed_out, "{report:?}");
    assert!(report.crashed.is_empty(), "{report:?}");
    assert!(report.faults.is_empty(), "{report:?}");
    assert!(elapsed >= timeout, "{elapsed:?}");
    assert_eq!(report.report.late.count, 0);
}

#[test]
fn worker_that_never_reads_is_written_off_at_the_buffer_cap() {
    const PAYLOAD: usize = 256 * 1024;
    let frames = 3 * OUTBUF_CAP / PAYLOAD; // three caps' worth toward node 1
    let (report, _) = run_pair(
        Duration::from_millis(1500),
        move |mut fake| {
            for _ in 0..frames {
                fake.send(&CtrlFrame::Send {
                    to: 1,
                    delay_us: 0,
                    payload: vec![0xAB; PAYLOAD].into(),
                });
            }
            fake.finish_politely();
        },
        Fake::hold_until,
    );
    assert!(report.report.timed_out, "{report:?}");
    assert!(report.crashed.is_empty(), "{report:?}");
    // The verdict names the worker that was written off, and why.
    assert_eq!(report.faults, [(1, OVER_CAP_FAULT.to_string())]);
    let hub = report.hub;
    assert_eq!(report.report.late.count, frames as u64, "{hub:?}");
    assert!(hub.bytes_in >= (frames * PAYLOAD) as u64, "{hub:?}");
    assert!(hub.max_outbuf <= OUTBUF_CAP as u64, "{hub:?}");
    assert!(
        hub.max_outbuf > (OUTBUF_CAP - 2 * PAYLOAD) as u64,
        "the buffer filled to the cap before the worker was written off: {hub:?}"
    );
    assert!(
        hub.bytes_out < (OUTBUF_CAP + 2 * PAYLOAD) as u64,
        "only what the kernel buffered was ever written: {hub:?}"
    );
}

#[test]
fn send_to_a_node_the_cluster_lacks_is_named_and_the_run_concludes() {
    let timeout = Duration::from_secs(30);
    let (report, elapsed) = run_pair(timeout, Fake::finish_politely, |mut fake, _released| {
        fake.send(&CtrlFrame::Send {
            to: 2, // n = 2: nodes 0 and 1
            delay_us: 0,
            payload: vec![7u8; 8].into(),
        });
        fake.finish_politely();
    });
    assert_eq!(report.faults.len(), 1, "{report:?}");
    let (node, detail) = &report.faults[0];
    assert_eq!(*node, 1, "the sender is named");
    assert!(detail.contains("node 2 of 2"), "{detail}");
    assert!(!report.report.timed_out, "{report:?}");
    assert!(report.crashed.is_empty(), "{report:?}");
    assert!(report.reports.iter().all(Option::is_some), "{report:?}");
    assert!(elapsed < timeout / 2, "{elapsed:?}");
    assert_eq!(report.report.late.count, 0, "nowhere to route it");
}
