//! Multi-process cluster orchestration: the "hub" that turns N worker
//! processes on localhost into one mutual-exclusion cluster.
//!
//! The hub binds a Unix-domain (default) or TCP loopback listener, hands
//! the address to a caller-supplied spawner, and then runs the cluster's
//! entire life cycle over the control-frame protocol of
//! [`crate::transport::frame`]:
//!
//! 1. **Handshake** — every worker opens a connection and sends `Hello`
//!    (magic, schema version, node index, protocol tag). The hub validates
//!    with [`validate_hello`]; any mismatch gets a `Reject` and fails the
//!    run before protocol traffic exists.
//! 2. **Start** — each accepted worker receives its [`NodeSpec`], as
//!    [`Spec::node`] derives it (workload, timing, seed, crash window,
//!    retry policy), and the shared CS-log path.
//! 3. **Serve** — an event-driven loop over the nonblocking worker
//!    sockets. After each pass over its work the hub blocks in one
//!    `ppoll(2)` readiness wait (`transport::readiness`) on every live
//!    socket — readable always, writable only while that worker has
//!    queued output — with a timeout of whichever comes first: the next
//!    queued delivery falling due, the kill drill, the watchdog deadline;
//!    the loop runs at 1 ns timer slack, so those timeouts end on time.
//!    It then reads only the sockets reported ready and flushes only the
//!    slots with queued output, so an idle cluster costs no CPU and a
//!    `Send` is read the moment it arrives. `Send` frames are routed
//!    through the same `FaultQueue` (in `transport::netq`) the thread
//!    tier's node threads share, so loss, duplication and stragglers act
//!    identically across backends; a worker inside its crash window
//!    discards what reaches it, as a thread-tier node does. Output toward
//!    a worker is bounded by [`OUTBUF_CAP`]: a worker that stops reading
//!    is written off (and named in `faults`, see [`OVER_CAP_FAULT`])
//!    instead of growing the hub. Mutual exclusion is checked *post hoc* by replaying the shared
//!    append-only CS log into an [`rcv_simnet::SafetyMonitor`] — workers
//!    write entry/exit records from inside the CS, and the kernel's
//!    `O_APPEND` serialization makes interleaved records a faithful
//!    witness of real overlap.
//! 4. **Shutdown** — when every worker has announced `Done` the hub
//!    broadcasts `Shutdown`, collects per-node `Report` frames, kills
//!    stragglers at the watchdog deadline, and reaps every child.
//!
//! A worker that disappears (EOF) before reporting is a **crash verdict**:
//! the run is not clean even if the log shows no overlap.

use std::net::TcpListener;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::process::Child;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bytes::Bytes;
use rcv_simnet::{MutexProtocol, NodeId};

use crate::checker::{replay_cs_log, CsLogProbe};
use crate::cluster::ClusterReport;
use crate::node::NodeDriver;
use crate::spec::{NodeSpec, Spec};
use crate::transport::frame::{
    encode_frame, encode_frame_into, validate_hello, CtrlFrame, FrameBuf, WorkerReport, MAX_FRAME,
};
use crate::transport::readiness::{self, ExactTimers, PollFd};
use crate::transport::socket::{is_timeout, SocketStream};
use crate::transport::{SocketNet, SocketTransport};
use crate::watchdog::StatusCell;
use crate::wire::WireCodec;

/// What the socket tier needs beyond the shared run parameters.
#[derive(Clone, Debug)]
pub struct ProcessExt {
    /// Algorithm tag every worker must claim in its `Hello` (e.g.
    /// `"rcv"`); also what each worker is told to run.
    pub protocol: String,
    /// Socket family (Unix-domain by default, TCP loopback on request).
    pub net: SocketNet,
    /// Fault-drill: kill worker `node`'s process this long after `Start`,
    /// to prove the hub returns a crash verdict instead of hanging.
    pub kill_worker: Option<(u32, Duration)>,
}

/// Parameters of a multi-process cluster run: the shared run parameters
/// plus [`ProcessExt`] (`ext`).
pub type ProcessSpec = Spec<ProcessExt>;

impl ProcessSpec {
    /// [`crate::RunSpec::quick`] for `protocol` over Unix-domain sockets,
    /// no kill drill.
    pub fn quick(n: usize, seed: u64, protocol: &str) -> Self {
        crate::RunSpec::quick(n, seed).with(ProcessExt {
            protocol: protocol.to_string(),
            net: SocketNet::Uds,
            kill_worker: None,
        })
    }

    /// Selects the socket family.
    pub fn net(mut self, net: SocketNet) -> Self {
        self.ext.net = net;
        self
    }
}

/// What a multi-process run produced: the familiar [`ClusterReport`] plus
/// process-tier specifics (per-node reports, wire faults with node
/// attribution, crash verdicts).
#[derive(Clone, Debug)]
pub struct ProcessReport {
    /// Aggregate counters in the same shape as the thread backend.
    pub report: ClusterReport,
    /// Per-node final reports; `None` means the worker never reported.
    pub reports: Vec<Option<WorkerReport>>,
    /// Fatal wire errors reported by workers, with the reporting node.
    /// Each detail is a rendered [`crate::wire::WireError`], already
    /// protocol/variant-framed (e.g. `"RCV/Rm: truncated message"`).
    /// The hub's own findings about a worker are listed here too: one
    /// written off at [`OUTBUF_CAP`] (detail [`OVER_CAP_FAULT`]), a
    /// corrupt control frame, a `Send` addressed to a node the cluster
    /// does not have.
    pub faults: Vec<(u32, String)>,
    /// Nodes whose process vanished before sending its report.
    pub crashed: Vec<u32>,
    /// Holds that ended in an exit record in the CS log. Each completed
    /// CS writes one, and a hold cut short by a crash window writes none
    /// (its entry is followed by an eviction), so on a concluded run this
    /// equals `report.completed`.
    pub cs_exits: u64,
    /// What the hub's serve loop did.
    pub hub: HubStats,
}

/// Counters of the hub's serve loop: how often it woke and why, and how
/// many bytes it moved (how many deliveries it routed, and how late, is
/// [`ClusterReport::late`]). Plain counts kept on the hub thread (no clock
/// reads of their own); `wakeups_readable + wakeups_timer` is the number
/// of passes the loop made, which for an event-driven hub is bounded by
/// the traffic, not by the run's length.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HubStats {
    /// Readiness waits that ended because a socket became ready (almost
    /// always readable; writable when a worker's socket buffer drained).
    pub wakeups_readable: u64,
    /// Readiness waits that ended on their timeout (a delivery fell due,
    /// the kill drill, the deadline) or a signal.
    pub wakeups_timer: u64,
    /// Bytes read from worker sockets.
    pub bytes_in: u64,
    /// Bytes written to worker sockets.
    pub bytes_out: u64,
    /// Most bytes ever queued toward one worker (at most [`OUTBUF_CAP`]).
    pub max_outbuf: u64,
}

/// Most bytes the hub queues toward one worker. A worker that lets this
/// much pile up has stopped reading: the hub stops writing to it (the run
/// then ends in a `timed_out` or crash verdict) rather than buffering
/// without bound.
pub const OUTBUF_CAP: usize = 4 * MAX_FRAME;

/// The entry [`ProcessReport::faults`] carries for a worker written off at
/// [`OUTBUF_CAP`], so that verdict is told apart from an ordinary stall.
pub const OVER_CAP_FAULT: &str = "hub: output cap exceeded, worker not reading";

impl ProcessReport {
    /// Findings only this tier can make: wire faults and worker deaths on
    /// any run, a mismatch between the CS log's exits and the reported
    /// completions on runs that concluded (a timed-out run kills stalled
    /// workers before they report, which legitimately loses their
    /// counters).
    pub fn findings(&self) -> u64 {
        let r = &self.report;
        self.faults.len() as u64
            + self.crashed.len() as u64
            + u64::from(!r.timed_out && self.cs_exits != r.completed)
    }

    /// Whether the run was safe, fully live, and free of findings.
    pub fn is_clean(&self, expected: u64) -> bool {
        self.report.is_clean(expected) && self.findings() == 0
    }
}

/// Monotonic discriminator so concurrent hubs in one process never share
/// socket paths or CS logs.
static HUB_SEQ: AtomicU64 = AtomicU64::new(0);

enum Listener {
    Uds(UnixListener, PathBuf),
    Tcp(TcpListener),
}

impl Listener {
    fn bind(net: SocketNet, tag: u64) -> std::io::Result<(Listener, String)> {
        match net {
            SocketNet::Uds => {
                let path =
                    std::env::temp_dir().join(format!("rcv-hub-{}-{tag}.sock", std::process::id()));
                let _ = std::fs::remove_file(&path);
                let l = UnixListener::bind(&path)?;
                let addr = format!("uds:{}", path.display());
                Ok((Listener::Uds(l, path), addr))
            }
            SocketNet::Tcp => {
                let l = TcpListener::bind("127.0.0.1:0")?;
                let addr = format!("tcp:{}", l.local_addr()?);
                Ok((Listener::Tcp(l), addr))
            }
        }
    }

    fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            Listener::Uds(l, _) => l.set_nonblocking(nb),
            Listener::Tcp(l) => l.set_nonblocking(nb),
        }
    }

    fn raw_fd(&self) -> RawFd {
        match self {
            Listener::Uds(l, _) => l.as_raw_fd(),
            Listener::Tcp(l) => l.as_raw_fd(),
        }
    }

    fn accept(&self) -> std::io::Result<SocketStream> {
        match self {
            Listener::Uds(l, _) => l.accept().map(|(s, _)| SocketStream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nodelay(true);
                SocketStream::Tcp(s)
            }),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Uds(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One connected worker as the hub sees it.
struct Slot {
    stream: SocketStream,
    fb: FrameBuf,
    /// Bytes queued toward the worker (nonblocking writes may be short);
    /// `outbuf[head..]` is still unwritten.
    outbuf: Vec<u8>,
    head: usize,
    bytes_in: u64,
    bytes_out: u64,
    max_outbuf: usize,
    done: bool,
    report: Option<WorkerReport>,
    /// The read side is drained (EOF or read error); nothing more will
    /// arrive from this worker.
    eof: bool,
    /// The write side is dead (EPIPE/reset). Kept separate from `eof`:
    /// a worker that received `Shutdown`, wrote its report and exited
    /// closes the socket, so late deliveries to it fail — but its report
    /// is still sitting in our receive buffer and must be read, not
    /// discarded as a crash.
    wedged: bool,
    /// `wedged` because [`OUTBUF_CAP`] was hit, i.e. written off while
    /// possibly still alive; reported as a fault so the verdict says why.
    over_cap: bool,
}

impl Slot {
    fn new(stream: SocketStream, fb: FrameBuf) -> Self {
        Slot {
            stream,
            fb,
            outbuf: Vec::new(),
            head: 0,
            bytes_in: 0,
            bytes_out: 0,
            max_outbuf: 0,
            done: false,
            report: None,
            eof: false,
            wedged: false,
            over_cap: false,
        }
    }

    /// Whether the hub has bytes it still wants to write to this worker
    /// (never for a wedged one: `wedge` empties the buffer for good).
    fn has_output(&self) -> bool {
        !self.eof && self.head < self.outbuf.len()
    }

    /// Flushes as much queued output as the socket accepts right now.
    fn flush(&mut self) {
        while self.has_output() {
            match self.stream.write_some(&self.outbuf[self.head..]) {
                Ok(0) => self.wedge(),
                Ok(n) => {
                    self.head += n;
                    self.bytes_out += n as u64;
                }
                Err(e) if is_timeout(&e) => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => self.wedge(),
            }
        }
        if self.head == self.outbuf.len() {
            self.outbuf.clear();
            self.head = 0;
        }
    }

    fn queue(&mut self, frame: &CtrlFrame) {
        if self.wedged || self.eof {
            return; // never flushed again: don't buffer for nobody
        }
        // Reclaim the written prefix once it is at least as large as what
        // is left to move: amortized O(1) per byte, no memmove per write.
        if self.head > 0 && self.head >= self.outbuf.len() - self.head {
            self.outbuf.copy_within(self.head.., 0);
            self.outbuf.truncate(self.outbuf.len() - self.head);
            self.head = 0;
        }
        encode_frame_into(&mut self.outbuf, frame);
        let pending = self.outbuf.len() - self.head;
        if pending > OUTBUF_CAP {
            self.over_cap = true; // the worker is not reading
            self.wedge();
        } else {
            self.max_outbuf = self.max_outbuf.max(pending);
        }
    }

    /// Handles every complete frame buffered from this worker (node `i`
    /// of `n`): `Send`s go to the delay queue, the rest is bookkeeping.
    fn process_frames(
        &mut self,
        i: usize,
        n: usize,
        q: &mut FaultQueueBytes,
        faults: &mut Vec<(u32, String)>,
    ) {
        loop {
            match self.fb.next_frame() {
                Ok(Some(CtrlFrame::Send {
                    to,
                    delay_us,
                    payload,
                })) => {
                    if (to as usize) < n {
                        q.submit(
                            i,
                            to as usize,
                            Duration::from_micros(delay_us),
                            payload,
                            Instant::now(),
                        );
                    } else {
                        faults.push((i as u32, format!("hub: Send addressed to node {to} of {n}")));
                    }
                }
                Ok(Some(CtrlFrame::Done { .. })) => self.done = true,
                Ok(Some(CtrlFrame::Report(r))) => self.report = Some(r),
                Ok(Some(CtrlFrame::Fault { node, detail })) => faults.push((node, detail)),
                // Hub-bound frames only; anything else is a confused
                // worker. Ignore rather than wedge the cluster.
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    faults.push((i as u32, e.to_string()));
                    self.eof = true;
                    break;
                }
            }
        }
    }

    /// Writes the worker off: nothing more is sent or buffered. Its read
    /// side stays open — a report already in flight must still be read.
    fn wedge(&mut self) {
        self.wedged = true;
        self.outbuf = Vec::new();
        self.head = 0;
    }
}

fn kill_children(children: &mut [Child]) {
    for c in children.iter_mut() {
        let _ = c.kill();
    }
    for c in children.iter_mut() {
        let _ = c.wait();
    }
}

/// Reads blocking frames from a fresh connection until one decodes, with
/// a deadline. Used only during the handshake.
fn read_frame_blocking(
    stream: &mut SocketStream,
    fb: &mut FrameBuf,
    deadline: Instant,
) -> Result<CtrlFrame, String> {
    let mut buf = [0u8; 4096];
    loop {
        match fb.next_frame() {
            Ok(Some(f)) => return Ok(f),
            Ok(None) => {}
            Err(e) => return Err(e.to_string()),
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err("handshake deadline exceeded".into());
        }
        match stream.read_within(&mut buf, left) {
            Ok(None) => {} // the loop head sorts out whether time is up
            Ok(Some(0)) => return Err("connection closed during handshake".into()),
            Ok(Some(n)) => fb.extend(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.to_string()),
        }
    }
}

/// Runs a multi-process cluster to completion.
///
/// `spawn` receives the cluster address (`"uds:<path>"` or
/// `"tcp:<ip>:<port>"`) and must start the worker processes, returning
/// them **in node order** (index `i` is node `i`, the process
/// [`ProcessExt::kill_worker`] targets). It may return an empty vector
/// when the workers are driven elsewhere (e.g. test threads).
///
/// Errors are setup/handshake failures — a run that *starts* always
/// produces a [`ProcessReport`], with crashes and faults recorded in it.
pub fn run_process_cluster(
    spec: &ProcessSpec,
    spawn: impl FnOnce(&str) -> std::io::Result<Vec<Child>>,
) -> Result<ProcessReport, String> {
    assert!(spec.n >= 1);
    let n = spec.n;
    crate::serves(&spec.faults, n)?;
    let tag = HUB_SEQ.fetch_add(1, Ordering::Relaxed);
    let net = spec.ext.net;
    let (listener, addr) =
        Listener::bind(net, tag).map_err(|e| format!("bind {}: {e}", net.name()))?;
    let cs_log = std::env::temp_dir().join(format!("rcv-cs-{}-{tag}.log", std::process::id()));
    let _ = std::fs::remove_file(&cs_log);

    let status = StatusCell::register("rcv-hub");
    status.set("spawning workers");
    let mut children = spawn(&addr).map_err(|e| format!("spawn workers: {e}"))?;

    // --- Handshake: accept until every node slot is occupied. ---
    status.set("handshaking");
    let handshake_deadline = Instant::now() + spec.timeout;
    listener.set_nonblocking(true).map_err(|e| e.to_string())?;
    let mut slots: Vec<Option<Slot>> = (0..n).map(|_| None).collect();
    let mut connected = 0usize;
    while connected < n {
        if Instant::now() >= handshake_deadline {
            kill_children(&mut children);
            let missing: Vec<usize> = slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.is_none())
                .map(|(i, _)| i)
                .collect();
            return Err(format!("handshake timed out; missing nodes {missing:?}"));
        }
        let mut stream = match listener.accept() {
            Ok(s) => s,
            Err(e) if is_timeout(&e) => {
                // Nobody is connecting yet: sleep until someone does (or
                // the deadline; the loop head sorts out which).
                let wait = handshake_deadline.saturating_duration_since(Instant::now());
                if let Err(e) = readiness::wait(&mut [PollFd::new(listener.raw_fd(), false)], wait)
                {
                    kill_children(&mut children);
                    return Err(format!("waiting for workers: {e}"));
                }
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                kill_children(&mut children);
                return Err(format!("accept: {e}"));
            }
        };
        let mut fb = FrameBuf::new();
        let hello = match read_frame_blocking(&mut stream, &mut fb, handshake_deadline) {
            Ok(f) => f,
            Err(e) => {
                kill_children(&mut children);
                return Err(format!("worker handshake: {e}"));
            }
        };
        let taken: Vec<bool> = slots.iter().map(|s| s.is_some()).collect();
        match validate_hello(&hello, n as u32, &spec.ext.protocol, &taken) {
            Ok(node) => {
                slots[node as usize] = Some(Slot::new(stream, fb));
                connected += 1;
            }
            Err(reason) => {
                let _ = stream.write_all_bytes(
                    encode_frame(&CtrlFrame::Reject {
                        reason: reason.clone(),
                    })
                    .as_ref(),
                );
                kill_children(&mut children);
                return Err(format!("worker rejected: {reason}"));
            }
        }
    }
    let mut slots: Vec<Slot> = slots
        .into_iter()
        .map(|s| s.expect("all connected"))
        .collect();

    // --- Start: ship each worker its node, as the thread tier runs it
    // (blocking writes; the sockets go nonblocking only for the serve
    // loop). ---
    for (i, slot) in slots.iter_mut().enumerate() {
        let start = CtrlFrame::Start {
            node: Box::new(spec.node(i)),
            cs_log: cs_log.display().to_string(),
        };
        if let Err(e) = slot.stream.write_all_bytes(encode_frame(&start).as_ref()) {
            kill_children(&mut children);
            return Err(format!("start node {i}: {e}"));
        }
        if let Err(e) = slot.stream.set_nonblocking(true) {
            kill_children(&mut children);
            return Err(format!("nonblocking node {i}: {e}"));
        }
    }

    // --- Serve: event loop over all sockets. Each pass does the work
    // that is due, then blocks until a socket is ready or the next piece
    // of timed work (delivery, kill drill, watchdog) comes up. ---
    status.set("serving");
    // The serve loop's waits end on injected delays: run them with exact
    // timers. The workers are spawned already and keep the default slack.
    let exact = ExactTimers::new();
    let t0 = Instant::now();
    let deadline = t0 + spec.timeout;
    let mut q: FaultQueueBytes = crate::transport::netq::FaultQueue::new(&spec.faults, n);
    let mut faults: Vec<(u32, String)> = Vec::new();
    let mut hub = HubStats::default();
    let mut shutdown_sent = false;
    let mut timed_out = false;
    let mut kill_at = spec
        .ext
        .kill_worker
        .map(|(victim, after)| (victim, t0 + after));
    let mut read_buf = vec![0u8; 64 * 1024];
    let mut pollfds: Vec<PollFd> = Vec::with_capacity(n);
    // Frames a worker pipelined behind its `Hello` are already buffered;
    // no readiness event will announce them.
    for (i, slot) in slots.iter_mut().enumerate() {
        slot.process_frames(i, n, &mut q, &mut faults);
    }
    loop {
        let now = Instant::now();
        if now >= deadline {
            timed_out = true;
            break;
        }
        if let Some((victim, _)) = kill_at.filter(|&(_, at)| now >= at) {
            kill_at = None;
            if let Some(child) = children.get_mut(victim as usize) {
                let _ = child.kill();
            }
        }

        // Deliver everything due, one receiver at a time (the payload
        // bytes are routed without protocol knowledge, encoded straight
        // into the output buffer). Each worker's deliveries leave its own
        // heap in `(due, seq)` order, and nothing is flushed before the
        // pass ends, so the order across workers is not observable.
        for (to, slot) in slots.iter_mut().enumerate() {
            while let Some((from, payload)) = q.pop_due(to, now) {
                status.bump();
                // Periodic status only: formatting per frame would put an
                // allocation on the routing hot path.
                if q.late.count % 1024 == 1 {
                    status.set(format!(
                        "serving: in-flight {} (routed {}, wakeups {} io / {} timer)",
                        q.in_flight(),
                        q.late.count,
                        hub.wakeups_readable,
                        hub.wakeups_timer,
                    ));
                }
                slot.queue(&CtrlFrame::Deliver {
                    from: from as u32,
                    payload,
                });
            }
        }

        if !shutdown_sent && slots.iter().all(|s| s.done || s.eof) {
            shutdown_sent = true;
            status.set("shutting down");
            for slot in slots.iter_mut() {
                if !slot.eof {
                    slot.queue(&CtrlFrame::Shutdown);
                }
            }
        }
        if shutdown_sent && slots.iter().all(|s| s.report.is_some() || s.eof) {
            break;
        }

        // Write what is queued; whatever the socket refuses waits for
        // POLLOUT below.
        pollfds.clear();
        for slot in slots.iter_mut() {
            slot.flush();
            pollfds.push(if slot.eof {
                PollFd::ignored()
            } else {
                PollFd::new(slot.stream.raw_fd(), slot.has_output())
            });
        }

        let mut wake = (0..n)
            .filter_map(|to| q.next_due(to))
            .fold(deadline, Instant::min);
        if let Some((_, at)) = kill_at {
            wake = wake.min(at);
        }
        match readiness::wait(&mut pollfds, wake.saturating_duration_since(Instant::now())) {
            Ok(0) => {
                hub.wakeups_timer += 1;
                continue;
            }
            Ok(_) => hub.wakeups_readable += 1,
            Err(e) => {
                kill_children(&mut children);
                let _ = std::fs::remove_file(&cs_log);
                return Err(format!("hub readiness wait: {e}"));
            }
        }

        for (i, (slot, pfd)) in slots.iter_mut().zip(&pollfds).enumerate() {
            // Hang-up and error count as readable, so a dead worker's EOF
            // comes out of the `read` below like any other.
            if !pfd.readable() {
                continue;
            }
            // Drain the socket.
            while !slot.eof {
                match slot.stream.read_chunk(&mut read_buf) {
                    Ok(0) => slot.eof = true,
                    Ok(nread) => {
                        slot.bytes_in += nread as u64;
                        slot.fb.extend(&read_buf[..nread]);
                        if nread < read_buf.len() {
                            break;
                        }
                    }
                    Err(e) if is_timeout(&e) => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => slot.eof = true,
                }
            }
            // Also after EOF: the worker may have written its report and
            // exited before the hub read it.
            slot.process_frames(i, n, &mut q, &mut faults);
        }
    }
    drop(exact);
    for (i, slot) in slots.iter().enumerate() {
        hub.bytes_in += slot.bytes_in;
        hub.bytes_out += slot.bytes_out;
        hub.max_outbuf = hub.max_outbuf.max(slot.max_outbuf as u64);
        if slot.over_cap {
            faults.push((i as u32, OVER_CAP_FAULT.to_string()));
        }
    }

    // --- Teardown. ---
    status.set("collecting");
    kill_children(&mut children);
    drop(listener);
    // A missing log means no worker ever entered the CS (instant crash).
    let (cs_entries, violations, cs_exits) = replay_cs_log(&cs_log).unwrap_or_default();
    let _ = std::fs::remove_file(&cs_log);

    let reports: Vec<Option<WorkerReport>> = slots.iter().map(|s| s.report).collect();
    // Crashed = the socket died before a report arrived. A worker still
    // connected when a timed-out run is torn down is a *stall* victim
    // (it gets killed, but it did not crash) — `timed_out` covers that.
    let crashed: Vec<u32> = slots
        .iter()
        .enumerate()
        .filter(|(_, s)| s.report.is_none() && s.eof)
        .map(|(i, _)| i as u32)
        .collect();
    let report = ClusterReport::fold(
        reports.iter().flatten(),
        (cs_entries, violations),
        &q,
        timed_out,
    );
    Ok(ProcessReport {
        report,
        reports,
        faults,
        crashed,
        cs_exits,
        hub,
    })
}

type FaultQueueBytes = crate::transport::netq::FaultQueue<Bytes>;

/// Runs one worker process's node end-to-end: connect, handshake, drive
/// the protocol over a [`SocketTransport`], report, exit.
///
/// `make_node` builds the protocol instance from the [`NodeSpec`] the hub
/// shipped in `Start`; `anomalies` extracts the protocol-internal anomaly
/// count from the final state for the report (return 0 when the protocol
/// has no such notion).
pub fn run_worker<P, F, A>(
    addr: &str,
    node: u32,
    protocol: &str,
    make_node: F,
    anomalies: A,
) -> Result<(), String>
where
    P: MutexProtocol,
    P::Message: WireCodec + Send,
    F: FnOnce(NodeId, usize, &NodeSpec) -> P,
    A: FnOnce(&P, &NodeSpec) -> u64,
{
    let mut stream = SocketStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .write_all_bytes(encode_frame(&crate::transport::frame::hello(node, protocol)).as_ref())
        .map_err(|e| format!("hello: {e}"))?;
    let mut fb = FrameBuf::new();
    // Generous: the hub may be handshaking n-1 other workers first.
    let deadline = Instant::now() + Duration::from_secs(60);
    let (spec, cs_log) = loop {
        match read_frame_blocking(&mut stream, &mut fb, deadline)? {
            CtrlFrame::Start { node, cs_log } => break (node, cs_log),
            CtrlFrame::Reject { reason } => return Err(format!("rejected: {reason}")),
            CtrlFrame::Shutdown => return Err("shut down before start".into()),
            _ => {} // not for us yet
        }
    };
    if spec.node.raw() != node {
        return Err(format!("hub assigned {}, argv says node {node}", spec.node));
    }
    let probe = CsLogProbe::open(std::path::Path::new(&cs_log))
        .map_err(|e| format!("open cs log {cs_log}: {e}"))?;
    let proto = make_node(spec.node, spec.n, &spec);
    let transport: SocketTransport<P::Message> = SocketTransport::new(spec.node, stream, fb);
    let driver = NodeDriver::new(
        proto,
        transport,
        probe,
        &spec,
        Instant::now(),
        StatusCell::register(format!("rcv-worker-{node}")),
    );
    let (proto, mut transport, mut report) = driver.run();
    report.anomalies = anomalies(&proto, &spec);
    let fatal = transport.fatal_error().map(|e| e.to_string());
    let _ = transport.send_frame(&CtrlFrame::Report(report));
    match fatal {
        Some(e) => Err(format!("wire fault: {e}")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::NetDelay;
    use rcv_baselines::lamport::Lamport;

    /// Drives a full Lamport cluster where the "processes" are threads
    /// calling [`run_worker`] over real sockets — every layer of the
    /// process tier except `fork`/`exec` itself. `addr_prefix` is what
    /// the hub's advertised address must start with.
    fn run_with_thread_workers(spec: &ProcessSpec, addr_prefix: &str) -> ProcessReport {
        run_with(spec, addr_prefix, Lamport::new)
    }

    /// [`run_with_thread_workers`] for any protocol; `spec`'s tag names it.
    fn run_with<P>(
        spec: &ProcessSpec,
        addr_prefix: &str,
        make: fn(NodeId, usize) -> P,
    ) -> ProcessReport
    where
        P: MutexProtocol + 'static,
        P::Message: WireCodec + Send,
    {
        let mut workers = Vec::new();
        let report = run_process_cluster(spec, |addr| {
            assert!(addr.starts_with(addr_prefix), "{addr}");
            for i in 0..spec.n as u32 {
                let addr = addr.to_string();
                let tag = spec.ext.protocol.clone();
                workers.push(std::thread::spawn(move || {
                    run_worker(&addr, i, &tag, |me, n, _cfg| make(me, n), |_, _| 0)
                }));
            }
            Ok(Vec::new())
        })
        .expect("cluster runs");
        for w in workers {
            w.join().expect("worker thread").expect("worker ok");
        }
        report
    }

    #[test]
    fn uds_cluster_of_thread_workers_is_clean() {
        let spec = ProcessSpec::quick(3, 7, "lamport")
            .rounds(2)
            .timeout(Duration::from_secs(20));
        let report = run_with_thread_workers(&spec, "uds:");
        assert!(report.is_clean(6), "{report:?}");
        assert_eq!(report.report.completed, 6);
        assert!(report.report.messages > 0);
        // Late releases may still be queued when the last report lands.
        let (hub, routed) = (report.hub, report.report.late.count);
        assert!(routed > 0 && routed <= report.report.messages);
        assert!(hub.bytes_in > 0 && hub.bytes_out > 0 && hub.max_outbuf > 0);
    }

    /// Every delivery the hub routes is measured for lateness.
    /// Ricart–Agrawala's last exit sends nothing, so in a clean run every
    /// message is delivered before the last `Done`.
    #[test]
    fn the_hub_measures_the_lateness_of_every_delivery() {
        let spec = ProcessSpec::quick(3, 9, "ricart")
            .rounds(2)
            .timeout(Duration::from_secs(20));
        let slack = readiness::timer_slack_ns();
        let pr = run_with(&spec, "uds:", rcv_baselines::RicartAgrawala::new);
        assert_eq!(readiness::timer_slack_ns(), slack, "hub slack restored");
        let r = &pr.report;
        assert!(pr.is_clean(6), "{pr:?}");
        assert_eq!(r.late.count, r.messages - r.lost + r.duplicated, "{r:?}");
        assert!(r.late.max >= r.late.mean(), "{r:?}");
    }

    /// A mostly idle cluster (50 ms of thinking per round) must cost the
    /// hub a number of passes bounded by its traffic, not by its run
    /// time: each routed frame is at most one socket wakeup plus one
    /// timer wakeup, and each node adds a constant (Done, Report, EOF).
    /// A loop that polls on a timer makes hundreds of passes here.
    #[test]
    fn idle_cluster_wakes_the_hub_only_for_traffic() {
        let spec = ProcessSpec::quick(2, 5, "lamport")
            .rounds(3)
            .think(Duration::from_millis(50))
            .delay(NetDelay::None)
            .timeout(Duration::from_secs(20));
        let report = run_with_thread_workers(&spec, "uds:");
        assert!(report.is_clean(6), "{report:?}");
        let (hub, routed) = (report.hub, report.report.late.count);
        assert!(routed > 0, "{hub:?}");
        let passes = hub.wakeups_readable + hub.wakeups_timer;
        assert!(passes <= 2 * routed + 8 * 2, "{hub:?} routed {routed}");
    }

    /// RCV with the chaos cells' retransmission policy.
    fn rcv_retrying(me: NodeId, n: usize) -> rcv_core::RcvNode {
        let policy = rcv_simnet::RetryPolicy::backoff(400, 3_200);
        rcv_core::RcvNode::with_config(me, n, rcv_core::RcvConfig::with_retry(policy))
    }

    /// A socket-tier crash window: node 0 dies inside the opening burst
    /// (ticks 25..120 at 200 µs) and recovers through retransmission. The
    /// hub hands the dead worker its deliveries like any other, and the
    /// worker discards them: each discarded message went through the
    /// queue, so `crash_dropped` is part of `late.count`.
    #[test]
    fn a_crashed_worker_discards_what_the_hub_delivers_and_recovers() {
        use rcv_simnet::SimTime;
        let at = SimTime::from_ticks;
        let spec = ProcessSpec::quick(8, 10, "rcv")
            .tick(Duration::from_micros(200))
            .cs_duration(Duration::from_millis(2))
            .think(Duration::ZERO)
            .delay(NetDelay::Uniform {
                min: Duration::from_millis(1),
                max: Duration::from_millis(1),
            })
            .faults(rcv_simnet::FaultPlan::crash_restart(
                NodeId::new(0),
                at(25),
                at(120),
            ))
            .retry(rcv_simnet::RetryPolicy::backoff(400, 3_200))
            .timeout(Duration::from_secs(60));
        let pr = run_with(&spec, "uds:", rcv_retrying);
        let r = &pr.report;
        assert!(pr.is_clean(8), "{pr:?}");
        assert_eq!(r.restarts, 1, "the crash window must actually fire");
        assert!(
            r.crash_dropped > 0,
            "deliveries reach the dead worker: {r:?}"
        );
        assert!(r.crash_dropped <= r.late.count, "{r:?}");
    }

    /// The thread tier's `crashed_holder_is_evicted_and_resumes_after_restart`
    /// over sockets: one worker enters at ~0 ms to hold for 20 ms, and the
    /// crash window (10..30 ms at a 1 ms tick) kills it mid-hold. The CS
    /// log holds the evicted hold and the resumed, completed one; only the
    /// second ends in an exit, so the run is clean.
    #[test]
    fn a_worker_crashed_holding_the_cs_is_no_finding() {
        use rcv_simnet::SimTime;
        let at = SimTime::from_ticks;
        let spec = ProcessSpec::quick(1, 9, "rcv")
            .tick(Duration::from_millis(1))
            .cs_duration(Duration::from_millis(20))
            .faults(rcv_simnet::FaultPlan::crash_restart(
                NodeId::new(0),
                at(10),
                at(30),
            ))
            .timeout(Duration::from_secs(20));
        let pr = run_with(&spec, "uds:", rcv_core::RcvNode::new);
        let r = &pr.report;
        assert!(pr.is_clean(1), "{pr:?}");
        assert_eq!(r.restarts, 1, "the crash window must actually fire");
        assert_eq!(
            (r.cs_entries, pr.cs_exits),
            (2, 1),
            "one evicted hold plus the resumed, completed one: {pr:?}"
        );
    }

    #[test]
    fn tcp_cluster_of_thread_workers_is_clean() {
        let spec = ProcessSpec::quick(2, 11, "lamport")
            .net(SocketNet::Tcp)
            .timeout(Duration::from_secs(20));
        // The hub must advertise a loopback bind, never a routable one.
        let report = run_with_thread_workers(&spec, "tcp:127.0.0.1:");
        assert!(report.is_clean(2), "{report:?}");
    }

    #[test]
    fn version_mismatch_is_rejected_at_handshake() {
        use crate::transport::frame::{CtrlFrame, HELLO_MAGIC, SCHEMA_VERSION};
        let spec = ProcessSpec::quick(1, 3, "rcv").timeout(Duration::from_secs(10));
        let mut worker = None;
        let err = run_process_cluster(&spec, |addr| {
            let addr = addr.to_string();
            worker = Some(std::thread::spawn(move || {
                let mut s = SocketStream::connect(&addr).expect("connect");
                let bad = CtrlFrame::Hello {
                    magic: HELLO_MAGIC,
                    version: SCHEMA_VERSION + 1,
                    node: 0,
                    protocol: "rcv".into(),
                };
                s.write_all_bytes(encode_frame(&bad).as_ref())
                    .expect("send");
                let mut fb = FrameBuf::new();
                let reply =
                    read_frame_blocking(&mut s, &mut fb, Instant::now() + Duration::from_secs(10))
                        .expect("reply");
                match reply {
                    CtrlFrame::Reject { reason } => reason,
                    other => panic!("expected Reject, got {other:?}"),
                }
            }));
            Ok(Vec::new())
        })
        .expect_err("mismatched worker must fail the run");
        assert!(err.contains("schema version mismatch"), "{err}");
        let reason = worker.unwrap().join().expect("fake worker");
        assert!(reason.contains("schema version mismatch"), "{reason}");
    }

    #[test]
    fn wrong_protocol_tag_is_rejected() {
        use crate::transport::frame::hello;
        let spec = ProcessSpec::quick(1, 3, "rcv").timeout(Duration::from_secs(10));
        let mut worker = None;
        let err = run_process_cluster(&spec, |addr| {
            let addr = addr.to_string();
            worker = Some(std::thread::spawn(move || {
                let mut s = SocketStream::connect(&addr).expect("connect");
                s.write_all_bytes(encode_frame(&hello(0, "maekawa")).as_ref())
                    .expect("send");
            }));
            Ok(Vec::new())
        })
        .expect_err("protocol mismatch must fail the run");
        assert!(err.contains("protocol mismatch"), "{err}");
        worker.unwrap().join().expect("fake worker");
    }
}
