//! The socket fabric's worker side: a blocking stream (Unix-domain or TCP
//! loopback) speaking the control-frame protocol of [`super::frame`].
//!
//! Every wait on a socket, on either side, is one `ppoll` readiness wait
//! (`super::readiness`): a worker waits on its one descriptor
//! (`SocketStream::read_within`) and then reads it with plain blocking
//! I/O; the hub in `crate::orchestrator` watches N, so it puts them in
//! nonblocking mode and waits on all of them at once, through
//! `SocketStream::raw_fd`. `ppoll` times out on the high-resolution clock
//! and a zero timeout is a poll — the socket's own read timeout is rounded
//! up to the scheduler tick and cannot say "do not wait".

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use rcv_simnet::NodeId;

use super::frame::{encode_frame, CtrlFrame, FrameBuf};
use super::readiness::{self, PollFd};
use super::{RecvOutcome, Transport, TransportClosed};
use crate::wire::{WireCodec, WireError};

/// Which socket family the cluster runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SocketNet {
    /// Unix-domain sockets under the temp dir (default: no ports, no
    /// firewalls, fastest localhost path).
    #[default]
    Uds,
    /// TCP on 127.0.0.1 (exercises the real TCP stack; the deployment
    /// shape).
    Tcp,
}

impl SocketNet {
    /// Lowercase label for CLI flags and report rows.
    pub fn name(&self) -> &'static str {
        match self {
            SocketNet::Uds => "uds",
            SocketNet::Tcp => "tcp",
        }
    }
}

/// A connected stream of either family. All I/O the fabric needs, with
/// uniform waiting and nonblocking control.
pub(crate) enum SocketStream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl SocketStream {
    /// Connects to an orchestrator address string (`"uds:<path>"` or
    /// `"tcp:<ip>:<port>"`).
    pub(crate) fn connect(addr: &str) -> std::io::Result<SocketStream> {
        if let Some(path) = addr.strip_prefix("uds:") {
            Ok(SocketStream::Unix(UnixStream::connect(path)?))
        } else if let Some(hostport) = addr.strip_prefix("tcp:") {
            let s = TcpStream::connect(hostport)?;
            s.set_nodelay(true)?;
            Ok(SocketStream::Tcp(s))
        } else {
            Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("unrecognized cluster address {addr:?} (want uds:/tcp:)"),
            ))
        }
    }

    pub(crate) fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            SocketStream::Tcp(s) => s.set_nonblocking(nb),
            SocketStream::Unix(s) => s.set_nonblocking(nb),
        }
    }

    /// The descriptor, for the hub's readiness wait.
    pub(crate) fn raw_fd(&self) -> RawFd {
        match self {
            SocketStream::Tcp(s) => s.as_raw_fd(),
            SocketStream::Unix(s) => s.as_raw_fd(),
        }
    }

    pub(crate) fn read_chunk(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            SocketStream::Tcp(s) => s.read(buf),
            SocketStream::Unix(s) => s.read(buf),
        }
    }

    /// Waits up to `timeout` for the socket to have something to read —
    /// data, EOF or an error — and reads it; `None` if nothing came (the
    /// wait ran out, or a signal cut it short: the caller owns the
    /// deadline). A zero `timeout` does not block.
    pub(crate) fn read_within(
        &mut self,
        buf: &mut [u8],
        timeout: Duration,
    ) -> std::io::Result<Option<usize>> {
        if readiness::wait(&mut [PollFd::new(self.raw_fd(), false)], timeout)? == 0 {
            return Ok(None);
        }
        self.read_chunk(buf).map(Some)
    }

    pub(crate) fn write_all_bytes(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        match self {
            SocketStream::Tcp(s) => s.write_all(bytes),
            SocketStream::Unix(s) => s.write_all(bytes),
        }
    }

    pub(crate) fn write_some(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        match self {
            SocketStream::Tcp(s) => s.write(bytes),
            SocketStream::Unix(s) => s.write(bytes),
        }
    }
}

pub(crate) fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// The socket-backed [`Transport`]: one worker's connection to the hub.
/// Protocol messages cross as [`WireCodec`] bytes inside `Send`/`Deliver`
/// frames; the codec runs on **every** hop by construction (there is no
/// other way through a socket).
pub struct SocketTransport<M> {
    me: NodeId,
    stream: SocketStream,
    fb: FrameBuf,
    read_buf: Vec<u8>,
    /// First fatal wire/frame error, kept for the worker's Fault report.
    fatal: Option<WireError>,
    _marker: std::marker::PhantomData<fn() -> M>,
}

impl<M: WireCodec> SocketTransport<M> {
    pub(crate) fn new(me: NodeId, stream: SocketStream, fb: FrameBuf) -> Self {
        SocketTransport {
            me,
            stream,
            fb,
            read_buf: vec![0u8; 64 * 1024],
            fatal: None,
            _marker: std::marker::PhantomData,
        }
    }

    /// The first fatal decode error this transport hit, if any.
    pub fn fatal_error(&self) -> Option<&WireError> {
        self.fatal.as_ref()
    }

    /// Sends a raw control frame (worker bookkeeping: Done, Report,
    /// Fault).
    pub(crate) fn send_frame(&mut self, frame: &CtrlFrame) -> Result<(), TransportClosed> {
        self.stream
            .write_all_bytes(encode_frame(frame).as_ref())
            .map_err(|_| TransportClosed)
    }

    /// Records a fatal wire error, tells the hub, and shuts the node down.
    fn fail(&mut self, err: WireError) -> RecvOutcome<M> {
        let _ = self.send_frame(&CtrlFrame::Fault {
            node: self.me.raw(),
            detail: err.to_string(),
        });
        if self.fatal.is_none() {
            self.fatal = Some(err);
        }
        RecvOutcome::Shutdown
    }
}

impl<M: WireCodec + Send> Transport<M> for SocketTransport<M> {
    fn send(&mut self, to: NodeId, msg: M, delay: Duration) -> Result<(), TransportClosed> {
        let frame = CtrlFrame::Send {
            to: to.raw(),
            delay_us: delay.as_micros() as u64,
            payload: msg.encode_wire(),
        };
        self.send_frame(&frame)
    }

    fn recv(&mut self, timeout: Duration) -> RecvOutcome<M> {
        let deadline = Instant::now() + timeout;
        loop {
            // Drain already-buffered frames before touching the socket.
            match self.fb.next_frame() {
                Ok(Some(CtrlFrame::Deliver { from, payload })) => {
                    return match M::decode_wire(payload) {
                        Ok(msg) => RecvOutcome::Msg {
                            from: NodeId::new(from),
                            msg,
                        },
                        Err(e) => self.fail(e),
                    };
                }
                Ok(Some(CtrlFrame::Shutdown)) => return RecvOutcome::Shutdown,
                Ok(Some(CtrlFrame::Reject { .. })) => return RecvOutcome::Shutdown,
                // Any other frame is hub-bound only; arriving here means a
                // confused hub. Ignore rather than wedge the node.
                Ok(Some(_)) => continue,
                Ok(None) => {}
                Err(e) => return self.fail(e),
            }
            // No complete frame is buffered (half of one may be): wait
            // for the socket, never past the deadline.
            let left = deadline.saturating_duration_since(Instant::now());
            match self.stream.read_within(&mut self.read_buf, left) {
                Ok(None) if Instant::now() >= deadline => return RecvOutcome::Timeout,
                Ok(None) => {}
                Ok(Some(0)) => return RecvOutcome::Shutdown, // hub gone
                Ok(Some(n)) => self.fb.extend(&self.read_buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return RecvOutcome::Shutdown,
            }
        }
    }

    fn notify_done(&mut self) {
        let _ = self.send_frame(&CtrlFrame::Done {
            node: self.me.raw(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcv_baselines::RaMessage;

    fn pair() -> (SocketTransport<RaMessage>, UnixStream) {
        let (a, b) = UnixStream::pair().expect("socketpair");
        let t = SocketTransport::new(NodeId::new(0), SocketStream::Unix(a), FrameBuf::new());
        (t, b)
    }

    /// `NodeDriver::serve_crash_window` drains "what already arrived" with
    /// `recv(ZERO)`: half a frame in the buffer is not an arrival, and not
    /// a reason to wait for the other half.
    #[test]
    fn a_zero_timeout_polls_even_with_half_a_frame_buffered() {
        let (mut t, mut hub) = pair();
        let frame = encode_frame(&CtrlFrame::Deliver {
            from: 1,
            payload: RaMessage::Request { ts: 9 }.encode_wire(),
        });
        let (head, tail) = frame.as_ref().split_at(frame.len() / 2);
        hub.write_all(head).expect("write");
        // The first poll moves the half frame off the socket.
        assert!(matches!(t.recv(Duration::ZERO), RecvOutcome::Timeout));
        assert_eq!(t.fb.pending(), head.len());
        // Nothing more is coming: each further poll must cost a system
        // call, not a timer (best of 20, for a loaded machine).
        let best = (0..20)
            .map(|_| {
                let t0 = Instant::now();
                assert!(matches!(t.recv(Duration::ZERO), RecvOutcome::Timeout));
                t0.elapsed()
            })
            .min()
            .expect("tries");
        assert!(best < Duration::from_micros(500), "blocked for {best:?}");
        hub.write_all(tail).expect("write");
        match t.recv(Duration::ZERO) {
            RecvOutcome::Msg { from, msg } => {
                assert_eq!((from, msg), (NodeId::new(1), RaMessage::Request { ts: 9 }))
            }
            other => panic!("expected the completed frame, got {other:?}"),
        }
    }

    /// A socket read timeout would round 200 µs up to the scheduler tick
    /// (4 ms at HZ=250); `ppoll` does not. A loaded machine overshoots any
    /// timer, hence the median and the loose upper bound.
    #[test]
    fn honours_a_sub_millisecond_timeout() {
        let (mut t, _hub) = pair();
        let timeout = Duration::from_micros(200);
        let mut waits: Vec<Duration> = (0..21)
            .map(|_| {
                let t0 = Instant::now();
                assert!(matches!(t.recv(timeout), RecvOutcome::Timeout));
                t0.elapsed()
            })
            .collect();
        waits.sort();
        assert!(waits[0] >= timeout, "returned early: {waits:?}");
        assert!(
            waits[10] < Duration::from_millis(2),
            "rounded up: {waits:?}"
        );
    }

    #[test]
    fn a_hub_that_hangs_up_is_a_shutdown_not_a_timeout() {
        let (mut t, hub) = pair();
        drop(hub);
        assert!(matches!(
            t.recv(Duration::from_secs(5)),
            RecvOutcome::Shutdown
        ));
    }
}
