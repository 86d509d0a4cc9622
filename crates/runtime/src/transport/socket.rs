//! The socket fabric's worker side: a blocking stream (Unix-domain or TCP
//! loopback) speaking the control-frame protocol of [`super::frame`].
//!
//! Workers use plain blocking I/O with a read timeout: a worker watches
//! exactly one socket. The hub in `crate::orchestrator` watches N, so it
//! puts them in nonblocking mode and blocks in one `ppoll` readiness wait
//! (`super::readiness`) over all of them, through `SocketStream::raw_fd`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use rcv_simnet::NodeId;

use super::frame::{encode_frame, CtrlFrame, FrameBuf};
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
/// uniform timeout/nonblocking control.
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

    pub(crate) fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            SocketStream::Tcp(s) => s.set_read_timeout(t),
            SocketStream::Unix(s) => s.set_read_timeout(t),
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
            let now = Instant::now();
            let remaining = deadline.saturating_duration_since(now);
            if remaining.is_zero() && self.fb.pending() == 0 {
                return RecvOutcome::Timeout;
            }
            // A zero read timeout means "block forever" to the kernel;
            // clamp to keep the loop honest.
            let wait = remaining.max(Duration::from_micros(100));
            if self.stream.set_read_timeout(Some(wait)).is_err() {
                return RecvOutcome::Shutdown;
            }
            match self.stream.read_chunk(&mut self.read_buf) {
                Ok(0) => return RecvOutcome::Shutdown, // hub gone
                Ok(n) => self.fb.extend(&self.read_buf[..n]),
                Err(e) if is_timeout(&e) => {
                    if Instant::now() >= deadline {
                        return RecvOutcome::Timeout;
                    }
                }
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
