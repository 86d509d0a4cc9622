//! The transport-generic node driver: one protocol state machine driven
//! over any [`Transport`].
//!
//! It owns the node's workload (issue `rounds` CS requests,
//! think between them), materializes protocol intents (outbound messages
//! with node-sampled delays, one-shot timers, CS entry), executes the CS
//! by sleeping while registered with a [`CsProbe`], and serves this
//! node's crash window (freeze, drain, restart) — identically whether the
//! fabric is a crossbeam channel or a socket to the orchestrator.

use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rcv_simnet::{Ctx, MutexProtocol, NodeId, RestartOutcome, SimDuration, SimTime};

use crate::checker::CsProbe;
use crate::cluster::NetDelay;
use crate::spec::ticks;
use crate::transport::frame::WorkerReport;
use crate::transport::{RecvOutcome, Transport};
use crate::watchdog::StatusCell;

/// Workload and timing parameters for one node (fabric-independent).
pub(crate) struct NodeParams {
    rounds: u32,
    think: Duration,
    cs_duration: Duration,
    delay: NetDelay,
    /// Wall-clock length of one simulator tick (timer/clock scale).
    tick: Duration,
    /// Anchor of the node's tick clock and crash window.
    start: Instant,
    /// This node's crash window `(down, up)`, if any.
    crash: Option<(Instant, Instant)>,
}

impl NodeParams {
    /// `crash_ticks` is this node's crash window `(down, up)` in ticks
    /// from `start` ([`crate::Spec::crash_ticks`]).
    pub(crate) fn new(
        rounds: u32,
        think: Duration,
        cs_duration: Duration,
        delay: NetDelay,
        tick: Duration,
        start: Instant,
        crash_ticks: Option<(u64, u64)>,
    ) -> Self {
        NodeParams {
            rounds,
            think,
            cs_duration,
            delay,
            tick,
            start,
            crash: crash_ticks
                .map(|(down, up)| (start + ticks(tick, down), start + ticks(tick, up))),
        }
    }
}

pub(crate) struct NodeDriver<P: MutexProtocol, T, C> {
    me: NodeId,
    proto: P,
    transport: T,
    probe: C,
    rng: SmallRng,
    params: NodeParams,
    /// Armed one-shot timers: `(due, tag)`.
    timers: Vec<(Instant, u64)>,
    /// Whether the crash window has already been served.
    crash_done: bool,
    /// This node's counters (`anomalies` stays 0 here: reading it needs
    /// the protocol's concrete type, which the caller has).
    out: WorkerReport,
    /// Watchdog slot: state transitions are recorded here so a hung run
    /// can be diagnosed from [`crate::watchdog::thread_dump`].
    status: StatusCell,
}

impl<P, T, C> NodeDriver<P, T, C>
where
    P: MutexProtocol,
    T: Transport<P::Message>,
    C: CsProbe,
{
    pub(crate) fn new(
        me: NodeId,
        proto: P,
        transport: T,
        probe: C,
        rng: SmallRng,
        params: NodeParams,
        status: StatusCell,
    ) -> Self {
        NodeDriver {
            me,
            proto,
            transport,
            probe,
            rng,
            params,
            timers: Vec::new(),
            crash_done: false,
            out: WorkerReport {
                node: me.raw(),
                ..WorkerReport::default()
            },
            status,
        }
    }

    fn now(&self) -> SimTime {
        let tick_us = self.params.tick.as_micros().max(1) as u64;
        SimTime::from_ticks(self.params.start.elapsed().as_micros() as u64 / tick_us)
    }

    /// Whether the crash instant has arrived but not yet been served.
    fn crash_pending(&self, now: Instant) -> bool {
        !self.crash_done && self.params.crash.is_some_and(|(down, _)| now >= down)
    }

    /// Dispatches one protocol handler and materializes its intents.
    /// Returns whether the node entered (and **completed**) a CS
    /// execution — a CS aborted by the crash window returns `false`, so
    /// the caller keeps the round open for the post-restart resume.
    fn dispatch(&mut self, f: impl FnOnce(&mut P, &mut Ctx<'_, P::Message>)) -> bool {
        let mut outbox: Vec<(NodeId, P::Message)> = Vec::new();
        let mut enter = false;
        let mut armed: Vec<(SimDuration, u64)> = Vec::new();
        {
            let now = self.now();
            let mut ctx = Ctx::new(
                self.me,
                now,
                &mut self.rng,
                &mut outbox,
                &mut enter,
                &mut armed,
            );
            f(&mut self.proto, &mut ctx);
        }
        for (delay, tag) in armed {
            let ticks = delay.ticks().min(u32::MAX as u64) as u32;
            self.timers
                .push((Instant::now() + self.params.tick.saturating_mul(ticks), tag));
        }
        for (to, msg) in outbox {
            let delay = self.params.delay.sample(&mut self.rng);
            self.out.messages += 1;
            self.status.bump();
            if self.transport.send(to, msg, delay).is_err() {
                return false; // fabric gone: shutting down
            }
        }
        if enter {
            self.execute_cs()
        } else {
            false
        }
    }

    /// Holds the CS for `cs_duration`, then releases through the protocol.
    /// Returns whether the execution *completed*: if the crash instant
    /// falls inside the hold, the node dies mid-CS — it is evicted from
    /// the probe (a dead process is not inside the critical section), the
    /// release handler is NOT run, and the execution does not count.
    fn execute_cs(&mut self) -> bool {
        self.status.set("in CS");
        self.probe.enter(self.me);
        let end = Instant::now() + self.params.cs_duration;
        loop {
            let now = Instant::now();
            if self.crash_pending(now) {
                self.probe.evict(self.me);
                self.status.set("crashed holding the CS");
                return false;
            }
            if now >= end {
                break;
            }
            let mut nap = end - now;
            if let Some((down, _)) = self.params.crash.filter(|_| !self.crash_done) {
                if down > now {
                    nap = nap.min(down - now);
                }
            }
            std::thread::sleep(nap);
        }
        self.probe.exit(self.me);
        self.out.completed += 1;
        // The release handler may send messages but never re-enters.
        let entered_again = self.dispatch(|p, ctx| p.on_cs_released(ctx));
        debug_assert!(!entered_again, "release must not re-enter the CS");
        true
    }

    /// Serves the crash window once its instant has passed: discards the
    /// dead process's inbox and timers, freezes until the window ends,
    /// then re-runs the protocol's restart hook and reconciles the round
    /// bookkeeping with its [`RestartOutcome`]. Returns `true` if a
    /// shutdown arrived while down (the run loop must exit).
    fn serve_crash_window(
        &mut self,
        waiting_grant: &mut bool,
        remaining: &mut u32,
        next_request: &mut Option<Instant>,
    ) -> bool {
        let (_, up) = self.params.crash.expect("only called with a window");
        self.crash_done = true;
        self.timers.clear();
        self.status.set("crashed (down)");
        // Already-delivered but unprocessed packets died with the process.
        loop {
            match self.transport.recv(Duration::ZERO) {
                RecvOutcome::Msg { .. } => self.out.crash_dropped += 1,
                RecvOutcome::Shutdown => return true,
                RecvOutcome::Timeout => break,
            }
        }
        // Down: swallow anything that trickles in until the window ends.
        loop {
            let now = Instant::now();
            if now >= up {
                break;
            }
            match self.transport.recv(up - now) {
                RecvOutcome::Msg { .. } => self.out.crash_dropped += 1,
                RecvOutcome::Shutdown => return true,
                RecvOutcome::Timeout => {}
            }
        }
        // Restart. The hook may enter the CS synchronously (single-node
        // resume), in which case the round completes right here.
        self.out.restarts += 1;
        self.status.set("restarting");
        let mut outcome = RestartOutcome::KeptState;
        let entered = self.dispatch(|p, ctx| outcome = p.on_restart(ctx));
        match outcome {
            // No recovery story: the protocol kept its pre-crash state and
            // simply resumes processing (its in-window messages are gone).
            RestartOutcome::KeptState => {}
            // The protocol came back empty-handed: if a request was
            // interrupted, this harness re-issues it as a fresh round so
            // the expected completion count still holds.
            RestartOutcome::RejoinedIdle => {
                if *waiting_grant {
                    *waiting_grant = false;
                    *remaining += 1;
                    *next_request = Some(Instant::now());
                }
            }
            // The protocol re-adopted the interrupted request internally —
            // the open round stays open and completes when the resumed
            // campaign is granted (unless it already entered just now).
            RestartOutcome::ResumedRequest => {
                if entered {
                    *waiting_grant = false;
                }
            }
        }
        false
    }

    /// Drives the node to cluster shutdown; returns the final protocol
    /// state, the transport (so callers can speak after-run control
    /// traffic on it) and the node's counters.
    pub(crate) fn run(mut self) -> (P, T, WorkerReport) {
        let mut remaining = self.params.rounds;
        let mut waiting_grant = false;
        let mut next_request: Option<Instant> = (remaining > 0).then(Instant::now);
        let mut announced_done = remaining == 0;
        if announced_done {
            self.transport.notify_done();
        }

        loop {
            // Serve the crash window first: a dead process issues nothing.
            if self.crash_pending(Instant::now())
                && self.serve_crash_window(&mut waiting_grant, &mut remaining, &mut next_request)
            {
                return (self.proto, self.transport, self.out);
            }

            // Issue the next request when due and not already outstanding.
            if let Some(at) = next_request {
                if !waiting_grant && Instant::now() >= at {
                    next_request = None;
                    remaining -= 1;
                    waiting_grant = true;
                    self.status
                        .set(format!("requesting (rounds left {remaining})"));
                    if self.dispatch(|p, ctx| p.on_request(ctx)) {
                        waiting_grant = false; // entered synchronously
                    }
                }
            }
            if !waiting_grant && next_request.is_none() {
                if remaining > 0 {
                    next_request = Some(Instant::now() + self.params.think);
                } else if !announced_done {
                    announced_done = true;
                    self.status.set("done (serving peers)");
                    self.transport.notify_done();
                }
            }

            // Fire due timers before blocking.
            let now = Instant::now();
            let due: Vec<u64> = {
                let (fire, keep): (Vec<_>, Vec<_>) =
                    self.timers.drain(..).partition(|&(at, _)| at <= now);
                self.timers = keep;
                fire.into_iter().map(|(_, tag)| tag).collect()
            };
            for tag in due {
                if self.dispatch(|p, ctx| p.on_timer(tag, ctx)) {
                    waiting_grant = false;
                }
            }

            let next_timer = self.timers.iter().map(|&(at, _)| at).min();
            let next_crash = self
                .params
                .crash
                .filter(|_| !self.crash_done)
                .map(|(down, _)| down);
            let timeout = [next_request, next_timer, next_crash]
                .into_iter()
                .flatten()
                .min()
                .map(|at| at.saturating_duration_since(Instant::now()))
                .unwrap_or(Duration::from_millis(20))
                .max(Duration::from_micros(50));
            match self.transport.recv(timeout) {
                RecvOutcome::Msg { from, msg } => {
                    if self.dispatch(|p, ctx| p.on_message(from, msg, ctx)) {
                        waiting_grant = false; // CS executed to completion
                    }
                }
                RecvOutcome::Shutdown => return (self.proto, self.transport, self.out),
                RecvOutcome::Timeout => {}
            }
        }
    }
}
