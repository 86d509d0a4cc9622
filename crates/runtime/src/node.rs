//! The transport-generic node driver: one protocol state machine driven
//! over any [`Transport`].
//!
//! A driver is built from the node's [`NodeSpec`] and the instant its
//! tick clock starts — on the thread tier from [`crate::Spec::node`]
//! itself, on the socket tier from the copy the hub ships in `Start`. It
//! owns the node's workload (issue `rounds` CS requests, think between
//! them), materializes protocol intents (outbound messages with
//! node-sampled delays, one-shot timers, CS entry), executes the CS by
//! sleeping while registered with a [`CsProbe`], and serves this node's
//! crash window (freeze, discard, restart) — identically whether the
//! fabric is the thread tier's shared delay queue or a socket to the
//! orchestrator. The fabric delivers to a crashed node as to any other;
//! the driver discards those deliveries, on both real tiers.

use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rcv_simnet::{Ctx, MutexProtocol, NodeId, SimDuration, SimTime};

use crate::checker::CsProbe;
use crate::spec::{ticks, NodeSpec};
use crate::transport::frame::WorkerReport;
use crate::transport::{RecvOutcome, Transport};
use crate::watchdog::StatusCell;

pub(crate) struct NodeDriver<P: MutexProtocol, T, C> {
    proto: P,
    transport: T,
    probe: C,
    rng: SmallRng,
    spec: NodeSpec,
    /// Anchor of the node's tick clock and crash window.
    start: Instant,
    /// This node's crash window `(down, up)`, until it has been served.
    crash: Option<(Instant, Instant)>,
    /// Armed one-shot timers: `(due, tag)`.
    timers: Vec<(Instant, u64)>,
    /// Scratch for one handler's sends and timer requests, drained before
    /// [`Self::dispatch`] goes on — so its one recursion (CS release) finds
    /// them empty and a steady-state dispatch allocates nothing.
    outbox: Vec<(NodeId, P::Message)>,
    armed: Vec<(SimDuration, u64)>,
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
    /// A driver for the node `spec` describes, its clock started at
    /// `start`.
    pub(crate) fn new(
        proto: P,
        transport: T,
        probe: C,
        spec: &NodeSpec,
        start: Instant,
        status: StatusCell,
    ) -> Self {
        NodeDriver {
            proto,
            transport,
            probe,
            rng: SmallRng::seed_from_u64(spec.seed),
            crash: spec
                .crash
                .map(|(down, up)| (start + ticks(spec.tick, down), start + ticks(spec.tick, up))),
            spec: *spec,
            start,
            timers: Vec::new(),
            outbox: Vec::new(),
            armed: Vec::new(),
            out: WorkerReport {
                node: spec.node.raw(),
                ..WorkerReport::default()
            },
            status,
        }
    }

    fn now(&self) -> SimTime {
        SimTime::from_ticks((self.start.elapsed().as_nanos() / self.spec.tick.as_nanos()) as u64)
    }

    /// Whether the crash instant has arrived but not yet been served.
    fn crash_pending(&self, now: Instant) -> bool {
        self.crash.is_some_and(|(down, _)| now >= down)
    }

    /// Dispatches one protocol handler and materializes its intents.
    /// Returns whether the node entered (and **completed**) a CS
    /// execution — a CS aborted by the crash window returns `false`, so
    /// the caller keeps the round open for the post-restart resume.
    fn dispatch(&mut self, f: impl FnOnce(&mut P, &mut Ctx<'_, P::Message>)) -> bool {
        debug_assert!(
            self.outbox.is_empty() && self.armed.is_empty(),
            "dispatch re-entered with undrained scratch buffers"
        );
        let mut enter = false;
        {
            let mut ctx = Ctx::new(
                self.spec.node,
                self.now(),
                &mut self.rng,
                &mut self.outbox,
                &mut enter,
                &mut self.armed,
            );
            f(&mut self.proto, &mut ctx);
        }
        for (delay, tag) in self.armed.drain(..) {
            let ticks = delay.ticks().min(u32::MAX as u64) as u32;
            self.timers
                .push((Instant::now() + self.spec.tick.saturating_mul(ticks), tag));
        }
        for (to, msg) in self.outbox.drain(..) {
            let delay = self.spec.delay.sample(&mut self.rng);
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
        self.probe.enter(self.spec.node, self.now());
        let end = Instant::now() + self.spec.cs_duration;
        loop {
            let now = Instant::now();
            if self.crash_pending(now) {
                self.probe.evict(self.spec.node);
                self.status.set("crashed holding the CS");
                return false;
            }
            if now >= end {
                break;
            }
            let mut nap = end - now;
            if let Some((down, _)) = self.crash {
                if down > now {
                    nap = nap.min(down - now);
                }
            }
            std::thread::sleep(nap);
        }
        self.probe.exit(self.spec.node, self.now());
        self.out.completed += 1;
        // The release handler may send messages but never re-enters.
        let entered_again = self.dispatch(|p, ctx| p.on_cs_released(ctx));
        debug_assert!(!entered_again, "release must not re-enter the CS");
        true
    }

    /// Serves the crash window once its instant has passed: drops the
    /// dead process's timers and discards every delivery that reaches it
    /// until the window ends — the one place a real tier drops a message
    /// sent to a crashed node — then runs the protocol's restart hook.
    /// Returns `true` if a shutdown arrived while down (the run loop must
    /// exit).
    fn serve_crash_window(&mut self, waiting_grant: &mut bool) -> bool {
        let (_, up) = self.crash.take().expect("only called with a window");
        self.timers.clear();
        self.status.set("crashed (down)");
        // Down: what reaches the process until the window ends dies with
        // it, the deliveries already due but not yet handled included. A
        // `recv` times out only once its timeout has passed, so `Timeout`
        // means the window is over (or was when it was served).
        loop {
            let left = up.saturating_duration_since(Instant::now());
            match self.transport.recv(left) {
                RecvOutcome::Msg { .. } => self.out.crash_dropped += 1,
                RecvOutcome::Shutdown => return true,
                RecvOutcome::Timeout => break,
            }
        }
        // Restart. A protocol that kept its state resumes as if frozen;
        // one that rejoined has resumed any interrupted request itself, so
        // the open round stays open until that request is granted — right
        // here, if the hook enters the CS (a single-node resume).
        self.out.restarts += 1;
        self.status.set("restarting");
        if self.dispatch(|p, ctx| {
            p.on_restart(ctx);
        }) {
            *waiting_grant = false;
        }
        false
    }

    /// Drives the node to cluster shutdown; returns the final protocol
    /// state, the transport (so callers can speak after-run control
    /// traffic on it) and the node's counters.
    ///
    /// Each pass acts on whatever is due — the crash window, the next
    /// request, armed timers — and starts over; only when nothing is does
    /// it block in [`Transport::recv`], for exactly as long as the earliest
    /// of the three is away. A node that keeps entering without a message
    /// (`think` 0 and nobody to ask) therefore reads its inbox only once
    /// its rounds are spent.
    pub(crate) fn run(mut self) -> (P, T, WorkerReport) {
        let mut remaining = self.spec.rounds;
        let mut waiting_grant = false;
        // Set only while no request is outstanding (`!waiting_grant`).
        let mut next_request: Option<Instant> = (remaining > 0).then(Instant::now);
        let mut announced_done = remaining == 0;
        if announced_done {
            self.transport.notify_done();
        }

        loop {
            let now = Instant::now();
            // Serve the crash window first: a dead process issues nothing.
            if self.crash_pending(now) {
                if self.serve_crash_window(&mut waiting_grant) {
                    return (self.proto, self.transport, self.out);
                }
                continue;
            }

            // The previous round is over: schedule the next, or say so.
            if !waiting_grant && next_request.is_none() {
                if remaining > 0 {
                    next_request = Some(now + self.spec.think);
                } else if !announced_done {
                    announced_done = true;
                    self.status.set("done (serving peers)");
                    self.transport.notify_done();
                }
            }

            if next_request.is_some_and(|at| at <= now) {
                next_request = None;
                remaining -= 1;
                waiting_grant = true;
                self.status
                    .set(format!("requesting (rounds left {remaining})"));
                if self.dispatch(|p, ctx| p.on_request(ctx)) {
                    waiting_grant = false; // entered synchronously
                }
                continue;
            }

            if let Some(i) = self.timers.iter().position(|&(at, _)| at <= now) {
                let (_, tag) = self.timers.remove(i);
                if self.dispatch(|p, ctx| p.on_timer(tag, ctx)) {
                    waiting_grant = false;
                }
                continue;
            }

            // Nothing is due at `now`: wait for a message until something is.
            let next_timer = self.timers.iter().map(|&(at, _)| at).min();
            let next_crash = self.crash.map(|(down, _)| down);
            let timeout = [next_request, next_timer, next_crash]
                .into_iter()
                .flatten()
                .min()
                .map(|at| at.saturating_duration_since(now))
                .unwrap_or(Duration::from_millis(20));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::NetDelay;
    use crate::transport::TransportClosed;
    use rcv_simnet::ProtocolMessage;
    use std::sync::{Arc, Mutex};

    /// What the driver did, in order, as seen from its three collaborators.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Ev {
        Request,
        Timer,
        Recv(Duration),
        CsDone,
        Done,
    }

    #[derive(Clone, Default)]
    struct Log(Arc<Mutex<Vec<Ev>>>);

    impl Log {
        fn push(&self, ev: Ev) {
            self.0.lock().expect("log").push(ev);
        }
        fn events(&self) -> Vec<Ev> {
            self.0.lock().expect("log").clone()
        }
    }

    #[derive(Clone, Debug)]
    struct Grant;
    impl ProtocolMessage for Grant {
        fn kind(&self) -> &'static str {
            "GRANT"
        }
    }

    /// Asks its one peer on every request (arming a timer first if told
    /// to) and enters on the answer.
    struct Asker {
        log: Log,
        timer: Option<SimDuration>,
    }

    impl MutexProtocol for Asker {
        type Message = Grant;
        fn name(&self) -> &'static str {
            "asker"
        }
        fn on_request(&mut self, ctx: &mut Ctx<'_, Grant>) {
            self.log.push(Ev::Request);
            if let Some(delay) = self.timer {
                ctx.set_timer(delay, 7);
            }
            ctx.send(NodeId::new(1), Grant);
        }
        fn on_message(&mut self, _from: NodeId, _msg: Grant, ctx: &mut Ctx<'_, Grant>) {
            ctx.enter_cs();
        }
        fn on_cs_released(&mut self, _ctx: &mut Ctx<'_, Grant>) {}
        fn on_timer(&mut self, tag: u64, _ctx: &mut Ctx<'_, Grant>) {
            assert_eq!(tag, 7);
            self.log.push(Ev::Timer);
        }
    }

    /// The peer and the fabric in one: records every `recv(timeout)`,
    /// answers each request (after its timer has fired, if it arms one),
    /// sleeps out the timeout when it has nothing to deliver, and shuts
    /// the node down once it is done or `grants` have been handed out.
    struct Script {
        log: Log,
        owed: u32,
        grants: u32,
        hold_for_timer: bool,
    }

    impl Transport<Grant> for Script {
        fn send(
            &mut self,
            to: NodeId,
            _msg: Grant,
            _delay: Duration,
        ) -> Result<(), TransportClosed> {
            assert_eq!(to, NodeId::new(1));
            self.owed += 1;
            Ok(())
        }
        fn recv(&mut self, timeout: Duration) -> RecvOutcome<Grant> {
            let seen = self.log.events();
            self.log.push(Ev::Recv(timeout));
            if self.grants == 0 || seen.last() == Some(&Ev::Done) {
                return RecvOutcome::Shutdown;
            }
            let timer_fired = seen
                .iter()
                .rev()
                .take_while(|&&e| e != Ev::Request)
                .any(|&e| e == Ev::Timer);
            if self.owed > 0 && (timer_fired || !self.hold_for_timer) {
                self.owed -= 1;
                self.grants -= 1;
                return RecvOutcome::Msg {
                    from: NodeId::new(1),
                    msg: Grant,
                };
            }
            std::thread::sleep(timeout);
            RecvOutcome::Timeout
        }
        fn notify_done(&mut self) {
            self.log.push(Ev::Done);
        }
    }

    impl CsProbe for Log {
        fn enter(&self, _node: NodeId, _now: SimTime) {}
        fn exit(&self, _node: NodeId, _now: SimTime) {
            self.push(Ev::CsDone);
        }
        fn evict(&self, _node: NodeId) {
            unreachable!("no crash window in these runs");
        }
    }

    /// Runs `rounds` rounds of an `Asker` over a `Script`; returns what
    /// happened and how many CS executions the driver counted.
    fn drive(
        rounds: u32,
        think: Duration,
        timer: Option<SimDuration>,
        grants: u32,
    ) -> (Vec<Ev>, u64) {
        let log = Log::default();
        let spec = crate::RunSpec::quick(2, 1)
            .rounds(rounds)
            .think(think)
            .cs_duration(Duration::ZERO)
            .delay(NetDelay::None)
            .node(0);
        let driver = NodeDriver::new(
            Asker {
                log: log.clone(),
                timer,
            },
            Script {
                log: log.clone(),
                owed: 0,
                grants,
                hold_for_timer: timer.is_some(),
            },
            log.clone(),
            &spec,
            Instant::now(),
            StatusCell::register("node-test"),
        );
        let (_, _, report) = driver.run();
        (log.events(), report.completed)
    }

    /// `Recv(_)` with the timeout blanked, for comparing event orders.
    fn shape(events: &[Ev]) -> Vec<Ev> {
        events
            .iter()
            .map(|&e| match e {
                Ev::Recv(_) => Ev::Recv(Duration::ZERO),
                e => e,
            })
            .collect()
    }

    #[test]
    fn zero_think_issues_the_next_request_without_a_recv() {
        let (events, completed) = drive(3, Duration::ZERO, None, u32::MAX);
        assert_eq!(completed, 3);
        let r = Ev::Recv(Duration::ZERO);
        let round = [Ev::Request, r, Ev::CsDone];
        let mut want = round.repeat(3);
        // Only then does the node wait again — and is told to stop.
        want.extend([Ev::Done, r]);
        assert_eq!(shape(&events), want, "{events:?}");
    }

    #[test]
    fn waits_never_outlast_the_next_request_or_timer() {
        let think = Duration::from_millis(2);
        let timer = Duration::from_micros(500);
        let (events, completed) = drive(
            3,
            think,
            Some(SimDuration::from_ticks(timer.as_micros() as u64)),
            u32::MAX,
        );
        assert_eq!(completed, 3);
        // What the node is waiting on when it calls `recv`: its armed
        // timer after a request, the next request after a CS, and nothing
        // once the timer has fired (the grant then arrives) or it is done.
        let mut bound = None;
        let mut waits = 0;
        for &e in &events {
            match e {
                Ev::Request => bound = Some(timer),
                Ev::CsDone => bound = Some(think),
                Ev::Timer | Ev::Done => bound = None,
                Ev::Recv(t) => {
                    if let Some(b) = bound {
                        assert!(t <= b, "waited {t:?} with {b:?} to go: {events:?}");
                        waits += 1;
                        // Time only runs: the same wake-up is nearer now.
                        bound = Some(t);
                    }
                }
            }
        }
        assert!(
            waits >= 5,
            "every timer and every think is waited for: {events:?}"
        );
        assert_eq!(
            events.iter().filter(|&&e| e == Ev::Timer).count(),
            3,
            "{events:?}"
        );
    }

    #[test]
    fn shutdown_ends_the_run_mid_workload() {
        let (events, completed) = drive(5, Duration::ZERO, None, 2);
        assert_eq!(completed, 2);
        assert_eq!(
            events.iter().filter(|&&e| e == Ev::Request).count(),
            3,
            "the third request was out when the fabric closed: {events:?}"
        );
        assert!(!events.contains(&Ev::Done), "{events:?}");
    }
}
