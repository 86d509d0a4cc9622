//! `Probe<P>`: a `MutexProtocol` wrapper that measures a node from outside.
//!
//! Every handler call is delegated to the inner node. The *light* probe
//! (end-to-end runs on the real tiers) adds two clock reads per CS and a
//! `wire_size()` sum per delivered message. The *full* probe (traced run)
//! also times every handler, counts what the handler sent by reading its
//! intents through a private `Ctx`, drains the `rcv_simnet::profile` phase
//! accumulators and the counting allocator on the handler's own thread,
//! keeps a span per CS and per handler call, and samples delivered
//! messages as wire bytes for the codec micro-measurements.
//!
//! The acquire clock stops at `on_cs_released`, not `on_cs_granted`: the
//! runtime's `NodeDriver` never calls `on_cs_granted` (CS entry is only an
//! `enter_cs` intent inside a `Ctx` with no getter), so a probe keyed on it
//! records nothing on the real tiers. The real-tier workloads hold the CS
//! for zero time, which makes the two instants the same.

use std::time::Instant;

use bytes::Bytes;
use rcv_simnet::profile::{self, PhaseCost, PROBE_PHASES};
use rcv_simnet::{Ctx, MutexProtocol, NodeId, ProtocolMessage, RestartOutcome, SimDuration};

use crate::hist::Hist;

/// Handler names, indexed like [`TraceRecord::handler`].
pub const HANDLERS: [&str; 3] = ["on_message", "on_request", "on_release"];
pub const ON_MESSAGE: usize = 0;
pub const ON_REQUEST: usize = 1;
pub const ON_RELEASE: usize = 2;

/// One recorded interval, in nanoseconds since the pass's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    /// Which simulation run of the pass (set when records are merged; a
    /// real-tier pass is a single run).
    pub run: u32,
    pub node: u32,
    /// `None` for a `cs` span (request → release), else the handler index.
    pub handler: Option<usize>,
    /// For a `cs` span its own sequence number; for a handler span the
    /// sequence number of the node's open `cs` span (`None` while the node
    /// only relays other nodes' requests).
    pub cs_seq: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What the full probe adds to a [`NodeRecord`]; records of several
/// nodes and runs merge into one.
#[derive(Clone, Default)]
pub struct TraceRecord {
    /// `(calls, self nanoseconds)` per handler.
    pub handler: [(u64, u64); 3],
    /// `(message class, messages sent, wire_size() bytes sent)`.
    pub sent: Vec<(&'static str, u64, u64)>,
    /// Phase costs stamped by rcv-core / the engine on this node's thread.
    pub phases: [PhaseCost; PROBE_PHASES],
    /// Heap bytes requested on this node's thread outside the probe itself.
    pub alloc_bytes: u64,
    pub spans: Vec<Span>,
    /// Every `stride`-th delivered message, wire-encoded.
    pub captured: Vec<Bytes>,
}

impl TraceRecord {
    /// Adds `other`, the record of a node of simulation run `run`.
    pub fn merge(&mut self, run: u32, other: TraceRecord) {
        for (acc, h) in self.handler.iter_mut().zip(other.handler) {
            acc.0 += h.0;
            acc.1 += h.1;
        }
        for (kind, msgs, bytes) in other.sent {
            self.add_sent(kind, msgs, bytes);
        }
        self.add_phases(other.phases);
        self.alloc_bytes += other.alloc_bytes;
        self.spans
            .extend(other.spans.into_iter().map(|s| Span { run, ..s }));
        self.captured.extend(other.captured);
    }

    pub fn add_phases(&mut self, phases: [PhaseCost; PROBE_PHASES]) {
        for (acc, p) in self.phases.iter_mut().zip(phases) {
            acc.nanos += p.nanos;
            acc.count += p.count;
        }
    }

    fn add_sent(&mut self, kind: &'static str, msgs: u64, bytes: u64) {
        match self.sent.iter_mut().find(|(k, _, _)| *k == kind) {
            Some(slot) => {
                slot.1 += msgs;
                slot.2 += bytes;
            }
            None => self.sent.push((kind, msgs, bytes)),
        }
    }

    /// Messages and bytes the handlers sent, all classes.
    pub fn sent_total(&self) -> (u64, u64) {
        self.sent
            .iter()
            .fold((0, 0), |(m, b), s| (m + s.1, b + s.2))
    }

    /// Messages sent of one class.
    pub fn sent_of(&self, kind: &str) -> u64 {
        self.sent
            .iter()
            .find(|(k, _, _)| *k == kind)
            .map_or(0, |s| s.1)
    }
}

/// Everything one probe measured.
#[derive(Clone)]
pub struct NodeRecord {
    pub node: u32,
    /// `on_request` → `on_cs_released`, nanoseconds, one sample per CS.
    pub acquire: Hist,
    /// Messages delivered to `on_message` and the sum of their `wire_size()`.
    pub msgs_in: u64,
    pub bytes_in: u64,
    pub trace: Option<TraceRecord>,
}

/// Message sampling for the codec micro-measurements.
pub struct Capture<M> {
    /// Keep every `stride`-th delivered message …
    pub stride: u64,
    /// … until this many bytes are held by this node.
    pub max_bytes: usize,
    pub encode: fn(&M) -> Bytes,
}

// Not derived: a derive would demand `M: Copy`.
impl<M> Clone for Capture<M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for Capture<M> {}

/// See the module docs.
pub struct Probe<P: MutexProtocol> {
    inner: P,
    epoch: Instant,
    rec: NodeRecord,
    /// The open `cs` span: `(seq, start)`.
    open: Option<(u32, Instant)>,
    next_seq: u32,
    capture: Option<Capture<P::Message>>,
    captured_bytes: usize,
    outbox: Vec<(NodeId, P::Message)>,
    timers: Vec<(SimDuration, u64)>,
}

impl<P: MutexProtocol> Probe<P> {
    /// The light probe: acquire latency and delivered-message counts only.
    pub fn light(node: NodeId, inner: P, epoch: Instant) -> Self {
        Probe {
            inner,
            epoch,
            rec: NodeRecord {
                node: node.index() as u32,
                acquire: Hist::new(),
                msgs_in: 0,
                bytes_in: 0,
                trace: None,
            },
            open: None,
            next_seq: 0,
            capture: None,
            captured_bytes: 0,
            outbox: Vec::new(),
            timers: Vec::new(),
        }
    }

    /// The full probe of the traced run.
    pub fn full(node: NodeId, inner: P, epoch: Instant, capture: Capture<P::Message>) -> Self {
        let mut p = Self::light(node, inner, epoch);
        p.rec.trace = Some(TraceRecord::default());
        p.capture = Some(capture);
        p
    }

    /// The wrapped node.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// What the probe measured so far.
    pub fn record(&self) -> &NodeRecord {
        &self.rec
    }

    /// The wrapped node and what the probe measured.
    pub fn into_parts(self) -> (P, NodeRecord) {
        (self.inner, self.rec)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn open_cs(&mut self, now: Instant) {
        self.open = Some((self.next_seq, now));
        self.next_seq += 1;
    }

    fn close_cs(&mut self, now: Instant) {
        let Some((seq, start)) = self.open.take() else {
            return;
        };
        self.rec
            .acquire
            .record(now.duration_since(start).as_nanos() as u64);
        if self.rec.trace.is_some() {
            let span = Span {
                run: 0,
                node: self.rec.node,
                handler: None,
                cs_seq: Some(seq),
                start_ns: self.ns(start),
                end_ns: self.ns(now),
            };
            self.trace_mut().spans.push(span);
        }
    }

    /// Runs one handler of the inner node under the full probe.
    fn traced(&mut self, call: Call<P::Message>, ctx: &mut Ctx<'_, P::Message>) {
        // Allocations since the last handler belong to the fabric (engine
        // or node driver); the probe's own are discarded after each of its
        // bookkeeping steps.
        let mut alloc = rcv_allocmeter::take().bytes;
        if let (Call::Message(_, msg), Some(cap)) = (&call, self.capture) {
            // Offset by the node id, so that nodes sample different phases
            // of a run even when each receives fewer than `stride` messages.
            let turn = (self.rec.msgs_in + self.rec.node as u64).is_multiple_of(cap.stride);
            if turn && self.captured_bytes < cap.max_bytes {
                let wire = (cap.encode)(msg);
                self.captured_bytes += wire.len();
                self.trace_mut().captured.push(wire);
            }
        }
        let mut outbox = std::mem::take(&mut self.outbox);
        let mut timers = std::mem::take(&mut self.timers);
        let mut enter = false;
        let which = call.handler();
        rcv_allocmeter::take();

        let t0 = Instant::now();
        if which == ON_REQUEST {
            self.open_cs(t0);
        }
        {
            let (me, now) = (ctx.me(), ctx.now());
            let mut inner = Ctx::new(me, now, ctx.rng(), &mut outbox, &mut enter, &mut timers);
            match call {
                Call::Message(from, msg) => self.inner.on_message(from, msg, &mut inner),
                Call::Request => self.inner.on_request(&mut inner),
                Call::Release => self.inner.on_cs_released(&mut inner),
            }
        }
        let t1 = Instant::now();
        alloc += rcv_allocmeter::take().bytes;
        let phases = profile::take();

        let cs_seq = self.open.map(|(seq, _)| seq);
        if which == ON_RELEASE {
            self.close_cs(t1);
        }
        let (start_ns, end_ns) = (self.ns(t0), self.ns(t1));
        let node = self.rec.node;
        let t = self.trace_mut();
        t.handler[which].0 += 1;
        t.handler[which].1 += end_ns - start_ns;
        t.alloc_bytes += alloc;
        t.add_phases(phases);
        t.spans.push(Span {
            run: 0,
            node,
            handler: Some(which),
            cs_seq,
            start_ns,
            end_ns,
        });
        for (to, msg) in outbox.drain(..) {
            t.add_sent(msg.kind(), 1, msg.wire_size() as u64);
            ctx.send(to, msg);
        }
        if enter {
            ctx.enter_cs();
        }
        for (delay, tag) in timers.drain(..) {
            ctx.set_timer(delay, tag);
        }
        self.outbox = outbox;
        self.timers = timers;
        rcv_allocmeter::take();
    }

    fn trace_mut(&mut self) -> &mut TraceRecord {
        self.rec.trace.as_mut().expect("only the full probe traces")
    }
}

/// The handler call the full probe is about to make.
enum Call<M> {
    Message(NodeId, M),
    Request,
    Release,
}

impl<M> Call<M> {
    fn handler(&self) -> usize {
        match self {
            Call::Message(..) => ON_MESSAGE,
            Call::Request => ON_REQUEST,
            Call::Release => ON_RELEASE,
        }
    }
}

impl<P: MutexProtocol> MutexProtocol for Probe<P> {
    type Message = P::Message;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_request(&mut self, ctx: &mut Ctx<'_, Self::Message>) {
        if self.rec.trace.is_some() {
            return self.traced(Call::Request, ctx);
        }
        self.open_cs(Instant::now());
        self.inner.on_request(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Message, ctx: &mut Ctx<'_, Self::Message>) {
        self.rec.msgs_in += 1;
        self.rec.bytes_in += msg.wire_size() as u64;
        if self.rec.trace.is_some() {
            return self.traced(Call::Message(from, msg), ctx);
        }
        self.inner.on_message(from, msg, ctx);
    }

    fn on_cs_granted(&mut self, ctx: &mut Ctx<'_, Self::Message>) {
        self.inner.on_cs_granted(ctx);
    }

    fn on_cs_released(&mut self, ctx: &mut Ctx<'_, Self::Message>) {
        if self.rec.trace.is_some() {
            return self.traced(Call::Release, ctx);
        }
        self.inner.on_cs_released(ctx);
        self.close_cs(Instant::now());
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, Self::Message>) {
        self.inner.on_timer(tag, ctx);
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, Self::Message>) -> RestartOutcome {
        self.inner.on_restart(ctx)
    }
}
