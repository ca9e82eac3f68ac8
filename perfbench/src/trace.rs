//! Spans measured from outside the simulator.
//!
//! The traced run records three levels of spans, kept in memory:
//! phases (`setup`, `converge`, `steady`) → the benchmark's own `run_*`
//! calls into the event engine → node callbacks of the controller and
//! of every host, generator and sink, timed by the [`Timed`] wrapper.
//! A `run_*` span's self time — its duration minus the part its
//! callback children cover — is time spent in event dispatch and in
//! every switch node, which the benchmark does not wrap.
//!
//! With no recorder started (the untraced run) every function here is a
//! no-op and nodes are added unwrapped, so end-to-end timings carry no
//! tracing cost.

use bytes::Bytes;
use netsim::{Node, NodeCtx, NodeId, PortId};
use std::any::Any;
use std::cell::RefCell;
use std::time::Instant;

/// The layer a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A workload phase, or a set-up step inside one.
    Phase,
    /// One `run_*` call into the event engine.
    Run,
    /// A callback of the wrapped `ControllerNode`.
    Controller,
    /// A callback of a wrapped host, generator or sink.
    Endpoint,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Phase => "phase",
            Kind::Run => "run",
            Kind::Controller => "controller",
            Kind::Endpoint => "endpoint",
        }
    }
}

/// One closed span, in nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was timed (a phase name, a `run_*` call, a callback method).
    pub name: &'static str,
    /// The layer.
    pub kind: Kind,
    /// Index of the enclosing span in [`Recorder::spans`].
    pub parent: Option<u32>,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

impl Span {
    /// Duration, ns.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Inputs captured for the decode and parse replays: enough to time
/// them well, few enough to bound memory.
const MAX_CTRL_SAMPLES: usize = 1 << 16;
const MAX_FRAME_SAMPLES: usize = 1 << 14;

/// Every span of one traced iteration plus the inputs captured for the
/// per-layer replays.
pub struct Recorder {
    origin: Instant,
    /// Spans in the order they were opened (callbacks: closed).
    pub spans: Vec<Span>,
    open: Vec<u32>,
    /// Control-channel payloads the controller received.
    pub ctrl_bytes: Vec<Bytes>,
    /// Frames delivered to hosts and sinks, with their arrival port.
    pub frames: Vec<(u32, Bytes)>,
}

impl Recorder {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The spans whose parent is span `parent`.
    pub fn children(&self, parent: usize) -> impl Iterator<Item = &Span> {
        let p = Some(parent as u32);
        self.spans.iter().filter(move |s| s.parent == p)
    }

    /// Total duration of spans of `kind` (optionally of one name), ns.
    pub fn total_ns(&self, kind: Kind, name: Option<&str>) -> u64 {
        self.of(kind, name).map(Span::dur).sum()
    }

    /// Number of spans of `kind` (optionally of one name).
    pub fn count(&self, kind: Kind, name: Option<&str>) -> u64 {
        self.of(kind, name).count() as u64
    }

    fn of<'a>(&'a self, kind: Kind, name: Option<&'a str>) -> impl Iterator<Item = &'a Span> {
        self.spans
            .iter()
            .filter(move |s| s.kind == kind && name.is_none_or(|n| s.name == n))
    }

    /// Self time summed over every `run_*` span, ns.
    pub fn run_self_ns(&self) -> u64 {
        self.run_self_ns_under(None)
    }

    /// Self time of the `run_*` spans directly under the phase named
    /// `phase` (all phases with `None`), ns. Children are matched by one
    /// pass over the spans, so this stays linear in the span count.
    pub fn run_self_ns_under(&self, phase: Option<&str>) -> u64 {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                if self.spans[p as usize].kind == Kind::Run {
                    children[p as usize].push((s.start, s.end));
                }
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.kind == Kind::Run)
            .filter(|(_, s)| {
                phase.is_none_or(|name| {
                    s.parent
                        .is_some_and(|p| self.spans[p as usize].name == name)
                })
            })
            .map(|(i, s)| self_time((s.start, s.end), std::mem::take(&mut children[i])))
            .sum()
    }

    /// Split of the phase named `phase`: wall time, time inside `run_*`
    /// calls, their self time, and controller and endpoint callback
    /// time, s.
    pub fn phase_split(&self, phase: &str) -> [f64; 5] {
        let Some(p) = self
            .spans
            .iter()
            .position(|s| s.kind == Kind::Phase && s.name == phase)
        else {
            return [0.0; 5];
        };
        let in_phase = |s: &Span| {
            s.parent.is_some_and(|r| {
                let r = &self.spans[r as usize];
                r.kind == Kind::Run && r.parent == Some(p as u32)
            })
        };
        let busy = |kind: Kind| -> u64 {
            self.spans
                .iter()
                .filter(|s| s.kind == kind && in_phase(s))
                .map(Span::dur)
                .sum()
        };
        let runs: u64 = self
            .children(p)
            .filter(|s| s.kind == Kind::Run)
            .map(Span::dur)
            .sum();
        [
            self.spans[p].dur(),
            runs,
            self.run_self_ns_under(Some(phase)),
            busy(Kind::Controller),
            busy(Kind::Endpoint),
        ]
        .map(|ns| ns as f64 / 1e9)
    }

    /// Write every span as one JSON object per line.
    pub fn write_spans(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.kind.label(),
                s.name,
                s.start,
                s.end
            )?;
        }
        Ok(())
    }
}

/// Self time of a span `parent = (start, end)`: its duration minus the
/// length of the union of its children's intervals, each clipped to the
/// parent. Children may nest, overlap or touch, in any order.
pub fn self_time(parent: (u64, u64), children: impl IntoIterator<Item = (u64, u64)>) -> u64 {
    let (ps, pe) = parent;
    let mut iv: Vec<(u64, u64)> = children
        .into_iter()
        .map(|(s, e)| (s.max(ps), e.min(pe)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (pe - ps) - covered
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording spans on this thread.
pub fn start() {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            ctrl_bytes: Vec::new(),
            frames: Vec::new(),
        })
    });
}

/// Stop recording and hand back everything recorded.
pub fn finish() -> Option<Recorder> {
    REC.with(|r| r.borrow_mut().take())
}

/// True while a recorder is running.
pub fn active() -> bool {
    REC.with(|r| r.borrow().is_some())
}

/// Run `f` inside a span of `kind` named `name` whose parent is the
/// innermost open span. Without a recorder this is just `f()`.
pub fn scope<R>(kind: Kind, name: &'static str, f: impl FnOnce() -> R) -> R {
    let opened = REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let now = rec.now();
        let idx = rec.spans.len() as u32;
        rec.spans.push(Span {
            name,
            kind,
            parent: rec.open.last().copied(),
            start: now,
            end: now,
        });
        rec.open.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = opened {
        REC.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                let now = rec.now();
                rec.spans[idx as usize].end = now;
                rec.open.pop();
            }
        });
    }
    out
}

/// A node wrapper that times every callback as a span of `kind` and
/// otherwise forwards every [`Node`] method to the wrapped node —
/// including the flow-level engine's `flow_resident`, `quiescence` and
/// `credit_modeled` — so simulated results are unchanged. `as_any`
/// passes straight through, so `Network::node_ref::<N>` still finds the
/// wrapped node.
pub struct Timed<N> {
    inner: N,
    kind: Kind,
}

impl<N: Node> Timed<N> {
    /// Wrap `inner` as a node of layer `kind`.
    pub fn new(inner: N, kind: Kind) -> Timed<N> {
        Timed { inner, kind }
    }

    fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut N) -> R) -> R {
        let t0 = REC.with(|r| r.borrow().as_ref().map(Recorder::now));
        let out = f(&mut self.inner);
        if let Some(start) = t0 {
            let kind = self.kind;
            REC.with(|r| {
                if let Some(rec) = r.borrow_mut().as_mut() {
                    let end = rec.now();
                    let parent = rec.open.last().copied();
                    rec.spans.push(Span {
                        name,
                        kind,
                        parent,
                        start,
                        end,
                    });
                }
            });
        }
        out
    }

    fn sample_frame(&self, port: PortId, frame: &Bytes) {
        if self.kind != Kind::Endpoint {
            return;
        }
        REC.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                if rec.frames.len() < MAX_FRAME_SAMPLES {
                    rec.frames.push((u32::from(port.0), frame.clone()));
                }
            }
        });
    }
}

impl<N: Node> Node for Timed<N> {
    fn on_packet(&mut self, port: PortId, frame: Bytes, ctx: &mut NodeCtx) {
        self.sample_frame(port, &frame);
        self.time("on_packet", |n| n.on_packet(port, frame, ctx));
    }

    fn on_frames(&mut self, frames: Vec<(PortId, Bytes)>, ctx: &mut NodeCtx) {
        for (port, frame) in &frames {
            self.sample_frame(*port, frame);
        }
        self.time("on_frames", |n| n.on_frames(frames, ctx));
    }

    fn on_timer(&mut self, token: u64, ctx: &mut NodeCtx) {
        self.time("on_timer", |n| n.on_timer(token, ctx));
    }

    fn on_ctrl(&mut self, from: NodeId, data: Bytes, ctx: &mut NodeCtx) {
        if self.kind == Kind::Controller {
            REC.with(|r| {
                if let Some(rec) = r.borrow_mut().as_mut() {
                    if rec.ctrl_bytes.len() < MAX_CTRL_SAMPLES {
                        rec.ctrl_bytes.push(data.clone());
                    }
                }
            });
        }
        self.time("on_ctrl", |n| n.on_ctrl(from, data, ctx));
    }

    fn on_start(&mut self, ctx: &mut NodeCtx) {
        self.time("on_start", |n| n.on_start(ctx));
    }

    fn on_reset(&mut self, ctx: &mut NodeCtx) {
        self.time("on_reset", |n| n.on_reset(ctx));
    }

    fn flow_resident(&self, port: PortId, frame: &[u8]) -> Option<bool> {
        self.inner.flow_resident(port, frame)
    }

    fn quiescence(&self) -> Option<u64> {
        self.inner.quiescence()
    }

    fn credit_modeled(&mut self, frames: u64, bytes: u64) {
        self.inner.credit_modeled(frames, bytes)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_time((10, 50), []), 40);
    }

    #[test]
    fn self_time_subtracts_back_to_back_children_once_each() {
        // [10,20) and [20,35) touch; together they cover 25 of 40.
        assert_eq!(self_time((10, 50), [(10, 20), (20, 35)]), 15);
        // Order of arrival does not matter.
        assert_eq!(self_time((10, 50), [(20, 35), (10, 20)]), 15);
    }

    #[test]
    fn self_time_counts_nested_and_overlapping_children_as_their_union() {
        // [15,40) contains [20,30); [35,45) overlaps its tail.
        assert_eq!(self_time((10, 50), [(20, 30), (15, 40), (35, 45)]), 10);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        assert_eq!(self_time((10, 50), [(0, 15), (45, 60), (70, 80)]), 30);
        assert_eq!(self_time((10, 50), [(0, 100)]), 0);
    }

    #[test]
    fn recorder_links_callbacks_to_run_calls_to_phases() {
        start();
        scope(Kind::Phase, "converge", || {
            scope(Kind::Run, "run_until", || {
                let mut t = Timed::new(netsim::traffic::Sink::new("s"), Kind::Endpoint);
                t.time("on_packet", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            })
        });
        let rec = finish().expect("recorder was started");
        assert!(!active());
        let [phase, run, cb] = rec.spans[..] else {
            panic!("three spans expected, got {}", rec.spans.len())
        };
        assert_eq!((phase.kind, phase.parent), (Kind::Phase, None));
        assert_eq!((run.kind, run.parent), (Kind::Run, Some(0)));
        assert_eq!((cb.kind, cb.parent), (Kind::Endpoint, Some(1)));
        assert!(cb.dur() >= 2_000_000);
        assert_eq!(rec.run_self_ns(), run.dur() - cb.dur());
        assert_eq!(rec.run_self_ns_under(Some("converge")), rec.run_self_ns());
        assert_eq!(rec.run_self_ns_under(Some("steady")), 0);
    }
}
