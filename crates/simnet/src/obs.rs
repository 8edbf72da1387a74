//! One observability handle per node.
//!
//! [`Obs`] bundles a node's three sinks — the [`Tracer`] (the Fig. 20
//! latency breakdown), the optional [`Journal`] (records for the
//! durability auditor and span trees) and the optional [`Metrics`]
//! registry — so the node's components and the protocol layers above
//! them emit each event with one call. Emission consumes zero simulated
//! time and zero randomness.

use crate::journal::{EventKind, Journal, Subsystem, NO_ID};
use crate::metrics::Metrics;
use crate::trace::{Phase, Span, Tracer};

/// A node's tracer, journal and metrics registry. Cheap to clone (every
/// sink is a shared handle).
#[derive(Clone)]
pub struct Obs {
    tracer: Tracer,
    journal: Option<Journal>,
    metrics: Option<Metrics>,
}

impl Obs {
    /// A handle over `tracer` and, when enabled, `journal` and `metrics`.
    pub fn new(tracer: Tracer, journal: Option<Journal>, metrics: Option<Metrics>) -> Self {
        Obs {
            tracer,
            journal,
            metrics,
        }
    }

    /// The latency-breakdown tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The event journal, if journaling is on.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// The metrics registry, if metrics are on.
    pub fn metrics(&self) -> Option<&Metrics> {
        self.metrics.as_ref()
    }

    /// Open a tracer span in `phase`.
    pub fn span(&self, phase: Phase) -> Span {
        self.tracer.span(phase)
    }

    /// Open a software span, attributed per the tracer's role.
    pub fn span_sw(&self) -> Span {
        self.tracer.span_sw()
    }

    /// Journal one record; does nothing when the journal is off.
    pub fn event(
        &self,
        subsystem: Subsystem,
        kind: EventKind,
        rpc_id: u64,
        wr_id: u64,
        bytes: u64,
    ) {
        if let Some(j) = &self.journal {
            j.record(subsystem, kind, rpc_id, wr_id, bytes);
        }
    }

    /// Open a span in `phase` and journal one record at the same instant.
    pub fn span_event(
        &self,
        phase: Phase,
        subsystem: Subsystem,
        kind: EventKind,
        rpc_id: u64,
        wr_id: u64,
        bytes: u64,
    ) -> Span {
        self.event(subsystem, kind, rpc_id, wr_id, bytes);
        self.span(phase)
    }

    /// A fresh causal RPC id from the journal, or [`NO_ID`] when the
    /// journal is off.
    pub fn next_rpc_id(&self) -> u64 {
        self.journal.as_ref().map_or(NO_ID, Journal::next_rpc_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use crate::time::SimDuration;

    fn obs(sim: &Sim, journal: bool) -> Obs {
        let h = sim.handle();
        Obs::new(
            Tracer::new(h.clone()),
            journal.then(|| Journal::new(h, 0)),
            None,
        )
    }

    #[test]
    fn journal_off_records_nothing_and_allocates_no_ids() {
        let sim = Sim::new(1);
        let o = obs(&sim, false);
        assert_eq!(o.next_rpc_id(), NO_ID);
        o.event(Subsystem::Rpc, EventKind::RpcDispatch, 7, NO_ID, 64);
        o.span_event(
            Phase::Wire,
            Subsystem::Qp,
            EventKind::WireSegment,
            7,
            NO_ID,
            64,
        )
        .end();
        assert!(o.journal().is_none());
        // The tracer still sees the span.
        assert_eq!(o.tracer().report().summary(Phase::Wire).count, 1);
    }

    #[test]
    fn each_call_appends_exactly_one_record() {
        let sim = Sim::new(1);
        let o = obs(&sim, true);
        let id = o.next_rpc_id();
        assert_ne!(id, NO_ID);
        assert_ne!(o.next_rpc_id(), id, "ids are fresh");
        o.event(Subsystem::Rpc, EventKind::RpcDispatch, id, NO_ID, 64);
        assert_eq!(o.journal().unwrap().len(), 1);
        o.span_event(
            Phase::NicDma,
            Subsystem::Nic,
            EventKind::WqeFetch,
            NO_ID,
            NO_ID,
            0,
        )
        .end();
        assert_eq!(o.journal().unwrap().len(), 2);
        let _span = o.span(Phase::Wire);
        let _sw = o.span_sw();
        assert_eq!(o.journal().unwrap().len(), 2, "spans journal nothing");
        let r = &o.journal().unwrap().records()[0];
        assert_eq!(
            (r.kind, r.rpc_id, r.bytes),
            (EventKind::RpcDispatch, id, 64)
        );
    }

    #[test]
    fn span_event_equals_span_plus_event() {
        let run = |fused: bool| {
            let mut sim = Sim::new(1);
            let o = obs(&sim, true);
            let (o2, h) = (o.clone(), sim.handle());
            sim.block_on(async move {
                for bytes in [64, 4096] {
                    let span = if fused {
                        o2.span_event(
                            Phase::Wire,
                            Subsystem::Qp,
                            EventKind::WireSegment,
                            3,
                            NO_ID,
                            bytes,
                        )
                    } else {
                        o2.event(Subsystem::Qp, EventKind::WireSegment, 3, NO_ID, bytes);
                        o2.span(Phase::Wire)
                    };
                    h.sleep(SimDuration::from_nanos(bytes)).await;
                    span.end();
                }
            });
            let r = o.tracer().report();
            let s = r.summary(Phase::Wire);
            (
                o.journal().unwrap().records(),
                r.total(Phase::Wire),
                s.count,
                s.max_ns,
            )
        };
        let (fused, split) = (run(true), run(false));
        assert_eq!(fused.0.len(), 2);
        assert_eq!(fused.1.as_nanos(), 64 + 4096);
        assert_eq!(fused, split);
    }
}
