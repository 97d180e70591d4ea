//! Observation hooks for instrumentation (the VerTrace data-versioning
//! study and the live telemetry gauges attach here; see
//! `evanesco-workloads` and `evanesco-ssd::gauges`).

use crate::addr::{GlobalPpa, Lpa};
use evanesco_nand::geometry::BlockId;

/// Why a physical page was invalidated — the path that retired it.
///
/// Attribution by retirement path is what lets VerTrace split
/// VAF / T_insecure contributions between host-driven updates, explicit
/// deletes, and background GC movement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvalidateCause {
    /// The host overwrote the logical page, superseding this version.
    HostUpdate,
    /// The host trimmed (deleted) the logical range covering this page.
    Trim,
    /// GC relocated the live copy (or scrub-sanitized a sibling), retiring
    /// this physical page as part of block reclamation.
    GcCopy,
}

impl InvalidateCause {
    /// Stable lowercase label for exports.
    pub fn label(self) -> &'static str {
        match self {
            InvalidateCause::HostUpdate => "host_update",
            InvalidateCause::Trim => "trim",
            InvalidateCause::GcCopy => "gc_copy",
        }
    }

    /// All causes, in export order.
    pub const ALL: [InvalidateCause; 3] =
        [InvalidateCause::HostUpdate, InvalidateCause::Trim, InvalidateCause::GcCopy];
}

/// Receives FTL page-lifecycle events, one [`ObserverEvent`] at a time,
/// in the order the FTL recorded them.
pub trait FtlObserver {
    /// One page-lifecycle event.
    fn on_event(&mut self, ev: ObserverEvent);
    /// Whether any event reaches a body that does something. An observer
    /// that answers `false` promises [`FtlObserver::on_event`] is a no-op,
    /// which lets the FTL skip buffering events for it (see
    /// [`EventBatch::arm`]).
    fn listening(&self) -> bool {
        true
    }
}

/// The no-op observer.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl FtlObserver for NullObserver {
    fn on_event(&mut self, _: ObserverEvent) {}
    fn listening(&self) -> bool {
        false
    }
}

/// One page-lifecycle event: the whole vocabulary an [`FtlObserver`] hears.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObserverEvent {
    /// A logical page was (re)written.
    Program {
        /// Logical page written.
        lpa: Lpa,
        /// Physical destination.
        at: GlobalPpa,
        /// True for pages written under a security requirement (the
        /// non-`O_INSEC` path).
        secure: bool,
    },
    /// A physical page was invalidated.
    Invalidate {
        /// Physical page invalidated.
        at: GlobalPpa,
        /// True when the page held secured content.
        secure: bool,
        /// True when the policy made the content immediately unrecoverable
        /// (lock / scrub / the erase that is about to follow).
        sanitized: bool,
        /// The path that retired the page.
        cause: InvalidateCause,
    },
    /// A block was physically erased: all its invalid content is gone.
    Erase {
        /// Chip index.
        chip: usize,
        /// Erased block.
        block: BlockId,
    },
    /// One host logical-time tick (a host page write was accepted).
    HostTick,
}

/// Dense, reusable event buffer. The FTL's hot loops push `Copy` events
/// here and the public entry points drain them to the observer once per
/// host operation — dispatch (and whatever the observer does with it)
/// stays off the per-page inner loops, and internal helpers need no
/// observer type parameter at all. Draining preserves recording order
/// exactly.
///
/// A batch nobody will drain into anything buffers nothing: each public
/// FTL entry point [`EventBatch::arm`]s it from its observer's
/// [`FtlObserver::listening`], and [`EventBatch::push`] is a no-op while
/// it is muted. Draining re-arms it, so an entry point that forgets to
/// arm costs time, never events.
#[derive(Debug, Clone, Default)]
pub struct EventBatch {
    events: Vec<ObserverEvent>,
    muted: bool,
}

impl EventBatch {
    /// Creates an empty, armed batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffers events from here to the next [`EventBatch::drain_into`] only
    /// if `listening` (what the observer that drain will feed answered).
    pub fn arm(&mut self, listening: bool) {
        debug_assert!(self.events.is_empty(), "armed mid-operation");
        self.muted = !listening;
    }

    /// Events the buffer has room for without growing (0: never used).
    pub fn capacity(&self) -> usize {
        self.events.capacity()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the batch holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Records one event (dropped while muted).
    #[inline]
    pub fn push(&mut self, ev: ObserverEvent) {
        if !self.muted {
            self.events.push(ev);
        }
    }

    /// Hands every buffered event to `obs` in recording order, clears the
    /// batch (capacity is retained for reuse) and re-arms it.
    pub fn drain_into<O: FtlObserver + ?Sized>(&mut self, obs: &mut O) {
        self.muted = false;
        for ev in self.events.drain(..) {
            obs.on_event(ev);
        }
    }
}

/// A vector records every event it is handed, in order.
impl FtlObserver for Vec<ObserverEvent> {
    fn on_event(&mut self, ev: ObserverEvent) {
        self.push(ev);
    }
}

impl<O: FtlObserver + ?Sized> FtlObserver for &mut O {
    fn on_event(&mut self, ev: ObserverEvent) {
        (**self).on_event(ev);
    }
    fn listening(&self) -> bool {
        (**self).listening()
    }
}

/// `Some(observer)` forwards, `None` drops every event — the shape of an
/// optional, always-attached telemetry sink.
impl<O: FtlObserver> FtlObserver for Option<O> {
    fn on_event(&mut self, ev: ObserverEvent) {
        if let Some(o) = self {
            o.on_event(ev);
        }
    }
    fn listening(&self) -> bool {
        self.as_ref().is_some_and(O::listening)
    }
}

/// Broadcasts every event to two observers (attach built-in telemetry
/// alongside a caller-supplied observer).
#[derive(Debug)]
pub struct Tee<A, B>(pub A, pub B);

impl<A: FtlObserver, B: FtlObserver> FtlObserver for Tee<A, B> {
    fn on_event(&mut self, ev: ObserverEvent) {
        self.0.on_event(ev);
        self.1.on_event(ev);
    }
    fn listening(&self) -> bool {
        self.0.listening() || self.1.listening()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evanesco_nand::geometry::Ppa;

    #[test]
    fn tee_broadcasts_and_option_gates() {
        let at = GlobalPpa::new(0, Ppa::new(0, 0));
        let program = ObserverEvent::Program { lpa: 0, at, secure: true };
        let mut a = Vec::new();
        let mut b: Option<&mut Vec<ObserverEvent>> = None;
        {
            let mut tee = Tee(&mut a, &mut b);
            assert!(tee.listening());
            tee.on_event(program);
            tee.on_event(ObserverEvent::HostTick);
        }
        assert_eq!(a, [program, ObserverEvent::HostTick]);
        assert!(!b.listening() && !Tee(NullObserver, None::<NullObserver>).listening());

        let mut c = Vec::new();
        let mut some = Some(&mut c);
        let trim = ObserverEvent::Invalidate {
            at,
            secure: true,
            sanitized: false,
            cause: InvalidateCause::Trim,
        };
        Tee(&mut a, &mut some).on_event(trim);
        assert_eq!((a.len(), c), (3, vec![trim]));
    }

    #[test]
    fn event_batch_drains_in_recording_order() {
        let at = GlobalPpa::new(2, Ppa::new(3, 4));
        let events = [
            ObserverEvent::HostTick,
            ObserverEvent::Invalidate {
                at,
                secure: true,
                sanitized: false,
                cause: InvalidateCause::HostUpdate,
            },
            ObserverEvent::Program { lpa: 7, at, secure: true },
            ObserverEvent::Erase { chip: 1, block: BlockId(5) },
        ];
        let mut batch = EventBatch::new();
        events.iter().for_each(|&ev| batch.push(ev));
        assert_eq!(batch.len(), 4);

        let mut rec = Vec::new();
        batch.drain_into(&mut rec);
        assert!(batch.is_empty());
        assert_eq!(rec, events);

        // Draining again delivers nothing: the batch resets between ops.
        rec.clear();
        batch.drain_into(&mut rec);
        assert!(rec.is_empty());

        // A muted batch drops what it is handed.
        batch.arm(false);
        batch.push(ObserverEvent::HostTick);
        assert!(batch.is_empty());
    }

    #[test]
    fn cause_labels_are_stable() {
        let labels: Vec<&str> = InvalidateCause::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels, ["host_update", "trim", "gc_copy"]);
    }
}
