//! Observation hooks for instrumentation (the VerTrace data-versioning
//! study and the live telemetry gauges attach here; see
//! `evanesco-workloads` and `evanesco-ssd::gauges`).

use crate::addr::{GlobalPpa, Lpa};
use evanesco_nand::geometry::BlockId;

/// Why a physical page was invalidated — the path that retired it.
///
/// Attribution by retirement path is what lets the exposure ledger split
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

/// Receives FTL page-lifecycle events.
///
/// All methods have empty default bodies so observers implement only what
/// they need.
pub trait FtlObserver {
    /// A logical page was (re)written; `relocation` is true for GC copies,
    /// `secure` for pages written under a security requirement (the
    /// non-`O_INSEC` path).
    fn on_program(&mut self, _lpa: Lpa, _at: GlobalPpa, _relocation: bool, _secure: bool) {}
    /// A physical page was invalidated. `secure` is true when the page held
    /// secured content; `sanitized` is true when the policy made its
    /// content immediately unrecoverable (lock / scrub / the erase that is
    /// about to follow); `cause` names the path that retired the page.
    fn on_invalidate(
        &mut self,
        _at: GlobalPpa,
        _secure: bool,
        _sanitized: bool,
        _cause: InvalidateCause,
    ) {
    }
    /// A block was physically erased: all its invalid content is gone.
    fn on_erase(&mut self, _chip: usize, _block: BlockId) {}
    /// One host logical-time tick (a host page write was accepted).
    fn on_host_tick(&mut self) {}
    /// A power-up recovery scan finished (see [`crate::recovery`]).
    fn on_recovery(&mut self, _report: &crate::recovery::RecoveryReport) {}
    /// Whether any event reaches a body that does something. An observer
    /// that answers `false` promises every callback is a no-op, which lets
    /// the FTL skip buffering events for it (see [`EventBatch::arm`]).
    fn listening(&self) -> bool {
        true
    }
}

/// The no-op observer.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl FtlObserver for NullObserver {
    fn listening(&self) -> bool {
        false
    }
}

/// One recorded page-lifecycle event — the batched form of the
/// [`FtlObserver`] callbacks (minus `on_recovery`, whose report is built
/// once at the end of recovery and dispatched directly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObserverEvent {
    /// See [`FtlObserver::on_program`].
    Program {
        /// Logical page written.
        lpa: Lpa,
        /// Physical destination.
        at: GlobalPpa,
        /// True for GC copies.
        relocation: bool,
        /// True for secured content.
        secure: bool,
    },
    /// See [`FtlObserver::on_invalidate`].
    Invalidate {
        /// Physical page invalidated.
        at: GlobalPpa,
        /// True when the page held secured content.
        secure: bool,
        /// True when the content was made immediately unrecoverable.
        sanitized: bool,
        /// The path that retired the page.
        cause: InvalidateCause,
    },
    /// See [`FtlObserver::on_erase`].
    Erase {
        /// Chip index.
        chip: usize,
        /// Erased block.
        block: BlockId,
    },
    /// See [`FtlObserver::on_host_tick`].
    HostTick,
}

/// Dense, reusable event buffer. The FTL's hot loops push `Copy` events
/// here and the public entry points drain them to the observer once per
/// host operation — callback dispatch (and whatever the observer does
/// with it) stays off the per-page inner loops, and internal helpers
/// need no observer type parameter at all. Draining preserves recording
/// order exactly, so a batched observer sees the same call sequence a
/// per-event observer did.
///
/// A batch nobody will drain into anything buffers nothing: each public
/// FTL entry point [`EventBatch::arm`]s it from its observer's
/// [`FtlObserver::listening`], and the record methods are no-ops while it
/// is muted. Draining re-arms it, so an entry point that forgets to arm
/// costs time, never events.
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

    /// Records a program event.
    #[inline]
    pub fn program(&mut self, lpa: Lpa, at: GlobalPpa, relocation: bool, secure: bool) {
        if !self.muted {
            self.events.push(ObserverEvent::Program { lpa, at, relocation, secure });
        }
    }

    /// Records an invalidate event.
    #[inline]
    pub fn invalidate(
        &mut self,
        at: GlobalPpa,
        secure: bool,
        sanitized: bool,
        cause: InvalidateCause,
    ) {
        if !self.muted {
            self.events.push(ObserverEvent::Invalidate { at, secure, sanitized, cause });
        }
    }

    /// Records an erase event.
    #[inline]
    pub fn erase(&mut self, chip: usize, block: BlockId) {
        if !self.muted {
            self.events.push(ObserverEvent::Erase { chip, block });
        }
    }

    /// Records a host logical-time tick.
    #[inline]
    pub fn host_tick(&mut self) {
        if !self.muted {
            self.events.push(ObserverEvent::HostTick);
        }
    }

    /// Replays every buffered event into `obs` in recording order, clears
    /// the batch (capacity is retained for reuse) and re-arms it.
    pub fn drain_into<O: FtlObserver + ?Sized>(&mut self, obs: &mut O) {
        self.muted = false;
        for ev in self.events.drain(..) {
            match ev {
                ObserverEvent::Program { lpa, at, relocation, secure } => {
                    obs.on_program(lpa, at, relocation, secure);
                }
                ObserverEvent::Invalidate { at, secure, sanitized, cause } => {
                    obs.on_invalidate(at, secure, sanitized, cause);
                }
                ObserverEvent::Erase { chip, block } => obs.on_erase(chip, block),
                ObserverEvent::HostTick => obs.on_host_tick(),
            }
        }
    }
}

impl<O: FtlObserver + ?Sized> FtlObserver for &mut O {
    fn on_program(&mut self, lpa: Lpa, at: GlobalPpa, relocation: bool, secure: bool) {
        (**self).on_program(lpa, at, relocation, secure);
    }
    fn on_invalidate(
        &mut self,
        at: GlobalPpa,
        secure: bool,
        sanitized: bool,
        cause: InvalidateCause,
    ) {
        (**self).on_invalidate(at, secure, sanitized, cause);
    }
    fn on_erase(&mut self, chip: usize, block: BlockId) {
        (**self).on_erase(chip, block);
    }
    fn on_host_tick(&mut self) {
        (**self).on_host_tick();
    }
    fn on_recovery(&mut self, report: &crate::recovery::RecoveryReport) {
        (**self).on_recovery(report);
    }
    fn listening(&self) -> bool {
        (**self).listening()
    }
}

/// `Some(observer)` forwards, `None` drops every event — the shape of an
/// optional, always-attached telemetry sink.
impl<O: FtlObserver> FtlObserver for Option<O> {
    fn on_program(&mut self, lpa: Lpa, at: GlobalPpa, relocation: bool, secure: bool) {
        if let Some(o) = self {
            o.on_program(lpa, at, relocation, secure);
        }
    }
    fn on_invalidate(
        &mut self,
        at: GlobalPpa,
        secure: bool,
        sanitized: bool,
        cause: InvalidateCause,
    ) {
        if let Some(o) = self {
            o.on_invalidate(at, secure, sanitized, cause);
        }
    }
    fn on_erase(&mut self, chip: usize, block: BlockId) {
        if let Some(o) = self {
            o.on_erase(chip, block);
        }
    }
    fn on_host_tick(&mut self) {
        if let Some(o) = self {
            o.on_host_tick();
        }
    }
    fn on_recovery(&mut self, report: &crate::recovery::RecoveryReport) {
        if let Some(o) = self {
            o.on_recovery(report);
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
    fn on_program(&mut self, lpa: Lpa, at: GlobalPpa, relocation: bool, secure: bool) {
        self.0.on_program(lpa, at, relocation, secure);
        self.1.on_program(lpa, at, relocation, secure);
    }
    fn on_invalidate(
        &mut self,
        at: GlobalPpa,
        secure: bool,
        sanitized: bool,
        cause: InvalidateCause,
    ) {
        self.0.on_invalidate(at, secure, sanitized, cause);
        self.1.on_invalidate(at, secure, sanitized, cause);
    }
    fn on_erase(&mut self, chip: usize, block: BlockId) {
        self.0.on_erase(chip, block);
        self.1.on_erase(chip, block);
    }
    fn on_host_tick(&mut self) {
        self.0.on_host_tick();
        self.1.on_host_tick();
    }
    fn on_recovery(&mut self, report: &crate::recovery::RecoveryReport) {
        self.0.on_recovery(report);
        self.1.on_recovery(report);
    }
    fn listening(&self) -> bool {
        self.0.listening() || self.1.listening()
    }
}

/// Test observer: every page-lifecycle callback it gets, in order.
#[cfg(test)]
#[derive(Debug, Default, PartialEq)]
pub(crate) struct Recorder(pub(crate) Vec<ObserverEvent>);

#[cfg(test)]
impl FtlObserver for Recorder {
    fn on_program(&mut self, lpa: Lpa, at: GlobalPpa, relocation: bool, secure: bool) {
        self.0.push(ObserverEvent::Program { lpa, at, relocation, secure });
    }
    fn on_invalidate(
        &mut self,
        at: GlobalPpa,
        secure: bool,
        sanitized: bool,
        cause: InvalidateCause,
    ) {
        self.0.push(ObserverEvent::Invalidate { at, secure, sanitized, cause });
    }
    fn on_erase(&mut self, chip: usize, block: BlockId) {
        self.0.push(ObserverEvent::Erase { chip, block });
    }
    fn on_host_tick(&mut self) {
        self.0.push(ObserverEvent::HostTick);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evanesco_nand::geometry::Ppa;

    #[test]
    fn null_observer_accepts_everything() {
        let mut o = NullObserver;
        o.on_program(0, GlobalPpa::new(0, Ppa::new(0, 0)), false, true);
        o.on_invalidate(GlobalPpa::new(0, Ppa::new(0, 0)), true, true, InvalidateCause::HostUpdate);
        o.on_erase(0, BlockId(0));
        o.on_host_tick();
    }

    #[derive(Default)]
    struct Counter {
        programs: u32,
        invalidates: u32,
        ticks: u32,
    }

    impl FtlObserver for Counter {
        fn on_program(&mut self, _: Lpa, _: GlobalPpa, _: bool, _: bool) {
            self.programs += 1;
        }
        fn on_invalidate(&mut self, _: GlobalPpa, _: bool, _: bool, _: InvalidateCause) {
            self.invalidates += 1;
        }
        fn on_host_tick(&mut self) {
            self.ticks += 1;
        }
    }

    #[test]
    fn tee_broadcasts_and_option_gates() {
        let mut a = Counter::default();
        let mut b: Option<&mut Counter> = None;
        {
            let mut tee = Tee(&mut a, &mut b);
            tee.on_program(0, GlobalPpa::new(0, Ppa::new(0, 0)), false, true);
            tee.on_host_tick();
        }
        assert_eq!((a.programs, a.ticks), (1, 1));

        let mut c = Counter::default();
        let mut some = Some(&mut c);
        {
            let mut tee = Tee(&mut a, &mut some);
            tee.on_invalidate(
                GlobalPpa::new(0, Ppa::new(0, 0)),
                true,
                false,
                InvalidateCause::Trim,
            );
        }
        assert_eq!(a.invalidates, 1);
        assert_eq!(c.invalidates, 1);
    }

    #[test]
    fn event_batch_drains_in_recording_order() {
        let at = GlobalPpa::new(2, Ppa::new(3, 4));
        let mut batch = EventBatch::new();
        batch.host_tick();
        batch.invalidate(at, true, false, InvalidateCause::HostUpdate);
        batch.program(7, at, false, true);
        batch.erase(1, BlockId(5));
        assert_eq!(batch.len(), 4);

        let mut rec = Recorder::default();
        batch.drain_into(&mut rec);
        assert!(batch.is_empty());
        assert_eq!(
            rec.0,
            vec![
                ObserverEvent::HostTick,
                ObserverEvent::Invalidate {
                    at,
                    secure: true,
                    sanitized: false,
                    cause: InvalidateCause::HostUpdate,
                },
                ObserverEvent::Program { lpa: 7, at, relocation: false, secure: true },
                ObserverEvent::Erase { chip: 1, block: BlockId(5) },
            ]
        );

        // Draining again delivers nothing: the batch resets between ops.
        rec.0.clear();
        batch.drain_into(&mut rec);
        assert!(rec.0.is_empty());
    }

    #[test]
    fn cause_labels_are_stable() {
        let labels: Vec<&str> = InvalidateCause::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels, ["host_update", "trim", "gc_copy"]);
    }
}
