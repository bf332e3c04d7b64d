//! The observer trait and the shared-handle adapter.

use crate::event::ObsEvent;
use mnp_radio::{MediumStats, NodeId};
use mnp_sim::SimTime;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// A sink for simulation events.
///
/// Observers are attached with `NetworkBuilder::observer(...)` and receive
/// every [`ObsEvent`] the network emits, in deterministic order, plus one
/// [`Observer::on_run_end`] call when the run is finalised. Implementations
/// must not assume wall-clock anything: the same seed replays the same
/// event sequence bit-for-bit.
pub trait Observer: fmt::Debug {
    /// Handles one event.
    fn on_event(&mut self, ev: &ObsEvent);

    /// Handles the events of one dispatch, in order. The network delivers
    /// through this call, one batch per dispatch; the default hands each
    /// event to [`Observer::on_event`].
    fn on_events(&mut self, evs: &[ObsEvent]) {
        for ev in evs {
            self.on_event(ev);
        }
    }

    /// Called exactly once when the run ends (all nodes complete, deadline
    /// hit, or the run predicate stopped the loop), so interval-based
    /// observers can close their last interval.
    fn on_run_end(&mut self, at: SimTime) {
        let _ = at;
    }

    /// Delivers one node's physical-layer counters when the network
    /// finalises its meters. These live in the medium, not the event
    /// stream, so they arrive through this side channel rather than as
    /// [`ObsEvent`]s; the default implementation ignores them.
    fn on_medium_stats(&mut self, node: NodeId, stats: &MediumStats) {
        let _ = (node, stats);
    }
}

impl<T: Observer + ?Sized> Observer for Box<T> {
    fn on_event(&mut self, ev: &ObsEvent) {
        (**self).on_event(ev);
    }

    fn on_events(&mut self, evs: &[ObsEvent]) {
        (**self).on_events(evs);
    }

    fn on_run_end(&mut self, at: SimTime) {
        (**self).on_run_end(at);
    }

    fn on_medium_stats(&mut self, node: NodeId, stats: &MediumStats) {
        (**self).on_medium_stats(node, stats);
    }
}

/// A clonable handle that lets the caller keep access to an observer the
/// network owns.
///
/// The network takes observers as `Box<dyn Observer + Send>`; wrapping one
/// in `Shared` first lets a harness attach a clone and read the results
/// back after the run. Sharing is `Arc<Mutex<_>>` (never `Rc<RefCell<_>>`),
/// so a network holding the attached clone stays `Send` and can run on a
/// worker thread while the harness keeps its handle:
///
/// ```
/// use mnp_obs::{JsonlLogger, Observer, Shared};
///
/// let log = Shared::new(JsonlLogger::new());
/// let attached: Box<dyn Observer + Send> = Box::new(log.clone());
/// // ... run the network with `attached` ...
/// assert_eq!(log.borrow().events(), 0);
/// ```
#[derive(Debug)]
pub struct Shared<T>(Arc<Mutex<T>>);

impl<T> Shared<T> {
    /// Wraps `inner` for shared access.
    pub fn new(inner: T) -> Self {
        Shared(Arc::new(Mutex::new(inner)))
    }

    /// Locks and borrows the inner observer.
    ///
    /// The simulation is single-threaded per run, so the lock is
    /// uncontended; a poisoned lock (a panic mid-callback) still yields the
    /// inner value, since observers hold diagnostics worth reading after a
    /// failure.
    pub fn borrow(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Locks and mutably borrows the inner observer.
    pub fn borrow_mut(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared(Arc::clone(&self.0))
    }
}

impl<T: Observer> Observer for Shared<T> {
    fn on_event(&mut self, ev: &ObsEvent) {
        self.borrow_mut().on_event(ev);
    }

    /// Takes the lock once for the whole batch.
    fn on_events(&mut self, evs: &[ObsEvent]) {
        self.borrow_mut().on_events(evs);
    }

    fn on_run_end(&mut self, at: SimTime) {
        self.borrow_mut().on_run_end(at);
    }

    fn on_medium_stats(&mut self, node: NodeId, stats: &MediumStats) {
        self.borrow_mut().on_medium_stats(node, stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use mnp_radio::NodeId;

    #[derive(Debug, Default)]
    struct Counter {
        events: usize,
        ended: bool,
    }

    impl Observer for Counter {
        fn on_event(&mut self, _ev: &ObsEvent) {
            self.events += 1;
        }

        fn on_run_end(&mut self, _at: SimTime) {
            self.ended = true;
        }
    }

    #[test]
    fn shared_forwards_and_reads_back() {
        let shared = Shared::new(Counter::default());
        let mut boxed: Box<dyn Observer> = Box::new(shared.clone());
        let ev = ObsEvent {
            t: SimTime::ZERO,
            node: NodeId(0),
            kind: EventKind::Wake,
        };
        boxed.on_event(&ev);
        boxed.on_event(&ev);
        boxed.on_run_end(SimTime::from_secs(1));
        assert_eq!(shared.borrow().events, 2);
        assert!(shared.borrow().ended);
    }
}
