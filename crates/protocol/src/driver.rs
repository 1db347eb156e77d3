//! The driver abstraction: what a world must offer to host machines.
//!
//! Both execution worlds — the discrete-event simulator in `oscar-sim`
//! and the threaded actor runtime in `oscar-runtime` — move the same
//! [`PeerMachine`](crate::PeerMachine) envelopes; they differ only in
//! *when* (virtual FIFO rounds vs real threads) and *where* (one queue
//! vs one mailbox per actor). This trait captures the surface the
//! machine-backend churn engine needs, so one generic engine drives
//! Poisson join/crash/depart through either world and produces the same
//! window statistics.
//!
//! The trait lives here (not in a driver crate) so both worlds can
//! implement it without a dependency cycle: `oscar-sim` and
//! `oscar-runtime` already depend on `oscar-protocol`.

use crate::message::{Command, ProtocolEvent};
use oscar_types::Id;
use std::collections::BTreeSet;

/// A world that can host peer machines and move their envelopes.
///
/// Time model: drivers expose a monotone *round* counter — the DES
/// equates it with timer rounds on its virtual clock, the threaded
/// runtime ticks it at quiescent points. [`ProtocolDriver::advance_to`]
/// runs message delivery and timer ticks until the counter reaches the
/// target, which is what lets one churn engine schedule Poisson events
/// on either clock.
pub trait ProtocolDriver {
    /// Adds a fresh, unjoined machine for `id`. No-op if it exists.
    fn spawn_peer(&mut self, id: Id);

    /// Removes `id` abruptly (a crash): undelivered and future messages
    /// to it bounce back to their senders as delivery failures.
    fn remove_peer(&mut self, id: Id);

    /// Enqueues a local command to `id`'s machine.
    fn inject(&mut self, id: Id, cmd: Command);

    /// Delivers messages and fires timers until every machine is idle or
    /// `max_rounds` timer rounds have elapsed. Returns the number of
    /// timer rounds consumed.
    fn settle(&mut self, max_rounds: u64) -> u64;

    /// Advances the round counter to at least `round`, delivering
    /// messages and firing due timers along the way.
    fn advance_to(&mut self, round: u64);

    /// The current round counter.
    fn round(&self) -> u64;

    /// Ids of all live machines, sorted.
    fn peer_ids(&self) -> Vec<Id>;

    /// Drains protocol events accumulated across all machines since the
    /// last drain, in a deterministic order.
    fn drain_events(&mut self) -> Vec<ProtocolEvent>;

    /// Total messages sent so far (the maintenance-traffic meter).
    fn sent(&self) -> u64;

    /// [`ProtocolEvent::Fault`] occurrences observed so far. Unlike
    /// drained events this is a lifetime counter: harnesses gate runs on
    /// it staying zero.
    fn fault_count(&self) -> u64;
}

/// Every registered machine's pending deadline, ordered by round.
///
/// A driver keeps one entry per machine whose
/// [`PeerMachine::next_deadline`](crate::PeerMachine::next_deadline) is
/// `Some`, and reports each change through [`DeadlineIndex::note`] right
/// after the handler call that made it. Finding the next timer round is
/// then a read of the first entry, and finding the machines a round
/// ticks is a prefix walk, instead of a scan over the whole fleet.
#[derive(Debug, Default)]
pub struct DeadlineIndex {
    entries: BTreeSet<(u64, Id)>,
    /// `entries.first()`'s round, kept beside the set so that
    /// [`DeadlineIndex::earliest`] needs no tree walk.
    earliest: Option<u64>,
}

impl DeadlineIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `id`'s deadline moved from `old` to `new` (`None`:
    /// no operation pending). `old` must be the value last noted for
    /// `id`, or `None` for a machine the index has not seen.
    pub fn note(&mut self, id: Id, old: Option<u64>, new: Option<u64>) {
        if old == new {
            return;
        }
        if let Some(d) = old {
            self.entries.remove(&(d, id));
        }
        if let Some(d) = new {
            self.entries.insert((d, id));
        }
        self.earliest = self.entries.first().map(|&(d, _)| d);
    }

    /// The earliest pending deadline, if any machine is waiting.
    pub fn earliest(&self) -> Option<u64> {
        self.earliest
    }

    /// The machines whose deadline is at or before `now`, in ascending
    /// [`Id`] order — the order a fleet scan over an id-keyed map visits
    /// them, which fixes the order their timer ticks draw command
    /// nonces in.
    pub fn due(&self, now: u64) -> Vec<Id> {
        let mut ids: Vec<Id> = self
            .entries
            .iter()
            .take_while(|&&(d, _)| d <= now)
            .map(|&(_, id)| id)
            .collect();
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notes_move_entries_and_due_is_id_ordered() {
        let mut idx = DeadlineIndex::new();
        assert_eq!(idx.earliest(), None);
        idx.note(Id::new(9), None, Some(3));
        idx.note(Id::new(5), None, Some(1));
        idx.note(Id::new(7), None, Some(2));
        assert_eq!(idx.earliest(), Some(1));
        assert_eq!(idx.due(0), vec![]);
        assert_eq!(idx.due(2), vec![Id::new(5), Id::new(7)]);
        assert_eq!(idx.due(3), vec![Id::new(5), Id::new(7), Id::new(9)]);
        idx.note(Id::new(5), Some(1), Some(4));
        assert_eq!(idx.earliest(), Some(2));
        assert_eq!(idx.due(3), vec![Id::new(7), Id::new(9)]);
        idx.note(Id::new(7), Some(2), None);
        idx.note(Id::new(9), Some(3), Some(3));
        assert_eq!(idx.earliest(), Some(3));
        assert_eq!(idx.due(u64::MAX), vec![Id::new(5), Id::new(9)]);
    }
}
