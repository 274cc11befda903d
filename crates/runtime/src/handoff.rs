//! The spin-then-park wait behind every handoff between client threads
//! and device workers: a bounded spin ([`SPIN_BUDGET`], granted by
//! [`spin_budget`]) before a condvar park, and a write-once [`Slot`]
//! that notifies only when a waiter is parked. The `scheduler` module
//! doc describes the protocol and why oversubscribed pools never spin.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long a waiter polls before it parks: about one park-plus-wake
/// round trip on a contemporary x86-64 host.
pub(crate) const SPIN_BUDGET: Duration = Duration::from_micros(20);

/// The spin budget of a pool of `devices` workers on a host with
/// `cores` hardware threads: [`SPIN_BUDGET`] for a single worker with
/// a core to spare for its submitting thread, zero (park at once)
/// otherwise. Multi-device pools park even with spare cores: their
/// idle workers would all watch one work epoch, and spinning has only
/// been measured to pay off for one worker.
pub(crate) fn spin_budget(devices: usize, cores: usize) -> Duration {
    if devices == 1 && cores >= 2 {
        SPIN_BUDGET
    } else {
        Duration::ZERO
    }
}

/// Poll `done` until it holds or `budget` runs out.
pub(crate) fn spin_until(budget: Duration, mut done: impl FnMut() -> bool) {
    let start = Instant::now();
    while !done() && start.elapsed() < budget {
        std::hint::spin_loop();
    }
}

/// A write-once completion cell shared between a waiter and the thread
/// that resolves it (launch and copy handles, event signals).
#[derive(Debug)]
pub(crate) struct Slot<T> {
    /// Set once the value is in; waiters poll it while they spin.
    ready: AtomicBool,
    state: Mutex<SlotState<T>>,
    cond: Condvar,
    /// How long [`Slot::wait`] spins before it parks (zero: park at
    /// once).
    spin: Duration,
}

#[derive(Debug)]
struct SlotState<T> {
    value: Option<T>,
    /// Waiters asleep on `cond`.
    parked: usize,
}

impl<T: Clone> Slot<T> {
    pub(crate) fn new(spin: Duration) -> Self {
        Slot {
            ready: AtomicBool::new(false),
            state: Mutex::new(SlotState {
                value: None,
                parked: 0,
            }),
            cond: Condvar::new(),
            spin,
        }
    }

    /// Resolve the cell (idempotent: the first value wins).
    pub(crate) fn set(&self, v: T) {
        let mut g = self.state.lock().unwrap();
        if g.value.is_none() {
            g.value = Some(v);
        }
        // Release pairs with the spinner's Acquire load; the spinner
        // then reads the value under the lock.
        self.ready.store(true, Ordering::Release);
        if g.parked > 0 {
            self.cond.notify_all();
        }
    }

    /// Block until the cell resolves: spin up to the cell's budget,
    /// then park.
    pub(crate) fn wait(&self) -> T {
        if !self.spin.is_zero() {
            spin_until(self.spin, || self.ready.load(Ordering::Acquire));
        }
        let mut g = self.state.lock().unwrap();
        while g.value.is_none() {
            g.parked += 1;
            g = self.cond.wait(g).unwrap();
            g.parked -= 1;
        }
        g.value.as_ref().unwrap().clone()
    }

    /// Non-blocking poll.
    pub(crate) fn try_get(&self) -> Option<T> {
        self.state.lock().unwrap().value.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn spin_only_for_one_worker_with_a_core_to_spare() {
        assert_eq!(spin_budget(1, 2), SPIN_BUDGET);
        assert_eq!(spin_budget(1, 64), SPIN_BUDGET);
        assert_eq!(spin_budget(3, 4), Duration::ZERO);
        assert_eq!(spin_budget(2, 64), Duration::ZERO);
        assert_eq!(spin_budget(2, 2), Duration::ZERO);
        assert_eq!(spin_budget(4, 2), Duration::ZERO);
        assert_eq!(spin_budget(1, 1), Duration::ZERO);
    }

    /// The waiter gets the first value whether it parks at once, spins
    /// briefly, or spins past the set.
    #[test]
    fn spinning_and_parked_waiters_see_the_first_value() {
        for spin in [Duration::ZERO, SPIN_BUDGET, Duration::from_secs(5)] {
            let slot = Arc::new(Slot::new(spin));
            let waiter = {
                let slot = Arc::clone(&slot);
                std::thread::spawn(move || slot.wait())
            };
            slot.set(7u32);
            slot.set(9);
            assert_eq!(waiter.join().unwrap(), 7);
            assert_eq!(slot.try_get(), Some(7));
            assert_eq!(slot.wait(), 7);
        }
    }
}
