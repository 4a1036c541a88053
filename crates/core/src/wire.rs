//! The wire between two SCUs: a single-producer/single-consumer queue.
//!
//! Every uni-directional link of the functional machine is one wire: the
//! sending node's [`NodeCtx::progress`](crate::functional::NodeCtx::progress)
//! appends everything the link transmitted in a pump, the receiving node's
//! drains everything that arrived. A wire between two nodes of one shard
//! is a slot of the shard's inbound table, which only the shard's worker
//! thread touches: no `Arc`, lock or atomic. Only a wire between shards
//! (2,048 of `[8,8,8,8]`'s 32,768 at two workers, all at one worker per
//! node) is a [`wire`]: a queue under an uncontended lock, whose empty poll
//! is one atomic load. Nothing ever waits on either kind, so neither needs
//! a condition variable or a disconnected state.
//!
//! Backpressure is the link protocol's three-in-the-air ack window, not the
//! transport: the queue is unbounded but never holds more than a window of
//! data frames plus the acknowledgements riding the same wire. Acks are
//! cumulative, and the receiving SCU sends one per drain rather than one
//! per frame, so a window of three frames costs one ack, not three.

use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct Shared<T> {
    queue: Mutex<VecDeque<T>>,
    /// `queue.len()`, published with `Release` after every push (under the
    /// lock) and read with `Acquire` by the consumer's empty check, so a
    /// consumer that sees a non-zero length also sees the pushed messages.
    len: AtomicUsize,
}

/// The sending end of a [`wire`].
pub struct WireTx<T>(Arc<Shared<T>>);

/// The receiving end of a [`wire`].
pub struct WireRx<T>(Arc<Shared<T>>);

/// A new wire. Nothing is allocated for the queue until the first send.
pub fn wire<T>() -> (WireTx<T>, WireRx<T>) {
    let shared = Arc::new(Shared {
        queue: Mutex::new(VecDeque::new()),
        len: AtomicUsize::new(0),
    });
    (WireTx(Arc::clone(&shared)), WireRx(shared))
}

impl<T> WireTx<T> {
    /// Move every message in `batch` onto the wire, in order, behind
    /// everything sent before; `batch` is left empty with its buffer kept.
    /// One lock for the whole batch; never blocks beyond the consumer's own
    /// critical section and never wakes anyone.
    pub fn send_all(&self, batch: &mut VecDeque<T>) {
        if batch.is_empty() {
            return;
        }
        let mut queue = self.0.queue.lock();
        queue.append(batch);
        self.0.len.store(queue.len(), Ordering::Release);
    }
}

impl<T> WireRx<T> {
    /// Move every message that has arrived onto the back of `into`, in the
    /// order sent, under one lock; returns how many moved. An empty wire
    /// costs one atomic load and takes no lock.
    pub fn drain(&self, into: &mut VecDeque<T>) -> usize {
        if self.0.len.load(Ordering::Acquire) == 0 {
            return 0;
        }
        let mut queue = self.0.queue.lock();
        let moved = queue.len();
        // `append` leaves the queue's buffer in place, so a wire allocates
        // once, at its first send.
        into.append(&mut queue);
        self.0.len.store(0, Ordering::Release);
        moved
    }
}

/// One end of a wire: a slot of its shard's inbound table, or one end of a [`wire`].
pub(crate) enum End<W> {
    Local(usize),
    Cross(W),
}

/// One own-shard wire's queue, in a table laid out per receiving node.
pub(crate) type Slot<T> = RefCell<Vec<T>>;

impl<T> End<WireTx<T>> {
    /// [`WireTx::send_all`] on either kind of end.
    pub(crate) fn send_all(&self, inbound: &[Slot<T>], batch: &mut VecDeque<T>) {
        match self {
            End::Local(slot) => inbound[*slot].borrow_mut().extend(batch.drain(..)),
            End::Cross(tx) => tx.send_all(batch),
        }
    }
}

impl<T> End<WireRx<T>> {
    /// [`WireRx::drain`] on either kind of end.
    pub(crate) fn drain(&self, inbound: &[Slot<T>], into: &mut VecDeque<T>) {
        match self {
            End::Local(slot) => into.extend(inbound[*slot].borrow_mut().drain(..)),
            End::Cross(rx) => _ = rx.drain(into),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_arrive_in_the_order_sent() {
        let (tx, rx) = wire();
        let mut batch = (0..5u64).collect::<VecDeque<_>>();
        tx.send_all(&mut batch);
        assert!(batch.is_empty(), "a sent batch is moved out");
        let mut got = VecDeque::new();
        assert_eq!(rx.drain(&mut got), 5);
        batch.extend([5, 6]);
        tx.send_all(&mut batch);
        // A second drain appends behind what the caller has not consumed.
        assert_eq!(rx.drain(&mut got), 2);
        assert_eq!(got, (0..7).collect::<VecDeque<u64>>());
    }

    #[test]
    fn a_batch_sent_behind_an_undrained_one_queues_after_it() {
        let (tx, rx) = wire();
        tx.send_all(&mut VecDeque::from([0u64, 1, 2]));
        tx.send_all(&mut VecDeque::from([3, 4]));
        let mut got = VecDeque::new();
        assert_eq!(rx.drain(&mut got), 5, "one drain takes both batches");
        assert_eq!(got, (0..5).collect::<VecDeque<u64>>());
    }

    #[test]
    fn draining_an_empty_wire_moves_nothing() {
        let (tx, rx) = wire::<u64>();
        let mut got = VecDeque::from([9]);
        assert_eq!(rx.drain(&mut got), 0);
        tx.send_all(&mut VecDeque::new());
        assert_eq!(rx.drain(&mut got), 0, "an empty batch sends nothing");
        tx.send_all(&mut VecDeque::from([1]));
        assert_eq!(rx.drain(&mut got), 1);
        assert_eq!(rx.drain(&mut got), 0, "a drained wire is empty again");
        assert_eq!(got, VecDeque::from([9, 1]));
    }

    #[test]
    fn a_local_end_moves_batches_through_its_slot_alone() {
        // Two own-shard wires side by side in one table: each drain takes
        // its own slot's batches in order and leaves the neighbour's.
        let inbound: Vec<RefCell<Vec<u64>>> = (0..2).map(|_| RefCell::default()).collect();
        let (tx, rx) = (End::<WireTx<u64>>::Local(1), End::<WireRx<u64>>::Local(1));
        End::<WireTx<u64>>::Local(0).send_all(&inbound, &mut VecDeque::from([9]));
        let mut batch = VecDeque::from([0, 1, 2]);
        tx.send_all(&inbound, &mut batch);
        assert!(batch.is_empty(), "a sent batch is moved out");
        tx.send_all(&inbound, &mut VecDeque::from([3]));
        let mut got = VecDeque::new();
        rx.drain(&inbound, &mut got);
        rx.drain(&inbound, &mut got);
        assert_eq!(
            got,
            (0..4).collect::<VecDeque<u64>>(),
            "a drained slot is empty"
        );
        assert_eq!(*inbound[0].borrow(), [9]);
    }

    #[test]
    fn two_threads_hand_off_ten_thousand_messages_in_order() {
        const MESSAGES: u64 = 10_000;
        let (tx, rx) = wire();
        let mut got = VecDeque::new();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                // Batches of one to three messages, the way a link's
                // window leaves in one pump.
                let mut batch = VecDeque::new();
                let mut next = 0;
                while next < MESSAGES {
                    let end = (next + 1 + next % 3).min(MESSAGES);
                    batch.extend(next..end);
                    tx.send_all(&mut batch);
                    next = end;
                }
            });
            // The consumer polls concurrently with the producer, the way a
            // worker sweeps its shard; the count is what ends the loop.
            while (got.len() as u64) < MESSAGES {
                if rx.drain(&mut got) == 0 {
                    std::thread::yield_now();
                }
            }
        });
        assert!(got.iter().copied().eq(0..MESSAGES));
        assert_eq!(rx.drain(&mut got), 0);
    }
}
