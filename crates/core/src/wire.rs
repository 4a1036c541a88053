//! The wire between two SCUs: a single-producer/single-consumer queue.
//!
//! Every uni-directional link of the functional machine is one [`wire`]:
//! the sending node's [`NodeCtx::progress`](crate::functional::NodeCtx::progress)
//! pushes messages in, the receiving node's drains them out. The engine
//! polls — no node ever blocks on a wire — so the transport needs neither
//! a condition variable nor a disconnected state, and that is what makes it
//! cheap: [`WireTx::send`] is one uncontended lock and never a syscall, and
//! polling an empty wire ([`WireRx::drain`]) is one atomic load. A node
//! polls eight wires per sweep and most are empty most of the time.
//!
//! Backpressure is the link protocol's three-in-the-air ack window, not the
//! transport: the queue is unbounded but never holds more than a window of
//! data frames plus the acknowledgements riding the same wire. Acks are
//! cumulative, and the receiving SCU sends one per drain rather than one
//! per frame, so a window of three frames costs one ack, not three.

use parking_lot::Mutex;
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
    /// Queue `msg` behind everything sent before it. Never blocks beyond
    /// the consumer's own critical section and never wakes anyone.
    pub fn send(&self, msg: T) {
        let mut queue = self.0.queue.lock();
        queue.push_back(msg);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_arrive_in_the_order_sent() {
        let (tx, rx) = wire();
        for i in 0..5u64 {
            tx.send(i);
        }
        let mut got = VecDeque::new();
        assert_eq!(rx.drain(&mut got), 5);
        tx.send(5);
        tx.send(6);
        // A second drain appends behind what the caller has not consumed.
        assert_eq!(rx.drain(&mut got), 2);
        assert_eq!(got, (0..7).collect::<VecDeque<u64>>());
    }

    #[test]
    fn draining_an_empty_wire_moves_nothing() {
        let (tx, rx) = wire::<u64>();
        let mut got = VecDeque::from([9]);
        assert_eq!(rx.drain(&mut got), 0);
        tx.send(1);
        assert_eq!(rx.drain(&mut got), 1);
        assert_eq!(rx.drain(&mut got), 0, "a drained wire is empty again");
        assert_eq!(got, VecDeque::from([9, 1]));
    }

    #[test]
    fn two_threads_hand_off_ten_thousand_messages_in_order() {
        const MESSAGES: u64 = 10_000;
        let (tx, rx) = wire();
        let mut got = VecDeque::new();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for i in 0..MESSAGES {
                    tx.send(i);
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
