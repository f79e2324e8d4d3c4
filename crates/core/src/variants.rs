//! MPSC and SPMC variants of the Turn queue.
//!
//! The paper (§2.1, §2.3, §5) points out that the two halves of the Turn
//! queue are independent: "the algorithm for enqueueing is independent from
//! the algorithm for dequeuing which means it can be used to make a SPMC or
//! MPSC queue, or plugged in with other enqueuing/dequeueing algorithms
//! that use singly-linked lists". This module is that plug-in point made
//! concrete:
//!
//! * [`TurnMpscQueue`] — the wait-free-bounded Turn *enqueue* combined with
//!   a trivial exclusive-consumer dequeue;
//! * [`TurnSpmcQueue`] — a trivial exclusive-producer enqueue combined with
//!   the wait-free-bounded Turn *dequeue*.
//!
//! Exclusivity of the single side is enforced at run time: the consumer
//! (resp. producer) endpoint is claimed through a guard object and released
//! when the guard drops.

use std::marker::PhantomData;
use turnq_sync::atomic::AtomicBool;
use turnq_sync::ord;
use turnq_telemetry::{CounterId, OpKey};

use crate::queue::TurnQueue;

/// Multi-producer / single-consumer Turn queue.
///
/// Producers get the full wait-free-bounded Turn enqueue (helping and all);
/// the consumer side is a plain head walk, which is wait-free population
/// oblivious — it needs no consensus because there is no other dequeuer.
///
/// ```
/// use turn_queue::TurnMpscQueue;
///
/// let q: TurnMpscQueue<u32> = TurnMpscQueue::with_max_threads(4);
/// q.enqueue(7);
/// let mut consumer = q.consumer().unwrap();
/// assert_eq!(consumer.dequeue(), Some(7));
/// assert_eq!(consumer.dequeue(), None);
/// ```
pub struct TurnMpscQueue<T> {
    inner: TurnQueue<T>,
    consumer_claimed: AtomicBool,
}

impl<T> TurnMpscQueue<T> {
    /// Create a queue for at most `max_threads` threads, producers and the
    /// consumer combined.
    pub fn with_max_threads(max_threads: usize) -> Self {
        let mut inner = TurnQueue::with_max_threads(max_threads);
        // The consumer walk retires every head it passes, the sentinel
        // included, so `TurnQueue::drop` must not free it too.
        inner.sentinel = std::ptr::null_mut();
        TurnMpscQueue {
            inner,
            consumer_claimed: AtomicBool::new(false),
        }
    }

    /// Wait-free-bounded enqueue (paper Algorithm 2), callable from any
    /// registered thread.
    #[inline]
    pub fn enqueue(&self, item: T) {
        let tid = self.inner.registry.current_index();
        self.inner.enqueue_with(tid, item);
    }

    /// Racy emptiness hint (consumer-side `dequeue()` returning `None` is
    /// the authoritative check). True when no *visible* item is linked.
    pub fn is_empty(&self) -> bool {
        // ORDERING(vr.empty-head): ACQUIRE — the dereference below needs
        // the node's initialization (published by the release half of the
        // store/CAS that installed it); the answer itself is a racy hint.
        // pairs=vr.head-advance
        let head = self.inner.head.load(ord::ACQUIRE);
        // SAFETY(endpoint-exclusive): the consumer is the only thread that
        // frees nodes, so the head cannot be freed between this load and
        // the dereference — at worst this is a stale answer, which a hint
        // permits.
        // ORDERING(q.next-read): ACQUIRE — null-or-linked hint; pairs with
        // the link. pairs=q.link-cas
        unsafe { &*head }.next.load(ord::ACQUIRE).is_null()
    }

    /// The `max_threads` bound.
    pub fn max_threads(&self) -> usize {
        self.inner.max_threads
    }

    /// Telemetry aggregate of the underlying Turn queue (the wait-free
    /// enqueue side records ops, helping and CAS-retry counters; the
    /// exclusive consumer walk records its op counters and latency under
    /// the slow-path dequeue key — it is the only dequeue path here).
    pub fn telemetry_snapshot(&self) -> turnq_telemetry::TelemetrySnapshot {
        self.inner.telemetry_snapshot()
    }

    /// Claim the consumer endpoint. Returns `None` if it is already
    /// claimed. The endpoint is released when the returned guard drops.
    pub fn consumer(&self) -> Option<MpscConsumer<'_, T>> {
        // ORDERING(vr.claim-cas): ACQ_REL / ACQUIRE — endpoint claim:
        // acquire pairs with the releasing store of a previous guard's
        // drop (so this consumer sees its predecessor's head advances);
        // release publishes the claim itself. pairs=vr.claim-release
        if self
            .consumer_claimed
            .compare_exchange(false, true, ord::ACQ_REL, ord::ACQUIRE)
            .is_ok()
        {
            let tid = self.inner.registry.current_index();
            Some(MpscConsumer {
                queue: self,
                tid,
                _not_send: PhantomData,
            })
        } else {
            None
        }
    }
}

// SAFETY(send-sync): same argument as TurnQueue (delegated state).
unsafe impl<T: Send> Send for TurnMpscQueue<T> {}
unsafe impl<T: Send> Sync for TurnMpscQueue<T> {}

/// Exclusive consumer endpoint of a [`TurnMpscQueue`].
pub struct MpscConsumer<'a, T> {
    queue: &'a TurnMpscQueue<T>,
    tid: usize,
    _not_send: PhantomData<*const ()>,
}

impl<T> MpscConsumer<'_, T> {
    /// Dequeue the head item. Completes in a constant number of steps
    /// (wait-free population oblivious): with a single consumer there is
    /// nothing to reach consensus about.
    #[inline]
    pub fn dequeue(&mut self) -> Option<T> {
        let inner = &self.queue.inner;
        let timer = inner.op_timer();
        // ORDERING(vr.head-own): RELAXED — single-consumer contract: only
        // this endpoint ever advances head, so this reads back our own
        // last store (or the claim handoff, ordered by the endpoint CAS).
        let lhead = inner.head.load(ord::RELAXED);
        // SAFETY(endpoint-exclusive): only this consumer retires nodes,
        // and it retires a node strictly after moving head past it, so the
        // current head is alive.
        // ORDERING(q.next-read): ACQUIRE — pairs with the enqueuers'
        // linking CAS release; makes the node's payload visible to
        // take_item below. pairs=q.link-cas
        let lnext = unsafe { &*lhead }.next.load(ord::ACQUIRE);
        if lnext.is_null() {
            inner.telemetry.bump(self.tid, CounterId::DeqEmpty);
            inner.finish_op(self.tid, &timer, OpKey::DeqSlow);
            return None;
        }
        // SAFETY(endpoint-exclusive): lnext is reachable from the live
        // head; nothing retires it before we advance head past it below.
        let item = unsafe { (*lnext).take_item() };
        debug_assert!(item.is_some());
        // ORDERING(vr.head-advance): RELEASE — publishes the advance to
        // the is_empty hint and to a successor consumer (via the endpoint
        // claim CAS); no other protocol step reads head in MPSC mode.
        // pairs=vr.empty-head
        inner.head.store(lnext, ord::RELEASE);
        // The old head may still be protected by an enqueuer whose tail
        // snapshot lags (tail can point at the before-last node, Inv. 3),
        // so retirement must go through the HP domain.
        // SAFETY(retire-unique): lhead is now unreachable: head moved
        // past it, and its enqueuers slot was cleared before lnext could
        // be linked after it (paper lines 12-15). Retired exactly once
        // (only we retire).
        unsafe { inner.hp.retire(self.tid, lhead) };
        inner.record_dequeue(self.tid, 0, &timer, OpKey::DeqSlow);
        item
    }
}

impl<T> Drop for MpscConsumer<'_, T> {
    fn drop(&mut self) {
        // ORDERING(vr.claim-release): RELEASE — hands our head advances
        // to the next claimant (whose claim CAS acquires).
        // pairs=vr.claim-cas
        self.queue.consumer_claimed.store(false, ord::RELEASE);
    }
}

/// Single-producer / multi-consumer Turn queue.
///
/// Consumers get the full wait-free-bounded Turn dequeue (requests,
/// helping, giveup); the producer side is a plain link-and-advance, which
/// is wait-free population oblivious.
///
/// ```
/// use turn_queue::TurnSpmcQueue;
///
/// let q: TurnSpmcQueue<u32> = TurnSpmcQueue::with_max_threads(4);
/// let mut producer = q.producer().unwrap();
/// producer.enqueue(7);
/// assert_eq!(q.dequeue(), Some(7));
/// assert_eq!(q.dequeue(), None);
/// ```
pub struct TurnSpmcQueue<T> {
    inner: TurnQueue<T>,
    producer_claimed: AtomicBool,
}

impl<T> TurnSpmcQueue<T> {
    /// Create a queue for at most `max_threads` threads, consumers and the
    /// producer combined.
    pub fn with_max_threads(max_threads: usize) -> Self {
        TurnSpmcQueue {
            inner: TurnQueue::with_max_threads(max_threads),
            producer_claimed: AtomicBool::new(false),
        }
    }

    /// Wait-free-bounded dequeue (paper Algorithm 3), callable from any
    /// registered thread.
    #[inline]
    pub fn dequeue(&self) -> Option<T> {
        let tid = self.inner.registry.current_index();
        self.inner.dequeue_with(tid)
    }

    /// Racy emptiness hint.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// The `max_threads` bound.
    pub fn max_threads(&self) -> usize {
        self.inner.max_threads
    }

    /// Telemetry aggregate of the underlying Turn queue (the wait-free
    /// dequeue side records ops, helping and CAS-retry counters; the
    /// exclusive producer link-and-advance records its op counters and
    /// latency under the slow-path enqueue key — its only path).
    pub fn telemetry_snapshot(&self) -> turnq_telemetry::TelemetrySnapshot {
        self.inner.telemetry_snapshot()
    }

    /// Claim the producer endpoint. Returns `None` if it is already
    /// claimed. The endpoint is released when the returned guard drops.
    pub fn producer(&self) -> Option<SpmcProducer<'_, T>> {
        // ORDERING(vr.claim-cas): ACQ_REL / ACQUIRE — endpoint claim; see
        // consumer(). pairs=vr.claim-release
        if self
            .producer_claimed
            .compare_exchange(false, true, ord::ACQ_REL, ord::ACQUIRE)
            .is_ok()
        {
            let tid = self.inner.registry.current_index();
            Some(SpmcProducer {
                queue: self,
                tid: tid as u32,
                _not_send: PhantomData,
            })
        } else {
            None
        }
    }
}

// SAFETY(send-sync): same argument as TurnQueue (delegated state).
unsafe impl<T: Send> Send for TurnSpmcQueue<T> {}
unsafe impl<T: Send> Sync for TurnSpmcQueue<T> {}

/// Exclusive producer endpoint of a [`TurnSpmcQueue`].
pub struct SpmcProducer<'a, T> {
    queue: &'a TurnSpmcQueue<T>,
    tid: u32,
    _not_send: PhantomData<*const ()>,
}

impl<T> SpmcProducer<'_, T> {
    /// Enqueue an item. Constant number of steps (wait-free population
    /// oblivious): with a single producer, `tail` is privately owned.
    #[inline]
    pub fn enqueue(&mut self, item: T) {
        let inner = &self.queue.inner;
        let timer = inner.op_timer();
        // Reuse a recycled node from this producer's pool list when one is
        // available (the pool's acquire is also O(1), so the progress bound
        // is unchanged).
        let node = inner.alloc_node(self.tid as usize, Some(item));
        // Only this producer writes tail, so the load needs no validation.
        // ORDERING(vr.tail-own): RELAXED — single-producer contract:
        // reads back our own last store (or the claim handoff, ordered by
        // the endpoint CAS).
        let ltail = inner.tail.load(ord::RELAXED);
        // SAFETY(endpoint-exclusive): dequeuers retire only nodes strictly
        // behind head, and head never passes tail (a dequeuer that sees
        // head == tail takes the empty path), so the tail node is alive.
        // ORDERING(q.link-cas): RELEASE — the single-producer form of the
        // linking CAS: publishes the node's payload to the dequeuers'
        // acquire loads of `next`. pairs=q.next-read,q.fast-empty-check
        unsafe { &*ltail }.next.store(node, ord::RELEASE);
        // Publishing tail *after* the link preserves Inv. 3 (tail points to
        // the last or before-last node), which the Turn dequeue relies on
        // for its emptiness check.
        // ORDERING(q.tail-advance): SEQ_CST — stands in for the full
        // queue's tail-advance CAS: the dequeue-side head == tail
        // emptiness check (Inv. 11) reads tail in the single total order,
        // so the publication must participate in it too.
        // pairs=q.empty-check
        inner.tail.store(node, ord::SEQ_CST);
        inner.record_enqueue(self.tid as usize, 0, &timer, OpKey::EnqSlow);
    }
}

impl<T> Drop for SpmcProducer<'_, T> {
    fn drop(&mut self) {
        // ORDERING(vr.claim-release): RELEASE — hands our tail advances
        // to the next claimant (whose claim CAS acquires).
        // pairs=vr.claim-cas
        self.queue.producer_claimed.store(false, ord::RELEASE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn mpsc_fifo_single_thread() {
        let q: TurnMpscQueue<u32> = TurnMpscQueue::with_max_threads(2);
        assert!(q.is_empty());
        let mut c = q.consumer().unwrap();
        assert_eq!(c.dequeue(), None);
        q.enqueue(1);
        q.enqueue(2);
        assert!(!q.is_empty());
        assert_eq!(c.dequeue(), Some(1));
        assert_eq!(c.dequeue(), Some(2));
        assert_eq!(c.dequeue(), None);
    }

    #[test]
    fn mpsc_consumer_is_exclusive() {
        let q: TurnMpscQueue<u32> = TurnMpscQueue::with_max_threads(2);
        let c = q.consumer().unwrap();
        assert!(q.consumer().is_none(), "second claim must fail");
        drop(c);
        assert!(q.consumer().is_some(), "released after drop");
    }

    #[test]
    fn mpsc_multi_producer_delivery() {
        const PRODUCERS: usize = 3;
        const PER: u64 = 2_000;
        let q: Arc<TurnMpscQueue<u64>> =
            Arc::new(TurnMpscQueue::with_max_threads(PRODUCERS + 1));
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..PER {
                        q.enqueue((p as u64) << 32 | i);
                    }
                });
            }
            let mut c = q.consumer().unwrap();
            let mut got = Vec::new();
            let mut last_per_producer = [None::<u64>; PRODUCERS];
            while got.len() < PRODUCERS * PER as usize {
                if let Some(v) = c.dequeue() {
                    let (p, i) = ((v >> 32) as usize, v & 0xffff_ffff);
                    // Per-producer FIFO.
                    if let Some(prev) = last_per_producer[p] {
                        assert!(i > prev, "producer {p} reordered: {prev} then {i}");
                    }
                    last_per_producer[p] = Some(i);
                    got.push(v);
                } else {
                    std::thread::yield_now();
                }
            }
            got.sort_unstable();
            got.dedup();
            assert_eq!(got.len(), PRODUCERS * PER as usize);
        });
    }

    #[test]
    fn spmc_fifo_single_thread() {
        let q: TurnSpmcQueue<u32> = TurnSpmcQueue::with_max_threads(2);
        let mut p = q.producer().unwrap();
        assert_eq!(q.dequeue(), None);
        p.enqueue(1);
        p.enqueue(2);
        assert_eq!(q.dequeue(), Some(1));
        assert_eq!(q.dequeue(), Some(2));
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn spmc_producer_is_exclusive() {
        let q: TurnSpmcQueue<u32> = TurnSpmcQueue::with_max_threads(2);
        let p = q.producer().unwrap();
        assert!(q.producer().is_none());
        drop(p);
        assert!(q.producer().is_some());
    }

    #[test]
    fn spmc_multi_consumer_delivery() {
        const CONSUMERS: usize = 3;
        const TOTAL: u64 = 6_000;
        let q: Arc<TurnSpmcQueue<u64>> =
            Arc::new(TurnSpmcQueue::with_max_threads(CONSUMERS + 1));
        let received = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    let mut p = q.producer().unwrap();
                    for i in 0..TOTAL {
                        p.enqueue(i);
                    }
                });
            }
            let mut sinks = Vec::new();
            for _ in 0..CONSUMERS {
                let q = Arc::clone(&q);
                let received = Arc::clone(&received);
                sinks.push(s.spawn(move || {
                    let mut got = Vec::new();
                    while received.load(Ordering::SeqCst) < TOTAL as usize {
                        if let Some(v) = q.dequeue() {
                            received.fetch_add(1, Ordering::SeqCst);
                            got.push(v);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    got
                }));
            }
            let mut all: Vec<u64> = sinks
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect();
            // Single producer: the union across consumers must be exactly
            // 0..TOTAL with no duplicates.
            all.sort_unstable();
            let expected: Vec<u64> = (0..TOTAL).collect();
            assert_eq!(all, expected);
        });
    }

    #[test]
    fn mpsc_drop_frees_pending_items() {
        struct D(Arc<AtomicUsize>);
        impl Drop for D {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let q: TurnMpscQueue<D> = TurnMpscQueue::with_max_threads(2);
            for _ in 0..5 {
                q.enqueue(D(Arc::clone(&drops)));
            }
            let mut c = q.consumer().unwrap();
            drop(c.dequeue());
        }
        assert_eq!(drops.load(Ordering::SeqCst), 5);
    }
}
