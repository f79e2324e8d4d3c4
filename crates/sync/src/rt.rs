//! Model-checking runtime: a cooperative scheduler with step accounting
//! and a happens-before race detector (compiled only with `modelcheck`).
//!
//! ## Execution model
//!
//! A [`ThreadPool`] owns `n` real OS worker threads, but at most **one**
//! worker runs at any instant: each instrumented shared-memory access
//! (see `instrumented.rs`) parks the worker and hands control back to the
//! controller, which asks a [`Chooser`] which parked worker runs next.
//! One *step* therefore equals one shared-memory access, executed under
//! sequential consistency — the strongest memory model, which is sound
//! for finding linearizability violations that survive even under SC and
//! matches the paper's SC-style pseudo-code. (Weak-memory reorderings are
//! out of scope; Miri and ThreadSanitizer cover those axes in CI.)
//!
//! The sequence of `(runnable set, choice)` pairs fully determines a run,
//! so an explorer can do exhaustive DFS over schedules, bound
//! preemptions, or replay a failing schedule printed by a test.
//!
//! ## Step accounting
//!
//! `steps[t]` counts the shared-memory accesses thread `t` has performed.
//! The `turnq-modelcheck` crate reads it before and after each queue
//! operation to machine-check the paper's wait-freedom claim: every
//! enqueue/dequeue finishes within a bound that is `O(MAX_THREADS)`
//! helping iterations of `O(MAX_THREADS · K)` accesses each.
//!
//! ## Race detection
//!
//! Per-thread vector clocks, merged through atomic locations — and, since
//! the per-site ordering-relaxation pass, **ordering-aware**: only an
//! *acquiring* load (`Acquire`/`AcqRel`/`SeqCst`) joins the location's
//! release clock, and only a *releasing* store (`Release`/`SeqCst`)
//! publishes the thread's clock into it; an RMW does each side according
//! to its ordering. A `Relaxed` access still participates in the
//! plain-vs-atomic race check but carries **no** happens-before edge, so
//! a site that was weakened from `Acquire` to `Relaxed` where an edge is
//! load-bearing (e.g. the dequeue's `next` read that guards the plain
//! `take_item`) now produces a reported race — see the `weak-ordering`
//! mutant in `turnq-modelcheck`.
//!
//! Two deliberate approximations, both conservative in the direction of
//! *fewer false positives* (they can hide at most exotic relaxed-store
//! races, never invent one):
//!
//! * a `Relaxed` store leaves the location's release clock in place
//!   (pre-C++17 release-sequence semantics) instead of clearing it;
//! * fences are ignored — the workspace's only fence (the retire scan's
//!   `SeqCst` fence) adds ordering on top of accesses the detector
//!   already tracks via acquire loads.
//!
//! Plain accesses (`UnsafeCell::get`, `Atomic*::get_mut`) are
//! conservatively treated as writes and must be ordered by happens-before
//! against *every* other thread's accesses to the same location — exactly
//! the obligation the node pool's owner-only fast paths discharge via the
//! hazard-pointer scan, and the first thing to break if that protocol is
//! miscoded. A *declared* plain read (`UnsafeCell::get_shared`, used for
//! publish-then-immutable data like the segment mode's ring payload) gets
//! the precise read rules instead: it races with unordered plain writes
//! and atomic writes, may be concurrent with atomic loads and other plain
//! reads, and every later writer must be ordered after it.

use std::cell::Cell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// Diagnostic access trace, enabled by setting `TURNQ_MC_TRACE=1` in the
/// environment. Prints every recorded shared-memory access to stderr so a
/// reported race's addresses can be mapped back to the fields involved.
fn trace_enabled() -> bool {
    static TRACE: OnceLock<bool> = OnceLock::new();
    *TRACE.get_or_init(|| std::env::var_os("TURNQ_MC_TRACE").is_some())
}

/// Kind of an instrumented atomic access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Acc {
    /// Atomic load (including a failed CAS).
    Load,
    /// Atomic store.
    Store,
    /// Successful read-modify-write (successful CAS, swap, fetch-and-add).
    Rmw,
}

/// A vector clock over the run's worker threads.
#[derive(Clone, Debug, PartialEq, Eq)]
struct VClock(Vec<u64>);

impl VClock {
    fn new(n: usize) -> Self {
        VClock(vec![0; n])
    }
    fn tick(&mut self, me: usize) {
        self.0[me] += 1;
    }
    fn join(&mut self, other: &VClock) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(*b);
        }
    }
    /// `self` happens-before-or-equals `other`.
    fn le(&self, other: &VClock) -> bool {
        self.0.iter().zip(&other.0).all(|(a, b)| a <= b)
    }
    fn get(&self, i: usize) -> u64 {
        self.0[i]
    }
}

/// Per-location detector state.
struct LocState {
    /// Release clock: joined into a reader's clock on atomic load.
    vc: VClock,
    /// `last_atomic[t]` = `t`'s own clock component at its most recent
    /// atomic access to this location.
    last_atomic: Vec<u64>,
    /// `last_atomic_write[t]` = `t`'s own clock component at its most
    /// recent atomic *store or RMW* to this location (a subset of
    /// `last_atomic`, used by the plain-read rule: a shared read may be
    /// concurrent with atomic loads, never with atomic writes).
    last_atomic_write: Vec<u64>,
    /// Most recent plain access (thread, its clock at the access).
    plain_write: Option<(usize, VClock)>,
    /// `last_plain_read[t]` = `t`'s own clock component at its most recent
    /// *declared* plain read ([`record_plain_read`]). Writers of any kind
    /// must be ordered after it.
    last_plain_read: Vec<u64>,
}

impl LocState {
    fn new(n: usize) -> Self {
        LocState {
            vc: VClock::new(n),
            last_atomic: vec![0; n],
            last_atomic_write: vec![0; n],
            plain_write: None,
            last_plain_read: vec![0; n],
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WStatus {
    /// No job this run.
    Idle,
    /// At a scheduling point, waiting to be picked.
    Parked,
    /// The single currently-executing worker.
    Running,
    /// Job finished (normally or by panic).
    Finished,
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// One scheduling decision, as recorded during a run.
#[derive(Clone, Debug)]
pub struct Decision {
    /// Parked workers at this point, ascending by thread index.
    pub runnable: Vec<usize>,
    /// Index *into `runnable`* that was chosen.
    pub chosen: usize,
    /// The previously running thread, if still mid-job.
    pub current: Option<usize>,
}

/// Everything observed during one scheduled run.
#[derive(Debug)]
pub struct RunOutcome {
    /// The decision sequence that reproduces this run.
    pub decisions: Vec<Decision>,
    /// Shared-memory accesses per worker.
    pub steps: Vec<u64>,
    /// Total shared-memory accesses.
    pub total_steps: u64,
    /// Happens-before violations found by the race detector.
    pub races: Vec<String>,
    /// Worker panic messages (assertion failures inside queue code, or
    /// the step-limit valve).
    pub panics: Vec<String>,
    /// True when the per-run step limit tripped (possible livelock).
    pub step_limit_hit: bool,
}

/// Picks which parked worker runs next. `choose` returns an index into
/// `runnable` (ascending thread ids); `current` is the thread that took
/// the previous step, when it is still runnable a chooser returning it
/// models "no preemption".
pub trait Chooser {
    fn choose(&mut self, runnable: &[usize], current: Option<usize>) -> usize;
}

struct State {
    shutdown: bool,
    jobs: Vec<Option<Job>>,
    wstatus: Vec<WStatus>,
    active: Option<usize>,
    time: u64,
    steps: Vec<u64>,
    total_steps: u64,
    step_limit: u64,
    step_limit_hit: bool,
    thread_vc: Vec<VClock>,
    locs: HashMap<usize, LocState>,
    races: Vec<String>,
    panics: Vec<String>,
    /// The controller's planted mutants for this run ([`plant`]).
    planted: &'static [&'static str],
}

const MAX_RACE_REPORTS: usize = 8;

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for a job or for `active == me`.
    work_cv: Condvar,
    /// The controller waits here for the active worker to park or finish.
    ctrl_cv: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

struct Ctx {
    shared: Arc<Shared>,
    me: usize,
}

thread_local! {
    static CTX: std::cell::RefCell<Option<Ctx>> = const { std::cell::RefCell::new(None) };
    /// Mutant sites planted for the calling thread's run ([`plant`]).
    /// Per thread, so explorations running side by side in one test
    /// binary never see each other's mutants.
    static PLANTED: Cell<&'static [&'static str]> = const { Cell::new(&[]) };
}

/// Whether `site` is planted for the calling thread ([`crate::mutant`]).
pub(crate) fn planted(site: &'static str) -> bool {
    PLANTED
        .try_with(|p| p.get().contains(&site))
        .unwrap_or(false)
}

/// Plant the mutant `sites` on the calling thread until the returned
/// guard drops; every [`ThreadPool::run`] it starts meanwhile plants the
/// same sites on its workers.
pub fn plant(sites: &'static [&'static str]) -> Planted {
    Planted {
        prev: PLANTED.with(|p| p.replace(sites)),
        _not_send: PhantomData,
    }
}

/// Guard of [`plant`]: restores the thread's previous planted set.
pub struct Planted {
    prev: &'static [&'static str],
    _not_send: PhantomData<*const ()>,
}

impl Drop for Planted {
    fn drop(&mut self) {
        PLANTED.with(|p| p.set(self.prev));
    }
}

/// True when the calling thread is a scheduled model-check worker.
pub fn in_controlled_thread() -> bool {
    CTX.try_with(|c| c.borrow().is_some()).unwrap_or(false)
}

/// Scheduling point: park until the controller picks this thread, then
/// charge one step. No-op outside a controlled worker.
#[inline]
pub fn sync_point() {
    let _ = CTX.try_with(|c| {
        if let Some(ctx) = c.borrow().as_ref() {
            park(&ctx.shared, ctx.me, true);
        }
    });
}

fn park(shared: &Shared, me: usize, count_step: bool) {
    let mut st = shared.lock();
    st.wstatus[me] = WStatus::Parked;
    st.active = None;
    shared.ctrl_cv.notify_one();
    while st.active != Some(me) {
        st = shared
            .work_cv
            .wait(st)
            .unwrap_or_else(PoisonError::into_inner);
    }
    st.wstatus[me] = WStatus::Running;
    if count_step {
        st.time += 1;
        st.steps[me] += 1;
        st.total_steps += 1;
        st.thread_vc[me].tick(me);
        if st.total_steps > st.step_limit && !st.step_limit_hit {
            st.step_limit_hit = true;
            let limit = st.step_limit;
            drop(st);
            panic!("modelcheck: step limit ({limit}) exceeded — possible livelock or unbounded loop");
        }
    }
}

/// Whether an access with this ordering *acquires* (joins the location's
/// release clock on its read side).
fn acquires(order: Ordering) -> bool {
    matches!(order, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

/// Whether an access with this ordering *releases* (publishes the
/// thread's clock on its write side).
fn releases(order: Ordering) -> bool {
    matches!(order, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

/// Record an atomic access for happens-before tracking. Must be called by
/// the worker that just performed the access, before its next sync point.
/// `order` is the ordering the access actually used — for a CAS, the
/// success ordering on success and the failure ordering on failure.
///
/// Ordering semantics (the serialized scheduler makes "reads-from" exact:
/// a load always reads the latest store):
///
/// * acquiring load — joins the location's release clock;
/// * releasing store — replaces the location's release clock with the
///   thread's (exact: a store ends any prior release sequence);
/// * releasing RMW — joins the thread's clock *into* the release clock
///   (RMWs continue a release sequence, so earlier release stores stay
///   visible to later acquirers);
/// * `Relaxed` — no edge either way; the access still updates
///   `last_atomic` so plain accesses must be ordered against it.
pub(crate) fn record_atomic(loc: usize, acc: Acc, order: Ordering) {
    let _ = CTX.try_with(|c| {
        if let Some(ctx) = c.borrow().as_ref() {
            let me = ctx.me;
            let mut guard = ctx.shared.lock();
            let st = &mut *guard;
            let n = st.thread_vc.len();
            let ls = st.locs.entry(loc).or_insert_with(|| LocState::new(n));
            let my = &mut st.thread_vc[me];
            if trace_enabled() {
                eprintln!("[mc t={} T{me}] atomic {acc:?} ({order:?}) @ {loc:#x}", st.time);
            }
            // An atomic access races with an unordered plain access by
            // another thread; an atomic *write* additionally races with an
            // unordered declared plain read.
            let mut races = Vec::new();
            if let Some((wt, wvc)) = &ls.plain_write {
                if *wt != me && !wvc.le(my) {
                    races.push(format!(
                        "atomic {acc:?} ({order:?}) by T{me} at {loc:#x} races with plain \
                         access by T{wt} (no happens-before edge)"
                    ));
                }
            }
            if matches!(acc, Acc::Store | Acc::Rmw) {
                for (u, &lr) in ls.last_plain_read.iter().enumerate() {
                    if u != me && lr > my.get(u) {
                        races.push(format!(
                            "atomic {acc:?} ({order:?}) by T{me} at {loc:#x} races with \
                             plain read by T{u} (no happens-before edge)"
                        ));
                    }
                }
            }
            match acc {
                Acc::Load => {
                    if acquires(order) {
                        my.join(&ls.vc);
                    }
                }
                Acc::Store => {
                    if releases(order) {
                        // Under the serialized scheduler a later load reads
                        // exactly this store, so release-replace is exact.
                        ls.vc = my.clone();
                    }
                    // Relaxed store: keep the previous release clock
                    // (conservative; see module docs).
                }
                Acc::Rmw => {
                    if acquires(order) {
                        my.join(&ls.vc);
                    }
                    if releases(order) {
                        // Join, don't replace: an RMW continues the
                        // release sequence of the store it read.
                        let mine = my.clone();
                        ls.vc.join(&mine);
                    }
                }
            }
            ls.last_atomic[me] = st.thread_vc[me].get(me);
            if matches!(acc, Acc::Store | Acc::Rmw) {
                ls.last_atomic_write[me] = st.thread_vc[me].get(me);
            }
            for msg in races {
                if st.races.len() < MAX_RACE_REPORTS {
                    st.races.push(msg);
                }
            }
        }
    });
}

/// Record a plain (non-atomic) access, conservatively as a write.
pub(crate) fn record_plain(loc: usize) {
    let _ = CTX.try_with(|c| {
        if let Some(ctx) = c.borrow().as_ref() {
            let me = ctx.me;
            let mut guard = ctx.shared.lock();
            let st = &mut *guard;
            st.thread_vc[me].tick(me);
            let n = st.thread_vc.len();
            let my = st.thread_vc[me].clone();
            let ls = st.locs.entry(loc).or_insert_with(|| LocState::new(n));
            if trace_enabled() {
                eprintln!("[mc t={} T{me}] plain @ {loc:#x}", st.time);
            }
            let mut races = Vec::new();
            for (u, &la) in ls.last_atomic.iter().enumerate() {
                if u != me && la > my.get(u) {
                    races.push(format!(
                        "plain access by T{me} at {loc:#x} races with atomic access by T{u} \
                         (no happens-before edge)"
                    ));
                }
            }
            if let Some((wt, wvc)) = &ls.plain_write {
                if *wt != me && !wvc.le(&my) {
                    races.push(format!(
                        "plain access by T{me} at {loc:#x} races with plain access by T{wt} \
                         (no happens-before edge)"
                    ));
                }
            }
            for (u, &lr) in ls.last_plain_read.iter().enumerate() {
                if u != me && lr > my.get(u) {
                    races.push(format!(
                        "plain access by T{me} at {loc:#x} races with plain read by T{u} \
                         (no happens-before edge)"
                    ));
                }
            }
            ls.plain_write = Some((me, my));
            for msg in races {
                if st.races.len() < MAX_RACE_REPORTS {
                    st.races.push(msg);
                }
            }
        }
    });
}

/// Record a *declared* plain read ([`UnsafeCell::get_shared`] /
/// `cell::shared_read_ptr`): a non-atomic access the caller promises only
/// reads through.
///
/// Sound race rules for a read: it races with any *write* it is not
/// ordered against — a plain write ([`record_plain`]) or an atomic
/// store/RMW — and writers of any kind that follow must in turn be
/// ordered after it (checked in `record_plain`/`record_atomic` via
/// `last_plain_read`). Unlike `record_plain` it does **not** race with
/// atomic loads or with other plain reads, which is what admits the
/// segment mode's publish-then-immutable ring pointer (read concurrently
/// by every thread under hazard-pointer cover) without weakening any
/// write-side obligation.
pub(crate) fn record_plain_read(loc: usize) {
    let _ = CTX.try_with(|c| {
        if let Some(ctx) = c.borrow().as_ref() {
            let me = ctx.me;
            let mut guard = ctx.shared.lock();
            let st = &mut *guard;
            st.thread_vc[me].tick(me);
            let n = st.thread_vc.len();
            let my = st.thread_vc[me].clone();
            let ls = st.locs.entry(loc).or_insert_with(|| LocState::new(n));
            if trace_enabled() {
                eprintln!("[mc t={} T{me}] plain read @ {loc:#x}", st.time);
            }
            let mut races = Vec::new();
            for (u, &law) in ls.last_atomic_write.iter().enumerate() {
                if u != me && law > my.get(u) {
                    races.push(format!(
                        "plain read by T{me} at {loc:#x} races with atomic write by T{u} \
                         (no happens-before edge)"
                    ));
                }
            }
            if let Some((wt, wvc)) = &ls.plain_write {
                if *wt != me && !wvc.le(&my) {
                    races.push(format!(
                        "plain read by T{me} at {loc:#x} races with plain access by T{wt} \
                         (no happens-before edge)"
                    ));
                }
            }
            ls.last_plain_read[me] = my.get(me);
            for msg in races {
                if st.races.len() < MAX_RACE_REPORTS {
                    st.races.push(msg);
                }
            }
        }
    });
}

/// Logical time = total steps so far this run. Monotone within a run;
/// used by the model-check harness to timestamp operation intervals for
/// the linearizability oracle.
pub fn logical_time() -> u64 {
    CTX.try_with(|c| {
        c.borrow()
            .as_ref()
            .map(|ctx| ctx.shared.lock().time)
            .unwrap_or(0)
    })
    .unwrap_or(0)
}

/// Shared-memory steps taken so far by the calling worker this run.
pub fn thread_steps() -> u64 {
    CTX.try_with(|c| {
        c.borrow()
            .as_ref()
            .map(|ctx| ctx.shared.lock().steps[ctx.me])
            .unwrap_or(0)
    })
    .unwrap_or(0)
}

/// A reusable pool of scheduled worker threads. Creating OS threads is
/// ~100µs; an explorer runs tens of thousands of schedules, so workers
/// are parked between runs instead of respawned.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    n: usize,
}

impl ThreadPool {
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "need at least one worker");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                shutdown: false,
                jobs: (0..n).map(|_| None).collect(),
                wstatus: vec![WStatus::Idle; n],
                active: None,
                time: 0,
                steps: vec![0; n],
                total_steps: 0,
                step_limit: u64::MAX,
                step_limit_hit: false,
                thread_vc: (0..n).map(|_| VClock::new(n)).collect(),
                locs: HashMap::new(),
                races: Vec::new(),
                panics: Vec::new(),
                planted: &[],
            }),
            work_cv: Condvar::new(),
            ctrl_cv: Condvar::new(),
        });
        let handles = (0..n)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mc-worker-{me}"))
                    .spawn(move || worker_main(shared, me))
                    .expect("spawn model-check worker")
            })
            .collect();
        ThreadPool { shared, handles, n }
    }

    pub fn threads(&self) -> usize {
        self.n
    }

    /// Execute `bodies` (one per worker) under `chooser`'s schedule and
    /// return everything observed. Deterministic given the decision
    /// sequence the chooser produces. The workers run with the calling
    /// thread's planted mutants ([`plant`]).
    pub fn run(
        &self,
        chooser: &mut dyn Chooser,
        bodies: Vec<Job>,
        step_limit: u64,
    ) -> RunOutcome {
        assert_eq!(bodies.len(), self.n, "one body per worker");
        let n = self.n;
        {
            let mut st = self.shared.lock();
            st.wstatus = vec![WStatus::Idle; n];
            st.active = None;
            st.time = 0;
            st.steps = vec![0; n];
            st.total_steps = 0;
            st.step_limit = step_limit;
            st.step_limit_hit = false;
            st.thread_vc = (0..n).map(|_| VClock::new(n)).collect();
            st.locs.clear();
            st.races.clear();
            st.panics.clear();
            st.planted = PLANTED.with(Cell::get);
            for (i, b) in bodies.into_iter().enumerate() {
                st.jobs[i] = Some(b);
            }
            self.shared.work_cv.notify_all();
        }
        // Wait for every worker to reach its initial park.
        let mut st = self.shared.lock();
        while !st.wstatus.iter().all(|w| *w == WStatus::Parked) {
            st = self
                .shared
                .ctrl_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let mut decisions = Vec::new();
        let mut current: Option<usize> = None;
        loop {
            while st.active.is_some() {
                st = self
                    .shared
                    .ctrl_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            let runnable: Vec<usize> = (0..n)
                .filter(|&i| st.wstatus[i] == WStatus::Parked)
                .collect();
            if runnable.is_empty() {
                if st.wstatus.iter().all(|w| *w == WStatus::Finished) {
                    break;
                }
                st = self
                    .shared
                    .ctrl_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            let pick = chooser.choose(&runnable, current);
            assert!(pick < runnable.len(), "chooser returned out-of-range index");
            let t = runnable[pick];
            decisions.push(Decision {
                runnable: runnable.clone(),
                chosen: pick,
                current,
            });
            current = Some(t);
            st.active = Some(t);
            self.shared.work_cv.notify_all();
        }
        let out = RunOutcome {
            decisions,
            steps: st.steps.clone(),
            total_steps: st.total_steps,
            races: std::mem::take(&mut st.races),
            panics: std::mem::take(&mut st.panics),
            step_limit_hit: st.step_limit_hit,
        };
        for w in st.wstatus.iter_mut() {
            *w = WStatus::Idle;
        }
        out
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock();
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_main(shared: Arc<Shared>, me: usize) {
    loop {
        let (job, planted) = {
            let mut st = shared.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(j) = st.jobs[me].take() {
                    break (j, st.planted);
                }
                st = shared
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        CTX.with(|c| {
            *c.borrow_mut() = Some(Ctx {
                shared: Arc::clone(&shared),
                me,
            })
        });
        PLANTED.with(|p| p.set(planted));
        // Initial park: not a step, just "ready at job start".
        park(&shared, me, false);
        let result = catch_unwind(AssertUnwindSafe(job));
        // Clear before touching any TLS destructors or finishing, so
        // late facade accesses (thread-registry caches) fall back to std.
        CTX.with(|c| *c.borrow_mut() = None);
        PLANTED.with(|p| p.set(&[]));
        let mut st = shared.lock();
        st.wstatus[me] = WStatus::Finished;
        st.active = None;
        if let Err(p) = result {
            let msg = if let Some(s) = p.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = p.downcast_ref::<String>() {
                s.clone()
            } else {
                "worker panicked with non-string payload".to_string()
            };
            st.panics.push(format!("T{me}: {msg}"));
        }
        shared.ctrl_cv.notify_one();
    }
}
