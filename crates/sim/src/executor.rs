//! The discrete-event executor.
//!
//! [`Sim`] is a deterministic, single-threaded executor for `!Send` futures.
//! Tasks advance only by awaiting simulated time ([`Sim::sleep`]) or
//! synchronization primitives from [`crate::sync`]; real wall-clock time
//! never enters the model. Determinism is guaranteed by:
//!
//! - a FIFO ready queue (tasks run in wake order),
//! - a timer heap ordered by `(deadline, insertion sequence)`, and
//! - a seeded pseudo-random number generator ([`crate::rng::SimRng`]).
//!
//! The design mirrors classical process-oriented simulation: each simulated
//! thread of control (an application writer, `nfs_flushd`, a server service
//! loop, a disk) is an async task, and blocking kernel behaviour maps onto
//! `await` points.
//!
//! # Hot path
//!
//! Two structures sit under every simulated event and are built for the
//! single-threaded case:
//!
//! - the ready queue is a plain `VecDeque` behind an [`std::cell::UnsafeCell`]
//!   ([`ReadyQueue`]) rather than a `Mutex` — the `Waker` contract forces
//!   `Send + Sync`, but every waker in this executor is created and invoked
//!   on the simulator's own thread, so the lock was pure overhead;
//! - pending timers live in a hierarchical timer wheel
//!   ([`crate::wheel::TimerWheel`]) instead of a binary heap: `O(1)`
//!   registration, `O(levels)` pops, and the exact
//!   `(deadline, registration-seq)` firing order the heap gave.

use std::cell::{Cell, RefCell, UnsafeCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

use crate::profile;
use crate::time::{SimDuration, SimTime};
use crate::wheel::TimerWheel;

/// Identifier of a spawned task.
pub type TaskId = usize;

/// Ready-queue entries with this bit set are encoded slab events, not
/// task ids (the task table can never reach 2^63 slots). The remaining
/// bits carry the event's slot index (low 32) and generation (next 31).
const EVENT_TAG: usize = 1 << (usize::BITS - 1);
/// Ready-queue entries with this bit set (and [`EVENT_TAG`] clear) are
/// direct dispatches: a pre-encoded `(route, handler, data)` triple with
/// no slab slot and no generation, for parked waits that are woken
/// exactly once and never cancelled (see [`Sim::direct_waker`]).
const DIRECT_TAG: usize = 1 << (usize::BITS - 2);
/// Generations are 31 bits so a tagged `(gen, slot)` pair plus the tag
/// fits one ready-queue word.
pub(crate) const EVENT_GEN_MASK: u32 = 0x7fff_ffff;
/// Direct words carry the handler in bits 32..48.
const DIRECT_HANDLER_MAX: u32 = 1 << 16;
/// Direct words carry the world's route (see [`DIRECT_ROUTES`]) in bits
/// 48..62, below [`DIRECT_TAG`].
const DIRECT_ROUTE_SHIFT: u32 = 48;
const DIRECT_ROUTE_MAX: usize = 1 << 14;
/// Wake words with this bit set (and both tags above clear) name a
/// foreign [`Waker`] parked in [`SimCore::foreign`] by index. They only
/// ever sit in the wheel or a wait cell, never in the ready queue; task
/// ids stay far below this bit.
pub(crate) const FOREIGN_TAG: usize = 1 << (usize::BITS - 3);
// The tagged encoding needs a 64-bit ready-queue word.
const _: () = assert!(usize::BITS == 64, "slab events need 64-bit usize");

// Wait-cell states that are not wake words: foreign indices stay below
// 2^32, so these sit in the foreign range and can never collide with a
// parked word.
/// A claimed cell with nothing parked and no wake delivered.
const CELL_EMPTY: u64 = (FOREIGN_TAG | (1 << 40)) as u64;
/// A woken cell (its parked word, if any, already fired).
const CELL_WOKEN: u64 = (FOREIGN_TAG | (2 << 40)) as u64;
/// A free cell; the low 32 bits link the next free cell.
const CELL_FREE: u64 = (FOREIGN_TAG | (3 << 40)) as u64;
/// End of the free-cell list.
const NO_CELL: u32 = u32::MAX;

#[inline]
pub(crate) fn encode_event(slot: u32, gen: u32) -> usize {
    EVENT_TAG | ((gen as usize) << 32) | slot as usize
}

#[inline]
pub(crate) fn encode_direct(route: usize, handler: u32, data: u32) -> usize {
    DIRECT_TAG | (route << DIRECT_ROUTE_SHIFT) | ((handler as usize) << 32) | data as usize
}

type LocalFuture = Pin<Box<dyn Future<Output = ()> + 'static>>;

/// The FIFO queue of task ids that have been woken and await polling.
///
/// This is the only piece of executor state a [`Waker`] touches, and
/// `Waker` requires `Send + Sync`, so it must present a shared-reference
/// API — but the simulator is single-threaded by construction: tasks are
/// `!Send`, every waker is created during a poll on the executor thread,
/// and [`crate::runner`] parallelizes only across whole `Sim` worlds,
/// each confined to one worker thread. A `Mutex` here is pure overhead on
/// the hottest path in the engine (every wake and every poll), so the
/// queue lives in an `UnsafeCell` with the single-thread invariant
/// asserted in debug builds.
struct ReadyQueue {
    queue: UnsafeCell<VecDeque<TaskId>>,
    /// The thread the owning `Sim` was created on; all pushes and pops
    /// must come from it.
    owner: std::thread::ThreadId,
}

// SAFETY: see the struct docs — all access is confined to `owner`. The
// executor never hands wakers to other threads (no I/O, no real timers),
// and a `Sim` cannot move threads because its core holds `Rc`s.
unsafe impl Send for ReadyQueue {}
unsafe impl Sync for ReadyQueue {}

impl Default for ReadyQueue {
    fn default() -> ReadyQueue {
        ReadyQueue {
            queue: UnsafeCell::new(VecDeque::new()),
            owner: std::thread::current().id(),
        }
    }
}

impl ReadyQueue {
    #[inline]
    fn assert_owner(&self) {
        debug_assert_eq!(
            std::thread::current().id(),
            self.owner,
            "Sim used from a thread other than the one that created it"
        );
    }

    #[inline]
    fn push(&self, id: TaskId) {
        self.assert_owner();
        // SAFETY: single-threaded access (asserted above); no reentrant
        // borrow — push/pop never call back into the queue.
        unsafe { (*self.queue.get()).push_back(id) };
    }

    #[inline]
    fn pop(&self) -> Option<TaskId> {
        self.assert_owner();
        // SAFETY: as in `push`.
        unsafe { (*self.queue.get()).pop_front() }
    }
}

/// Backing data for one task slot's waker.
///
/// Owned by [`SimCore::waker_data`] (one boxed instance per slot, alive
/// for the core's whole lifetime), so the waker vtable can be entirely
/// free of reference counting: `clone` copies the data pointer, `drop`
/// is a no-op, and `wake` pushes the slot id. Before this, every waker
/// operation paid an atomic `Arc` refcount — ~15% of the engine profile.
///
/// SAFETY contract (mirrors [`ReadyQueue`]): wakers built over this data
/// are only cloned, woken, and dropped on the core's own thread, and
/// never outlive the core — every holder (the timer wheel, wait nodes,
/// join states) lives inside a structure of the same simulated world.
struct WakerData {
    id: TaskId,
    ready: *const ReadyQueue,
}

static WAKER_VTABLE: RawWakerVTable = RawWakerVTable::new(
    // clone: identity — the data is owned by the core, not the waker.
    |data| RawWaker::new(data, &WAKER_VTABLE),
    // wake / wake_by_ref: reschedule the slot.
    |data| unsafe {
        let d = &*(data as *const WakerData);
        (*d.ready).push(d.id);
    },
    |data| unsafe {
        let d = &*(data as *const WakerData);
        (*d.ready).push(d.id);
    },
    // drop: no-op.
    |_| {},
);

/// Backing data for one event slot's waker (see [`ScheduledEvent`]),
/// built the first time [`Sim::event_waker`] parks the slot.
///
/// `gen` is refreshed every time the slot is armed once the data exists,
/// so waking pushes the generation current at arm time; a wake that
/// races a completed or cancelled arm pushes a stale generation and is
/// dropped at dispatch. The contract matches how every primitive in
/// [`crate::sync`] behaves: each parked waker is woken at most once per
/// arm.
///
/// SAFETY contract: identical to [`WakerData`] — single-threaded use,
/// owned by the core, outlives every clone.
struct EventWakerData {
    slot: u32,
    gen: Cell<u32>,
    ready: *const ReadyQueue,
}

static EVENT_WAKER_VTABLE: RawWakerVTable = RawWakerVTable::new(
    // clone: identity — the data is owned by the core.
    |data| RawWaker::new(data, &EVENT_WAKER_VTABLE),
    // wake / wake_by_ref: push the tagged (slot, armed-gen) entry.
    |data| unsafe {
        let d = &*(data as *const EventWakerData);
        (*d.ready).push(encode_event(d.slot, d.gen.get()));
    },
    |data| unsafe {
        let d = &*(data as *const EventWakerData);
        (*d.ready).push(encode_event(d.slot, d.gen.get()));
    },
    // drop: no-op.
    |_| {},
);

thread_local! {
    /// The ready queue of every live world on this thread that has handed
    /// out a direct waker, indexed by the world's route (null = free).
    /// A direct waker's data pointer is its whole ready-queue word, which
    /// names the route, so a waker needs no backing record at all.
    static DIRECT_ROUTES: RefCell<Vec<*const ReadyQueue>> = const { RefCell::new(Vec::new()) };
}

/// A world's slot in [`DIRECT_ROUTES`], claimed on its first
/// [`Sim::direct_waker`] and freed when the core drops.
struct DirectRoute(usize);

impl DirectRoute {
    fn register(ready: *const ReadyQueue) -> DirectRoute {
        DIRECT_ROUTES.with(|routes| {
            let mut routes = routes.borrow_mut();
            let route = match routes.iter().position(|r| r.is_null()) {
                Some(free) => free,
                None => {
                    routes.push(std::ptr::null());
                    routes.len() - 1
                }
            };
            assert!(
                route < DIRECT_ROUTE_MAX,
                "more than {DIRECT_ROUTE_MAX} live worlds with direct wakers on one thread"
            );
            routes[route] = ready;
            DirectRoute(route)
        })
    }
}

impl Drop for DirectRoute {
    fn drop(&mut self) {
        // `try_with`: a core dropped during thread teardown may outlive
        // the registry; nothing can wake through it by then.
        let _ = DIRECT_ROUTES.try_with(|routes| routes.borrow_mut()[self.0] = std::ptr::null());
    }
}

/// Pushes a direct waker's word onto its world's ready queue. Safe only
/// under the woken-at-most-once-per-park contract every primitive in
/// [`crate::sync`] (and the lane/server wait-cell handshakes built on
/// the same shape) provides: a parked direct waker fires once, and its owner
/// is guaranteed to still be parked at that stage when the dispatch
/// runs, so no generation check is needed.
fn wake_direct(word: usize) {
    let route = (word >> DIRECT_ROUTE_SHIFT) & (DIRECT_ROUTE_MAX - 1);
    DIRECT_ROUTES.with(|routes| {
        let ready = routes.borrow()[route];
        // A dropped world's route is null: its wakes go nowhere.
        if !ready.is_null() {
            // SAFETY: a non-null route points at the ready queue of a
            // live world, which frees the route before the queue drops;
            // like every other waker in this executor, a direct waker is
            // woken only on the thread that built it.
            unsafe { (*ready).push(word) }
        }
    });
}

static DIRECT_WAKER_VTABLE: RawWakerVTable = RawWakerVTable::new(
    // clone: identity — the data pointer is the word itself.
    |data| RawWaker::new(data, &DIRECT_WAKER_VTABLE),
    // wake / wake_by_ref: push the word.
    |data| wake_direct(data.addr()),
    |data| wake_direct(data.addr()),
    // drop: no-op.
    |_| {},
);

/// A wake word: everything a wheel timer or a [`WaitCell`] needs to
/// deliver one wake, in 64 bits.
///
/// - a task id (no tag): push it onto the ready queue, as the task's
///   cached waker would;
/// - an event code ([`EVENT_TAG`], `(slot, gen)` snapshot): push it;
/// - a direct word ([`DIRECT_TAG`], `(handler, data)`): push it, or off
///   the wheel dispatch it inline;
/// - a foreign index ([`FOREIGN_TAG`]): take that [`Waker`] out of the
///   side table and wake it.
///
/// [`Sim::wake_word_of`] classifies a waker by its vtable. Event-slot
/// wakers take the foreign path on purpose: they read the slot's
/// generation at wake time, and a word would snapshot it at park time.
/// Timers armed by [`Sim::schedule_event`] are the opposite case and
/// must snapshot: a stale timer left by a cancelled arm would otherwise
/// resurrect whatever event occupies the slot next (the ABA the
/// generation counter exists to prevent).
pub(crate) type WakeWord = u64;

/// One generation-counted record in the event slab: which handler to
/// call with which payload, valid only while `gen` matches the handle
/// that armed it.
struct EventSlot {
    gen: Cell<u32>,
    handler: Cell<u32>,
    data: Cell<u64>,
}

/// Identifier of a registered event handler (see
/// [`Sim::register_event_handler`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventHandlerId(u32);

/// A registered dispatch target: called with each armed event's payload.
pub type EventHandlerFn = Rc<dyn Fn(u64)>;

/// Handle to one armed slab event.
///
/// A `ScheduledEvent` is a `(slot, generation)` pair: dispatching or
/// cancelling the event bumps the slot's generation, so a stale handle
/// (or a stale ready-queue entry) can never fire a slot that has been
/// recycled for a different event — the classic ABA guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledEvent {
    slot: u32,
    gen: u32,
}

/// Handle to one cell of a world's wait-cell slab: the woken/waker
/// handshake of one queued waiter in a single 8-byte word (a parked wake
/// word, or empty, or woken). Queues that order their waiters themselves
/// (the server's service scheduler, the fabric's lanes) keep this 4-byte
/// handle in a by-value entry instead of a reference-counted ticket:
/// the waiter parks with [`Sim::poll_wait_cell`], the queue's owner
/// wakes the pick with [`Sim::wake_wait_cell`], and the waiter frees the
/// cell with [`Sim::free_wait_cell`] once admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitCell(u32);

impl WaitCell {
    /// A handle that names no cell, for entries that are never woken
    /// (queue probes and tests that only exercise ordering).
    pub const NONE: WaitCell = WaitCell(NO_CELL);
}

/// A slot in the task table. The free list is intrusive — vacant slots
/// link to the next free slot through the table itself, with the head in
/// [`SimCore::free_head`] — so claiming and releasing a slot is one table
/// borrow, not a table borrow plus a side-vector borrow.
enum TaskSlot {
    /// Free; `next` is the previously freed slot (`NO_SLOT` ends the
    /// list). LIFO, so slot recycling order — observable through where
    /// stale wakes land — is deterministic.
    Vacant { next: usize },
    /// A live task; the future is `None` only while being polled.
    Task(Option<LocalFuture>),
}

/// Free-list terminator for [`TaskSlot::Vacant`].
const NO_SLOT: usize = usize::MAX;

struct SimCore {
    now: Cell<SimTime>,
    timer_seq: Cell<u64>,
    timers: RefCell<TimerWheel<WakeWord>>,
    tasks: RefCell<Vec<TaskSlot>>,
    /// One cached waker per task-table slot. A waker carries only the
    /// slot index and the ready queue, so it never goes stale: it is
    /// created when the slot first exists and reused across every poll
    /// of every task that ever occupies the slot. Before this cache each
    /// poll allocated a fresh `Arc` waker — the single largest
    /// allocation source in the engine.
    wakers: RefCell<Vec<Waker>>,
    /// Backing store for the slot wakers (see [`WakerData`]); boxed so
    /// the pointers baked into the wakers stay stable as the table grows.
    #[allow(clippy::vec_box)]
    waker_data: RefCell<Vec<Box<WakerData>>>,
    /// Head of the intrusive free list running through `tasks` (see
    /// [`TaskSlot::Vacant`]); `NO_SLOT` when the table is full.
    free_head: Cell<usize>,
    /// The timed-event slab: generation-counted single-shot records
    /// dispatched straight off the ready queue with no future, no task
    /// slot and no per-event allocation. Slots are recycled through
    /// `event_free`.
    event_slots: RefCell<Vec<EventSlot>>,
    event_free: RefCell<Vec<u32>>,
    /// Waker data for the slots [`Sim::event_waker`] has parked, indexed
    /// by slot and built on first use: slots that only ever dispatch off
    /// timers or posts (all of them, at a million clients) cost nothing
    /// here. Boxed so the pointers baked into the wakers stay stable as
    /// the vector grows.
    event_waker_data: RefCell<Vec<Option<Box<EventWakerData>>>>,
    /// Registered dispatch targets; an event stores only an index here
    /// plus a `u64` payload, so dispatch is one dynamic call.
    event_handlers: RefCell<Vec<Option<EventHandlerFn>>>,
    /// Wakers that fit no wake word (event-slot and other executors'
    /// wakers), parked by a timer or a wait cell under a foreign word
    /// that names their index here; vacant entries are recycled through
    /// `foreign_free`.
    foreign: RefCell<Vec<Option<Waker>>>,
    foreign_free: RefCell<Vec<u32>>,
    /// The wait-cell slab (see [`WaitCell`]): one word per cell, either
    /// a parked wake word or one of the `CELL_*` states. Free cells link
    /// through their own word from `cell_free`.
    cells: RefCell<Vec<u64>>,
    cell_free: Cell<u32>,
    cells_live: Cell<usize>,
    /// This world's direct-waker route, claimed on first use. Fields drop
    /// in declaration order, so the route is freed after everything that
    /// could still wake (tasks, timers, handlers) and before `ready`.
    direct_route: std::cell::OnceCell<DirectRoute>,
    ready: Arc<ReadyQueue>,
    /// Count of tasks currently being polled; used to catch re-entrancy.
    polling: Cell<usize>,
    /// Retired events (task polls + timer fires); feeds the
    /// micro-profiler's events/sec metric.
    events: Cell<u64>,
    /// Events already credited to the thread-local profiler tally.
    events_credited: Cell<u64>,
}

impl SimCore {
    /// Credits events retired since the last flush to the thread running
    /// this world, so the sweep runner can report per-cell events/sec
    /// without threading a counter through every experiment. Called when
    /// `run_until` returns — a world whose daemon tasks still hold `Rc`
    /// cycles back to the core drops only after [`Sim::teardown`], so
    /// crediting cannot wait for `Drop` alone.
    fn flush_events_to_profiler(&self) {
        let total = self.events.get();
        profile::note_sim_events(total - self.events_credited.get());
        self.events_credited.set(total);
    }
}

impl Drop for SimCore {
    fn drop(&mut self) {
        // Backstop for events retired outside any `run_until` call.
        self.flush_events_to_profiler();
    }
}

/// Handle to the simulator; cheap to clone and share between tasks.
///
/// # Examples
///
/// ```
/// use nfsperf_sim::{Sim, SimDuration};
///
/// let sim = Sim::new();
/// let out = sim.run_until({
///     let sim = sim.clone();
///     async move {
///         sim.sleep(SimDuration::from_micros(5)).await;
///         sim.now().as_nanos()
///     }
/// });
/// assert_eq!(out, 5_000);
/// ```
#[derive(Clone)]
pub struct Sim {
    core: Rc<SimCore>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Creates a fresh simulator with the clock at zero.
    pub fn new() -> Sim {
        Sim {
            core: Rc::new(SimCore {
                now: Cell::new(SimTime::ZERO),
                timer_seq: Cell::new(0),
                timers: RefCell::new(TimerWheel::new()),
                tasks: RefCell::new(Vec::new()),
                wakers: RefCell::new(Vec::new()),
                waker_data: RefCell::new(Vec::new()),
                free_head: Cell::new(NO_SLOT),
                event_slots: RefCell::new(Vec::new()),
                event_free: RefCell::new(Vec::new()),
                event_waker_data: RefCell::new(Vec::new()),
                event_handlers: RefCell::new(Vec::new()),
                foreign: RefCell::new(Vec::new()),
                foreign_free: RefCell::new(Vec::new()),
                cells: RefCell::new(Vec::new()),
                cell_free: Cell::new(NO_CELL),
                cells_live: Cell::new(0),
                direct_route: std::cell::OnceCell::new(),
                ready: Arc::new(ReadyQueue::default()),
                polling: Cell::new(0),
                events: Cell::new(0),
                events_credited: Cell::new(0),
            }),
        }
    }

    /// Returns the current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.core.now.get()
    }

    /// Registers a waker to fire at `deadline`.
    ///
    /// Used by [`Sleep`]; most code should call [`Sim::sleep`] instead.
    pub fn register_timer(&self, deadline: SimTime, waker: Waker) {
        let word = self.wake_word_of(waker);
        self.push_timer(deadline, word);
    }

    /// Files `word` in the wheel at `deadline`, after every timer already
    /// registered for the same instant.
    fn push_timer(&self, deadline: SimTime, word: WakeWord) {
        let seq = self.core.timer_seq.get();
        self.core.timer_seq.set(seq + 1);
        self.core
            .timers
            .borrow_mut()
            .push(deadline.as_nanos(), seq, word);
    }

    /// Encodes `waker` as a wake word: this world's task and direct
    /// wakers become their own words, anything else is parked in the
    /// foreign side table. See [`WakeWord`].
    fn wake_word_of(&self, waker: Waker) -> WakeWord {
        let vtable = waker.vtable();
        if std::ptr::eq(vtable, &WAKER_VTABLE) {
            // SAFETY: a `WAKER_VTABLE` waker's data is a live `WakerData`
            // (see its contract).
            let d = unsafe { &*(waker.data() as *const WakerData) };
            if std::ptr::eq(d.ready, Arc::as_ptr(&self.core.ready)) {
                debug_assert!(d.id < FOREIGN_TAG, "task id collides with the foreign tag");
                return d.id as WakeWord;
            }
        } else if std::ptr::eq(vtable, &DIRECT_WAKER_VTABLE) {
            let word = waker.data().addr();
            let route = (word >> DIRECT_ROUTE_SHIFT) & (DIRECT_ROUTE_MAX - 1);
            if self.core.direct_route.get().is_some_and(|r| r.0 == route) {
                return word as WakeWord;
            }
        }
        let mut foreign = self.core.foreign.borrow_mut();
        let idx = match self.core.foreign_free.borrow_mut().pop() {
            Some(idx) => {
                foreign[idx as usize] = Some(waker);
                idx
            }
            None => {
                foreign.push(Some(waker));
                u32::try_from(foreign.len() - 1).expect("foreign waker table overflow")
            }
        };
        (FOREIGN_TAG | idx as usize) as WakeWord
    }

    /// Whether `word` names a foreign waker (rather than being pushed
    /// onto the ready queue as it stands). Exact: the `CELL_*` states
    /// carry bits above the 32-bit index and do not match.
    #[inline]
    fn is_foreign(word: WakeWord) -> bool {
        word >> 32 == (FOREIGN_TAG >> 32) as u64
    }

    /// Takes a foreign word's waker out of the side table (`None` once a
    /// teardown has cleared it).
    fn take_foreign(&self, word: WakeWord) -> Option<Waker> {
        let idx = word as u32;
        let waker = self
            .core
            .foreign
            .borrow_mut()
            .get_mut(idx as usize)?
            .take()?;
        self.core.foreign_free.borrow_mut().push(idx);
        Some(waker)
    }

    /// Delivers one wake exactly as the encoded waker's `wake` would: a
    /// ready-queue push, or the foreign waker's own wake.
    fn wake_word(&self, word: WakeWord) {
        if Sim::is_foreign(word) {
            if let Some(waker) = self.take_foreign(word) {
                waker.wake();
            }
        } else {
            self.core.ready.push(word as usize);
        }
    }

    /// Returns a future that completes after `dur` of simulated time.
    pub fn sleep(&self, dur: SimDuration) -> Sleep {
        Sleep {
            sim: self.clone(),
            deadline: self.now() + dur,
            registered: false,
        }
    }

    /// Returns a future that completes at the absolute instant `deadline`.
    ///
    /// Completes immediately if `deadline` is already in the past.
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
        Sleep {
            sim: self.clone(),
            deadline,
            registered: false,
        }
    }

    /// Spawns a background task, returning a handle to await its output.
    ///
    /// The task starts in the ready queue and first runs when the executor
    /// next drains it.
    pub fn spawn<T, F>(&self, fut: F) -> JoinHandle<T>
    where
        T: 'static,
        F: Future<Output = T> + 'static,
    {
        let state = Rc::new(RefCell::new(JoinState::<T> {
            result: None,
            waiter: None,
        }));
        let state2 = Rc::clone(&state);
        let wrapped: LocalFuture = Box::pin(async move {
            let out = fut.await;
            let mut st = state2.borrow_mut();
            st.result = Some(out);
            if let Some(w) = st.waiter.take() {
                w.wake();
            }
        });

        let id = self.insert_task(wrapped);
        self.core.ready.push(id);
        JoinHandle { state }
    }

    fn insert_task(&self, fut: LocalFuture) -> TaskId {
        let mut tasks = self.core.tasks.borrow_mut();
        let head = self.core.free_head.get();
        let id = if head != NO_SLOT {
            let TaskSlot::Vacant { next } = tasks[head] else {
                unreachable!("free-list head {head} not vacant");
            };
            self.core.free_head.set(next);
            tasks[head] = TaskSlot::Task(Some(fut));
            head
        } else {
            tasks.push(TaskSlot::Task(Some(fut)));
            tasks.len() - 1
        };
        let mut wakers = self.core.wakers.borrow_mut();
        let mut waker_data = self.core.waker_data.borrow_mut();
        while wakers.len() <= id {
            let data = Box::new(WakerData {
                id: wakers.len(),
                ready: Arc::as_ptr(&self.core.ready),
            });
            let raw = RawWaker::new(&*data as *const WakerData as *const (), &WAKER_VTABLE);
            waker_data.push(data);
            // SAFETY: see `WakerData` — single-threaded use, data outlives
            // every waker clone.
            wakers.push(unsafe { Waker::from_raw(raw) });
        }
        id
    }

    /// Drives `main` to completion, running spawned tasks and advancing the
    /// simulated clock as needed, and returns its output.
    ///
    /// Background tasks that are still pending when `main` completes are
    /// dropped (daemons need no explicit shutdown).
    ///
    /// # Panics
    ///
    /// Panics if the simulation deadlocks: `main` is not finished but no
    /// task is runnable and no timer is pending.
    pub fn run_until<T, F>(&self, main: F) -> T
    where
        T: 'static,
        F: Future<Output = T> + 'static,
    {
        let handle = self.spawn(main);
        loop {
            self.drain_ready();
            if let Some(out) = handle.try_take() {
                self.core.flush_events_to_profiler();
                return out;
            }
            if !self.fire_next_timer() {
                panic!(
                    "simulation deadlock at t={}: main task pending, no runnable \
                     tasks and no timers",
                    self.now()
                );
            }
        }
    }

    /// Ends the world: drops every task (finished or parked forever),
    /// every registered event handler and every pending timer.
    ///
    /// Daemon tasks and handlers capture `Rc`s to the world they run in
    /// (mounts, kernels, servers — each holding a [`Sim`]), so a world
    /// left alone after `run_until` returns is a reference cycle and
    /// never frees its memory. Calling this once the results have been
    /// read breaks every such cycle; the world is reclaimed when the
    /// caller's own handles drop.
    ///
    /// Each structure is moved out of its cell and dropped outside any
    /// borrow, because dropping a parked future (a wait-queue entry, a
    /// lock guard, a semaphore permit) may call back into the core. The
    /// simulator stays usable: a later [`Sim::run_until`] starts from an
    /// empty task table and ready queue at the current clock.
    ///
    /// # Panics
    ///
    /// Panics if called from inside a task.
    pub fn teardown(&self) {
        assert_eq!(self.core.polling.get(), 0, "teardown from inside a task");
        let tasks = std::mem::take(&mut *self.core.tasks.borrow_mut());
        self.core.free_head.set(NO_SLOT);
        let handlers: Vec<_> = self
            .core
            .event_handlers
            .borrow_mut()
            .iter_mut()
            .map(Option::take)
            .collect();
        let timers = std::mem::take(&mut *self.core.timers.borrow_mut());
        let foreign = std::mem::take(&mut *self.core.foreign.borrow_mut());
        self.core.foreign_free.borrow_mut().clear();
        // A parked foreign word would otherwise name a recycled entry.
        for cell in self.core.cells.borrow_mut().iter_mut() {
            if Sim::is_foreign(*cell) {
                *cell = CELL_EMPTY;
            }
        }
        drop(tasks);
        drop(handlers);
        drop(timers);
        drop(foreign);
        // Wakes queued so far (including any the drops above fired) name
        // slots a later run would reuse for new tasks.
        while self.core.ready.pop().is_some() {}
    }

    /// Polls every woken task — and dispatches every fired slab event —
    /// until the ready queue is empty.
    fn drain_ready(&self) {
        while let Some(id) = self.core.ready.pop() {
            if id & EVENT_TAG != 0 {
                self.dispatch_event(id as u32, ((id >> 32) as u32) & EVENT_GEN_MASK);
            } else if id & DIRECT_TAG != 0 {
                self.dispatch_direct(id);
            } else {
                self.poll_task(id);
            }
        }
    }

    /// Dispatches one fired slab event: frees the slot, retires the
    /// event, and runs the handler. A generation mismatch means the
    /// event was cancelled (or its slot recycled) after the wake was
    /// queued; like a spurious task wake it is dropped without counting.
    fn dispatch_event(&self, slot: u32, gen: u32) {
        let (handler, data) = {
            let slots = self.core.event_slots.borrow();
            let s = match slots.get(slot as usize) {
                Some(s) => s,
                None => return,
            };
            if s.gen.get() != gen {
                return;
            }
            // Bump the generation before running anything: the handler
            // may re-arm this very slot for a new event.
            s.gen.set((gen + 1) & EVENT_GEN_MASK);
            (s.handler.get(), s.data.get())
        };
        self.core.event_free.borrow_mut().push(slot);
        self.core.events.set(self.core.events.get() + 1);
        let h = self.core.event_handlers.borrow()[handler as usize].clone();
        if let Some(h) = h {
            h(data);
        }
    }

    /// Dispatches one direct ready entry: retires the event and runs the
    /// handler with the word's payload. No slot to free, no generation
    /// to check — the encoding is complete in the word (see
    /// [`Sim::direct_waker`]).
    fn dispatch_direct(&self, word: usize) {
        self.core.events.set(self.core.events.get() + 1);
        let handler = (word >> 32) as u32 & (DIRECT_HANDLER_MAX - 1);
        let h = self.core.event_handlers.borrow()[handler as usize].clone();
        if let Some(h) = h {
            h(u64::from(word as u32));
        }
    }

    /// Advances the clock to the next timer and wakes it.
    ///
    /// Returns `false` if no timers are pending.
    fn fire_next_timer(&self) -> bool {
        let entry = match self.core.timers.borrow_mut().pop() {
            Some(e) => e,
            None => return false,
        };
        let deadline = SimTime(entry.deadline);
        debug_assert!(
            deadline >= self.now(),
            "timer in the past: {} < {}",
            deadline,
            self.now()
        );
        if deadline > self.now() {
            self.core.now.set(deadline);
        }
        self.core.events.set(self.core.events.get() + 1);
        let word = entry.payload as usize;
        if word & EVENT_TAG == 0 && word & DIRECT_TAG != 0 {
            // The ready queue is always drained empty before a timer
            // fires, so dispatching inline observes the exact order (and
            // event count) the push-pop round trip through the ready
            // queue would: one event for the fire above, one for the
            // dispatch.
            self.dispatch_direct(word);
        } else {
            self.wake_word(entry.payload);
        }
        true
    }

    fn poll_task(&self, id: TaskId) {
        // Take the future out of the table so that the task may itself
        // spawn tasks (which re-borrows the table) while being polled.
        let fut = {
            let mut tasks = self.core.tasks.borrow_mut();
            match tasks.get_mut(id) {
                Some(TaskSlot::Task(fut)) => match fut.take() {
                    Some(f) => f,
                    // Already being polled or already finished: spurious wake.
                    None => return,
                },
                _ => return,
            }
        };

        // Reuse the slot's cached waker: one refcount bump instead of an
        // `Arc` allocation per poll. Cloned (not borrowed) because the
        // polled task may spawn, which pushes new wakers.
        let waker = self.core.wakers.borrow()[id].clone();
        let mut cx = Context::from_waker(&waker);
        self.core.polling.set(self.core.polling.get() + 1);
        self.core.events.set(self.core.events.get() + 1);
        let mut fut = fut;
        let poll = fut.as_mut().poll(&mut cx);
        self.core.polling.set(self.core.polling.get() - 1);

        let mut tasks = self.core.tasks.borrow_mut();
        match poll {
            Poll::Ready(()) => {
                tasks[id] = TaskSlot::Vacant {
                    next: self.core.free_head.get(),
                };
                self.core.free_head.set(id);
            }
            Poll::Pending => {
                if let Some(TaskSlot::Task(slot)) = tasks.get_mut(id) {
                    *slot = Some(fut);
                }
            }
        }
    }

    /// Registers a dispatch target for slab events and returns its id.
    ///
    /// Handlers are registered once per subsystem (e.g. one per flyweight
    /// tier); each armed event then carries only the id plus a `u64`
    /// payload, so the steady-state path allocates nothing.
    pub fn register_event_handler(&self, handler: EventHandlerFn) -> EventHandlerId {
        let mut handlers = self.core.event_handlers.borrow_mut();
        handlers.push(Some(handler));
        EventHandlerId((handlers.len() - 1) as u32)
    }

    /// Drops a registered handler (events already armed for it are
    /// silently discarded at dispatch). Subsystems that capture `Rc`
    /// cycles back into the simulation call this when they finish, so
    /// their world can be reclaimed.
    pub fn clear_event_handler(&self, id: EventHandlerId) {
        self.core.event_handlers.borrow_mut()[id.0 as usize] = None;
    }

    /// Claims a free event slot and arms it with `(handler, data)`,
    /// refreshing the generation snapshot of the slot's waker if
    /// [`Sim::event_waker`] ever built one.
    fn arm_event(&self, handler: EventHandlerId, data: u64) -> ScheduledEvent {
        let slot = match self.core.event_free.borrow_mut().pop() {
            Some(s) => s,
            None => {
                let mut slots = self.core.event_slots.borrow_mut();
                slots.push(EventSlot {
                    gen: Cell::new(0),
                    handler: Cell::new(0),
                    data: Cell::new(0),
                });
                (slots.len() - 1) as u32
            }
        };
        let slots = self.core.event_slots.borrow();
        let s = &slots[slot as usize];
        let gen = s.gen.get();
        s.handler.set(handler.0);
        s.data.set(data);
        if let Some(Some(d)) = self.core.event_waker_data.borrow().get(slot as usize) {
            d.gen.set(gen);
        }
        ScheduledEvent { slot, gen }
    }

    /// Registers a timed dispatch of `handler(data)` at `deadline` with
    /// no way to cancel it: the timer carries the handler id and payload
    /// itself, touching neither the event slab nor the ready queue.
    /// Cheaper than [`Sim::schedule_event`] on hot paths that never
    /// cancel; identical event arithmetic (fire + dispatch). The timer is
    /// one wake word in the direct encoding [`Sim::direct_waker`] uses,
    /// so `data` must fit 32 bits and the handler id 16.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is not in the future — there is no inline
    /// path; callers handle elapsed deadlines themselves — or if `data`
    /// or the handler id is out of range.
    pub fn schedule_direct(&self, deadline: SimTime, handler: EventHandlerId, data: u64) {
        assert!(deadline > self.now(), "schedule_direct needs a future deadline");
        assert!(
            handler.0 < DIRECT_HANDLER_MAX,
            "direct timers carry 16-bit handler ids"
        );
        let data = u32::try_from(data).expect("direct timers carry 32-bit payloads");
        // The route is left zero: an inline dispatch never reads it.
        self.push_timer(deadline, encode_direct(0, handler.0, data) as WakeWord);
    }

    /// Arms a slab event that dispatches `handler(data)` at `deadline`
    /// — no future, no task, no allocation in steady state. A deadline
    /// at or before now dispatches on the next ready-queue drain.
    pub fn schedule_event(
        &self,
        deadline: SimTime,
        handler: EventHandlerId,
        data: u64,
    ) -> ScheduledEvent {
        let ev = self.arm_event(handler, data);
        if deadline > self.now() {
            self.push_timer(deadline, encode_event(ev.slot, ev.gen) as WakeWord);
        } else {
            self.core.ready.push(encode_event(ev.slot, ev.gen));
        }
        ev
    }

    /// Arms a slab event that dispatches on the next ready-queue drain —
    /// the taskless analogue of [`Sim::spawn`]'s initial poll.
    pub fn post_event(&self, handler: EventHandlerId, data: u64) -> ScheduledEvent {
        let ev = self.arm_event(handler, data);
        self.core.ready.push(encode_event(ev.slot, ev.gen));
        ev
    }

    /// Arms a slab event and returns its waker, for parking in a sync
    /// primitive ([`crate::sync`]): when the primitive wakes it, the
    /// event dispatches. The waker must be woken at most once per arm
    /// (which every primitive in this crate guarantees).
    ///
    /// The slot's waker data is built on the slot's first park and kept
    /// for every later arm of it.
    pub fn event_waker(&self, handler: EventHandlerId, data: u64) -> (ScheduledEvent, Waker) {
        let ev = self.arm_event(handler, data);
        let mut all = self.core.event_waker_data.borrow_mut();
        if all.len() <= ev.slot as usize {
            all.resize_with(ev.slot as usize + 1, || None);
        }
        let d = all[ev.slot as usize].get_or_insert_with(|| {
            Box::new(EventWakerData {
                slot: ev.slot,
                gen: Cell::new(ev.gen),
                ready: Arc::as_ptr(&self.core.ready),
            })
        });
        let raw = RawWaker::new(
            &**d as *const EventWakerData as *const (),
            &EVENT_WAKER_VTABLE,
        );
        // SAFETY: see `EventWakerData` — single-threaded use, data
        // outlives every waker clone.
        (ev, unsafe { Waker::from_raw(raw) })
    }

    /// Builds a waker that dispatches `handler(data)` each time it is
    /// woken — the zero-state spelling of [`Sim::event_waker`] for
    /// callers whose parks are woken exactly once and never cancelled
    /// (the flyweight tier's admission and service waits). The waker's
    /// data pointer is its encoded ready-queue word, so building one
    /// allocates nothing and stores nothing: callers make a fresh one per
    /// park. Waking is a single ready-queue push and dispatch touches no
    /// slab.
    pub fn direct_waker(&self, handler: EventHandlerId, data: u32) -> Waker {
        assert!(
            handler.0 < DIRECT_HANDLER_MAX,
            "direct wakers carry 16-bit handler ids"
        );
        let route = self
            .core
            .direct_route
            .get_or_init(|| DirectRoute::register(Arc::as_ptr(&self.core.ready)));
        let word = encode_direct(route.0, handler.0, data);
        let raw = RawWaker::new(std::ptr::without_provenance(word), &DIRECT_WAKER_VTABLE);
        // SAFETY: the vtable never dereferences the data pointer; see
        // `wake_direct` for why the route it names is live.
        unsafe { Waker::from_raw(raw) }
    }

    /// Claims a cell of this world's wait-cell slab: nothing parked, no
    /// wake delivered. Freed cells are reused first (LIFO), so steady
    /// state allocates nothing.
    pub fn wait_cell(&self) -> WaitCell {
        let mut cells = self.core.cells.borrow_mut();
        let head = self.core.cell_free.get();
        self.core.cells_live.set(self.core.cells_live.get() + 1);
        if head != NO_CELL {
            self.core.cell_free.set(cells[head as usize] as u32);
            cells[head as usize] = CELL_EMPTY;
            return WaitCell(head);
        }
        let idx = u32::try_from(cells.len())
            .ok()
            .filter(|&i| i != NO_CELL)
            .expect("wait-cell slab overflow");
        cells.push(CELL_EMPTY);
        WaitCell(idx)
    }

    /// The waiter's half of a cell's handshake: returns `true` if a wake
    /// was delivered since the last call (re-arming the cell for another
    /// round), or parks a waker from `waker_factory` and returns `false`.
    /// A re-park replaces the previous waker.
    pub fn poll_wait_cell(&self, cell: WaitCell, waker_factory: &mut dyn FnMut() -> Waker) -> bool {
        let idx = cell.0 as usize;
        let state = self.core.cells.borrow()[idx];
        debug_assert!(state >> 40 != CELL_FREE >> 40, "poll of a free wait cell");
        if state == CELL_WOKEN {
            self.core.cells.borrow_mut()[idx] = CELL_EMPTY;
            return true;
        }
        if Sim::is_foreign(state) {
            drop(self.take_foreign(state));
        }
        let word = self.wake_word_of(waker_factory());
        self.core.cells.borrow_mut()[idx] = word;
        false
    }

    /// The waker's half: marks the cell woken and delivers its parked
    /// wake, if one is parked. Waking a cell that is already woken does
    /// nothing.
    pub fn wake_wait_cell(&self, cell: WaitCell) {
        let word = std::mem::replace(
            &mut self.core.cells.borrow_mut()[cell.0 as usize],
            CELL_WOKEN,
        );
        debug_assert!(word >> 40 != CELL_FREE >> 40, "wake of a free wait cell");
        if word != CELL_EMPTY && word != CELL_WOKEN {
            self.wake_word(word);
        }
    }

    /// Returns a cell to the slab once its waiter is done with it.
    pub fn free_wait_cell(&self, cell: WaitCell) {
        let idx = cell.0 as usize;
        let state = std::mem::replace(
            &mut self.core.cells.borrow_mut()[idx],
            CELL_FREE | u64::from(self.core.cell_free.get()),
        );
        debug_assert!(state >> 40 != CELL_FREE >> 40, "double free of a wait cell");
        if Sim::is_foreign(state) {
            drop(self.take_foreign(state));
        }
        self.core.cell_free.set(cell.0);
        self.core.cells_live.set(self.core.cells_live.get() - 1);
    }

    /// Number of claimed wait cells. Mostly for tests and audits.
    pub fn live_wait_cells(&self) -> usize {
        self.core.cells_live.get()
    }

    /// Cancels an armed event. Returns `true` if the event was still
    /// armed (it will now never dispatch); `false` if it had already
    /// dispatched or been cancelled — the ABA-safe no-op.
    pub fn cancel_event(&self, ev: ScheduledEvent) -> bool {
        let slots = self.core.event_slots.borrow();
        let s = match slots.get(ev.slot as usize) {
            Some(s) => s,
            None => return false,
        };
        if s.gen.get() != ev.gen {
            return false;
        }
        s.gen.set((ev.gen + 1) & EVENT_GEN_MASK);
        drop(slots);
        self.core.event_free.borrow_mut().push(ev.slot);
        true
    }

    /// Number of currently armed slab events. Mostly for tests.
    pub fn live_events(&self) -> usize {
        self.core.event_slots.borrow().len() - self.core.event_free.borrow().len()
    }

    /// Events retired so far: task polls plus timer fires plus slab
    /// event dispatches. The micro-profiler divides this by wall-clock
    /// for events/sec.
    pub fn events(&self) -> u64 {
        self.core.events.get()
    }

    /// Number of live (spawned, unfinished) tasks. Mostly for tests.
    pub fn live_tasks(&self) -> usize {
        self.core
            .tasks
            .borrow()
            .iter()
            .filter(|t| matches!(t, TaskSlot::Task(_)))
            .count()
    }
}

/// Future returned by [`Sim::sleep`] and [`Sim::sleep_until`].
pub struct Sleep {
    sim: Sim,
    deadline: SimTime,
    registered: bool,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.sim.now() >= self.deadline {
            return Poll::Ready(());
        }
        if !self.registered {
            let deadline = self.deadline;
            self.sim.register_timer(deadline, cx.waker().clone());
            self.registered = true;
        }
        Poll::Pending
    }
}

struct JoinState<T> {
    result: Option<T>,
    /// The single task awaiting this handle (handles are not `Clone`,
    /// so at most one awaiter exists; re-polls just replace the waker).
    waiter: Option<Waker>,
}

/// Handle to a spawned task's eventual output.
///
/// Await it to block until the task finishes, or poll [`JoinHandle::try_take`]
/// from outside the executor.
pub struct JoinHandle<T> {
    state: Rc<RefCell<JoinState<T>>>,
}

impl<T> JoinHandle<T> {
    /// Takes the task's output if it has finished, without blocking.
    pub fn try_take(&self) -> Option<T> {
        self.state.borrow_mut().result.take()
    }

    /// Returns `true` once the task has finished (and the output has not
    /// yet been taken).
    pub fn is_finished(&self) -> bool {
        self.state.borrow().result.is_some()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut st = self.state.borrow_mut();
        if let Some(out) = st.result.take() {
            Poll::Ready(out)
        } else {
            st.waiter = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// Yields once, letting every other ready task run before continuing.
pub fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

/// Future returned by [`yield_now`].
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::future::poll_fn;
    use std::rc::Rc;

    /// Sets its flag when dropped.
    struct DropFlag(Rc<Cell<bool>>);

    impl Drop for DropFlag {
        fn drop(&mut self) {
            self.0.set(true);
        }
    }

    #[test]
    fn teardown_reclaims_a_world_held_by_cycles() {
        let sim = Sim::new();
        let flags: Vec<Rc<Cell<bool>>> = (0..3).map(|_| Rc::new(Cell::new(false))).collect();
        let lock = Rc::new(crate::sync::SimLock::new(&sim));
        // A never-ending daemon that holds the lock, parked on a timer.
        let (s, l, flag) = (
            sim.clone(),
            Rc::clone(&lock),
            DropFlag(Rc::clone(&flags[0])),
        );
        sim.spawn(async move {
            let _flag = flag;
            let _guard = l.lock("daemon").await;
            loop {
                s.sleep(SimDuration::from_millis(1)).await;
            }
        });
        // A second daemon parked behind it on the lock.
        let (s, l, flag) = (
            sim.clone(),
            Rc::clone(&lock),
            DropFlag(Rc::clone(&flags[1])),
        );
        sim.spawn(async move {
            let _flag = flag;
            let _guard = l.lock("waiter").await;
            drop(s);
        });
        // An event handler capturing the world, with an event still armed.
        let (s, flag) = (sim.clone(), DropFlag(Rc::clone(&flags[2])));
        let h = sim.register_event_handler(Rc::new(move |_| {
            let _ = (&s, &flag);
        }));
        sim.schedule_event(SimTime(1_000_000_000), h, 0);
        let s = sim.clone();
        sim.run_until(async move { s.sleep(SimDuration::from_millis(10)).await });
        assert!(
            flags.iter().all(|f| !f.get()),
            "cycles keep the world alive"
        );

        sim.teardown();
        assert!(
            flags.iter().all(|f| f.get()),
            "teardown drops tasks and handlers"
        );
        assert_eq!(sim.live_tasks(), 0);
        assert_eq!(sim.run_until(async { 7 }), 7, "the simulator runs again");
        let core = Rc::downgrade(&sim.core);
        drop((sim, lock));
        assert!(core.upgrade().is_none(), "the core itself is freed");
    }

    #[test]
    fn clock_starts_at_zero() {
        let sim = Sim::new();
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn sleep_advances_clock() {
        let sim = Sim::new();
        let s2 = sim.clone();
        let t = sim.run_until(async move {
            s2.sleep(SimDuration::from_millis(7)).await;
            s2.now()
        });
        assert_eq!(t.as_nanos(), 7_000_000);
    }

    #[test]
    fn zero_sleep_completes_immediately() {
        let sim = Sim::new();
        let s2 = sim.clone();
        sim.run_until(async move {
            s2.sleep(SimDuration::ZERO).await;
            assert_eq!(s2.now(), SimTime::ZERO);
        });
    }

    #[test]
    fn sleep_until_past_deadline_is_noop() {
        let sim = Sim::new();
        let s2 = sim.clone();
        sim.run_until(async move {
            s2.sleep(SimDuration::from_micros(10)).await;
            s2.sleep_until(SimTime(5)).await;
            assert_eq!(s2.now().as_nanos(), 10_000);
        });
    }

    #[test]
    fn tasks_interleave_deterministically() {
        let sim = Sim::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3u32 {
            let order = Rc::clone(&order);
            let s = sim.clone();
            sim.spawn(async move {
                s.sleep(SimDuration::from_micros(u64::from(3 - i))).await;
                order.borrow_mut().push(i);
            });
        }
        let s2 = sim.clone();
        sim.run_until(async move {
            s2.sleep(SimDuration::from_micros(10)).await;
        });
        // Shorter sleeps finish first: i=2 slept 1us, i=1 slept 2us, i=0 3us.
        assert_eq!(*order.borrow(), vec![2, 1, 0]);
    }

    #[test]
    fn equal_deadlines_fire_in_registration_order() {
        let sim = Sim::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..4u32 {
            let order = Rc::clone(&order);
            let s = sim.clone();
            sim.spawn(async move {
                s.sleep(SimDuration::from_micros(5)).await;
                order.borrow_mut().push(i);
            });
        }
        let s2 = sim.clone();
        sim.run_until(async move {
            s2.sleep(SimDuration::from_micros(6)).await;
        });
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn join_handle_returns_value() {
        let sim = Sim::new();
        let s = sim.clone();
        let v = sim.run_until(async move {
            let h = s.spawn(async { 42 });
            h.await
        });
        assert_eq!(v, 42);
    }

    #[test]
    fn join_handle_waits_for_sleeping_task() {
        let sim = Sim::new();
        let s = sim.clone();
        let v = sim.run_until(async move {
            let s2 = s.clone();
            let h = s.spawn(async move {
                s2.sleep(SimDuration::from_millis(3)).await;
                s2.now().as_nanos()
            });
            h.await
        });
        assert_eq!(v, 3_000_000);
    }

    #[test]
    fn spawn_inside_task_works() {
        let sim = Sim::new();
        let s = sim.clone();
        let v = sim.run_until(async move {
            let inner = s.spawn(async { 7 });
            let s2 = s.clone();
            let outer = s.spawn(async move {
                let j = s2.spawn(async { 35 });
                j.await
            });
            inner.await + outer.await
        });
        assert_eq!(v, 42);
    }

    #[test]
    fn yield_now_lets_others_run() {
        let sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let l1 = Rc::clone(&log);
        let l2 = Rc::clone(&log);
        sim.spawn(async move {
            l1.borrow_mut().push("a1");
            yield_now().await;
            l1.borrow_mut().push("a2");
        });
        sim.spawn(async move {
            l2.borrow_mut().push("b1");
            yield_now().await;
            l2.borrow_mut().push("b2");
        });
        let s2 = sim.clone();
        sim.run_until(async move {
            s2.sleep(SimDuration::from_micros(1)).await;
        });
        assert_eq!(*log.borrow(), vec!["a1", "b1", "a2", "b2"]);
    }

    #[test]
    fn daemons_are_abandoned_after_main_completes() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn({
            let s = sim.clone();
            async move {
                loop {
                    s.sleep(SimDuration::from_secs(1)).await;
                }
            }
        });
        let t = sim.run_until(async move {
            s.sleep(SimDuration::from_millis(1)).await;
            s.now()
        });
        assert_eq!(t.as_nanos(), 1_000_000);
    }

    #[test]
    #[should_panic(expected = "simulation deadlock")]
    fn deadlock_detection() {
        let sim = Sim::new();
        sim.run_until(std::future::pending::<()>());
    }

    #[test]
    fn live_task_accounting() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let before = s.live_tasks();
            let h = s.spawn(async {});
            assert_eq!(s.live_tasks(), before + 1);
            h.await;
            assert_eq!(s.live_tasks(), before);
        });
    }

    type EventLog = Rc<RefCell<Vec<(u64, u64)>>>;

    /// Registers a handler that appends `(now, data)` to a shared log.
    fn logging_handler(sim: &Sim) -> (EventHandlerId, EventLog) {
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        let s = sim.clone();
        let h = sim.register_event_handler(Rc::new(move |data| {
            l.borrow_mut().push((s.now().as_nanos(), data));
        }));
        (h, log)
    }

    #[test]
    fn events_fire_in_deadline_order() {
        let sim = Sim::new();
        let (h, log) = logging_handler(&sim);
        let s = sim.clone();
        sim.run_until(async move {
            s.schedule_event(SimTime(300), h, 3);
            s.schedule_event(SimTime(100), h, 1);
            s.schedule_event(SimTime(200), h, 2);
            s.sleep(SimDuration::from_nanos(400)).await;
        });
        assert_eq!(*log.borrow(), vec![(100, 1), (200, 2), (300, 3)]);
        assert_eq!(sim.live_events(), 0);
    }

    #[test]
    fn past_deadline_dispatches_without_advancing_clock() {
        let sim = Sim::new();
        let (h, log) = logging_handler(&sim);
        let s = sim.clone();
        sim.run_until(async move {
            s.sleep(SimDuration::from_nanos(500)).await;
            s.schedule_event(SimTime(100), h, 7);
            s.post_event(h, 8);
            yield_now().await;
        });
        assert_eq!(*log.borrow(), vec![(500, 7), (500, 8)]);
    }

    #[test]
    fn event_dispatch_counts_one_engine_event() {
        // Parity with the task engine: a timer-armed event costs one
        // fire (wheel pop) + one dispatch, exactly like sleep's
        // fire + poll; a posted event costs one dispatch like a poll.
        let sim = Sim::new();
        let (h, _log) = logging_handler(&sim);
        let s = sim.clone();
        sim.run_until(async move {
            let base = s.events();
            s.post_event(h, 0);
            yield_now().await;
            assert_eq!(s.events() - base, 2); // 1 dispatch + 1 yield poll
        });
    }

    #[test]
    fn cancel_prevents_dispatch_and_frees_slot() {
        let sim = Sim::new();
        let (h, log) = logging_handler(&sim);
        let s = sim.clone();
        sim.run_until(async move {
            let ev = s.schedule_event(SimTime(100), h, 1);
            assert_eq!(s.live_events(), 1);
            assert!(s.cancel_event(ev));
            assert_eq!(s.live_events(), 0);
            assert!(!s.cancel_event(ev), "double cancel must be a no-op");
            // The timer still fires (and counts), but the generation
            // mismatch makes the dispatch a silent no-op.
            s.sleep(SimDuration::from_nanos(200)).await;
        });
        assert!(log.borrow().is_empty());
    }

    #[test]
    fn cancelled_slot_reuse_does_not_resurrect_old_event() {
        let sim = Sim::new();
        let (h, log) = logging_handler(&sim);
        let s = sim.clone();
        sim.run_until(async move {
            let ev = s.schedule_event(SimTime(100), h, 1);
            assert!(s.cancel_event(ev));
            // Re-arm the same slot with a later deadline. The stale
            // timer fires first; its generation is dead so nothing
            // happens until the fresh event's own timer fires.
            let ev2 = s.schedule_event(SimTime(300), h, 2);
            assert_eq!(ev2.slot, ev.slot, "free list should reuse the slot");
            s.sleep(SimDuration::from_nanos(400)).await;
        });
        assert_eq!(*log.borrow(), vec![(300, 2)]);
    }

    #[test]
    fn event_waker_parks_until_woken() {
        let sim = Sim::new();
        let (h, log) = logging_handler(&sim);
        let s = sim.clone();
        sim.run_until(async move {
            let (_ev, waker) = s.event_waker(h, 9);
            s.sleep(SimDuration::from_nanos(50)).await;
            assert!(log.borrow().is_empty());
            waker.wake();
            yield_now().await;
            assert_eq!(*log.borrow(), vec![(50, 9)]);
        });
    }

    /// Slot waker data is built lazily, on a slot's first park, so the
    /// park may land on a slot that posts and timers already recycled —
    /// and a slot once parked keeps its data through later timer and
    /// park arms. Each arm must dispatch exactly once, with its own
    /// payload.
    #[test]
    fn event_waker_on_a_recycled_slot_fires_once_with_its_own_payload() {
        let sim = Sim::new();
        let (h, log) = logging_handler(&sim);
        let s = sim.clone();
        sim.run_until(async move {
            let posted = s.post_event(h, 1);
            yield_now().await;
            let timed = s.schedule_event(s.now() + SimDuration::from_nanos(10), h, 2);
            assert_eq!(timed.slot, posted.slot, "free list reuses the slot");
            s.sleep(SimDuration::from_nanos(20)).await;

            let (parked, waker) = s.event_waker(h, 3);
            assert_eq!(parked.slot, posted.slot);
            s.sleep(SimDuration::from_nanos(5)).await;
            waker.wake_by_ref();
            yield_now().await;
            // The arm already dispatched: a second wake carries its
            // spent generation and is dropped.
            waker.wake_by_ref();
            yield_now().await;

            // A timer arm of the same slot refreshes the waker data's
            // generation but dispatches only off its own timer.
            let retimed = s.schedule_event(s.now() + SimDuration::from_nanos(10), h, 4);
            assert_eq!(retimed.slot, posted.slot);
            s.sleep(SimDuration::from_nanos(20)).await;

            let (reparked, waker) = s.event_waker(h, 5);
            assert_eq!(reparked.slot, posted.slot);
            waker.wake();
            yield_now().await;
        });
        assert_eq!(
            *log.borrow(),
            vec![(0, 1), (10, 2), (25, 3), (35, 4), (45, 5)]
        );
        assert_eq!(sim.live_events(), 0);
    }

    /// A direct waker is its encoded word: payloads across the whole
    /// 32-bit range dispatch once each, in wake order, and a waker built
    /// again for the same record is interchangeable with the first.
    #[test]
    fn direct_wakers_dispatch_once_in_order() {
        let sim = Sim::new();
        let (h, log) = logging_handler(&sim);
        let payloads = [0, 1, 4_096, 65_535, 1 << 20, u32::MAX - 1, u32::MAX];
        let wakers: Vec<Waker> = payloads.iter().map(|&i| sim.direct_waker(h, i)).collect();
        assert!(wakers[3].will_wake(&sim.direct_waker(h, 65_535)));
        sim.run_until(async move {
            for w in &wakers {
                w.wake_by_ref();
            }
            yield_now().await;
        });
        let fired: Vec<u64> = log.borrow().iter().map(|&(_, d)| d).collect();
        assert_eq!(fired, payloads.map(u64::from));
    }

    /// Two live worlds on one thread each get their own route: a direct
    /// waker wakes only the world that built it, and a dropped world's
    /// route is reused by the next one instead of growing the registry.
    #[test]
    fn direct_wakers_route_to_their_own_world() {
        let a = Sim::new();
        let b = Sim::new();
        let (ha, log_a) = logging_handler(&a);
        let (hb, log_b) = logging_handler(&b);
        assert_eq!(ha, hb, "both worlds' first handler has id 0");
        let wa = a.direct_waker(ha, 7);
        let wb = b.direct_waker(hb, 9);
        assert!(!wa.will_wake(&wb));
        let routes = DIRECT_ROUTES.with(|r| r.borrow().len());
        wb.wake_by_ref();
        a.run_until(async move {
            wa.wake_by_ref();
            yield_now().await;
        });
        b.run_until(yield_now());
        assert_eq!(log_a.borrow().iter().map(|&(_, d)| d).collect::<Vec<_>>(), [7]);
        assert_eq!(log_b.borrow().iter().map(|&(_, d)| d).collect::<Vec<_>>(), [9]);
        // The logging handler holds its world: break the cycle first.
        b.teardown();
        drop(b);
        // A dropped world's route is free: a stray wake goes nowhere.
        wb.wake_by_ref();
        let c = Sim::new();
        let (hc, _) = logging_handler(&c);
        let _wc = c.direct_waker(hc, 1);
        assert_eq!(DIRECT_ROUTES.with(|r| r.borrow().len()), routes);
    }

    /// The wait-cell handshake: a wake before the park is kept, a wake
    /// after it delivers the parked waker once, a second wake is a
    /// no-op, and freed cells are reused LIFO.
    #[test]
    fn wait_cells_hand_off_one_wake_per_round() {
        let sim = Sim::new();
        let (h, log) = logging_handler(&sim);
        let s = sim.clone();
        sim.run_until(async move {
            let a = s.wait_cell();
            let b = s.wait_cell();
            assert_eq!(s.live_wait_cells(), 2);
            // Woken before anyone parks: the next poll sees it.
            s.wake_wait_cell(a);
            assert!(s.poll_wait_cell(a, &mut || unreachable!("no park when woken")));
            // Parked (twice: the re-park replaces the first word), then
            // woken twice: one dispatch.
            assert!(!s.poll_wait_cell(b, &mut || s.direct_waker(h, 1)));
            assert!(!s.poll_wait_cell(b, &mut || s.direct_waker(h, 2)));
            s.wake_wait_cell(b);
            s.wake_wait_cell(b);
            yield_now().await;
            assert_eq!(*log.borrow(), vec![(0, 2)]);
            assert!(s.poll_wait_cell(b, &mut || unreachable!()));
            s.free_wait_cell(a);
            s.free_wait_cell(b);
            assert_eq!(s.live_wait_cells(), 0);
            assert_eq!(s.wait_cell(), b, "freed cells are reused LIFO");
            assert_eq!(s.wait_cell(), a);
        });
    }

    /// Task wakers become task-id words and event-slot wakers park in the
    /// foreign table; both deliver exactly the wake the waker would, and
    /// the foreign table recycles its entries.
    #[test]
    fn wait_cells_wake_tasks_and_foreign_wakers() {
        let sim = Sim::new();
        let (h, log) = logging_handler(&sim);
        let s = sim.clone();
        let cell = sim.wait_cell();
        let waiter = sim.spawn({
            let s = sim.clone();
            poll_fn(move |cx| {
                if s.poll_wait_cell(cell, &mut || cx.waker().clone()) {
                    Poll::Ready(s.now())
                } else {
                    Poll::Pending
                }
            })
        });
        sim.run_until(async move {
            s.sleep(SimDuration::from_nanos(40)).await;
            s.wake_wait_cell(cell);
            assert_eq!(waiter.await, SimTime(40));
            let (_ev, waker) = s.event_waker(h, 5);
            assert!(!s.poll_wait_cell(cell, &mut || waker.clone()));
            assert_eq!(s.core.foreign.borrow().len(), 1);
            s.wake_wait_cell(cell);
            yield_now().await;
            assert_eq!(*log.borrow(), vec![(40, 5)]);
            assert_eq!(*s.core.foreign_free.borrow(), vec![0], "entry recycled");
            assert!(s.poll_wait_cell(cell, &mut || unreachable!()));
            s.free_wait_cell(cell);
        });
    }

    /// An event-slot waker on a timer keeps reading its slot's
    /// generation at fire time: a park cancelled before its timer fires
    /// never dispatches, even once the slot is re-armed.
    #[test]
    fn foreign_timer_reads_the_event_generation_at_fire_time() {
        let sim = Sim::new();
        let (h, log) = logging_handler(&sim);
        let s = sim.clone();
        sim.run_until(async move {
            let (ev, waker) = s.event_waker(h, 1);
            s.register_timer(SimTime(100), waker);
            assert!(s.cancel_event(ev));
            let rearmed = s.schedule_event(SimTime(300), h, 2);
            assert_eq!(rearmed.slot, ev.slot);
            s.sleep(SimDuration::from_nanos(400)).await;
        });
        // The stale timer fired at 100 with the slot's then-current
        // generation (the re-arm's), so it dispatched the new event
        // early — exactly what waking the waker by hand would do — and
        // the re-arm's own timer found it already spent.
        assert_eq!(*log.borrow(), vec![(100, 2)]);
        assert!(sim.core.foreign.borrow().iter().all(Option::is_none));
    }

    /// A wait cell is one word in the slab and its handle is 4 bytes.
    #[test]
    fn wait_cells_are_word_sized() {
        let sim = Sim::new();
        let _ = sim.wait_cell();
        assert!(std::mem::size_of_val(&sim.core.cells.borrow()[0]) <= 8);
        assert_eq!(std::mem::size_of::<WaitCell>(), 4);
    }

    #[test]
    fn cleared_handler_discards_pending_events() {
        let sim = Sim::new();
        let (h, log) = logging_handler(&sim);
        let s = sim.clone();
        sim.run_until(async move {
            s.schedule_event(SimTime(100), h, 1);
            s.clear_event_handler(h);
            s.sleep(SimDuration::from_nanos(200)).await;
        });
        assert!(log.borrow().is_empty());
    }

    #[test]
    fn events_interleave_deterministically_with_tasks() {
        let run = || {
            let sim = Sim::new();
            let (h, log) = logging_handler(&sim);
            let s = sim.clone();
            sim.run_until(async move {
                for i in 0..8u64 {
                    s.schedule_event(SimTime(10 * i), h, i);
                }
                let l2 = {
                    let (h2, l2) = logging_handler(&s);
                    s.schedule_event(SimTime(35), h2, 100);
                    l2
                };
                s.sleep(SimDuration::from_nanos(200)).await;
                let snap = l2.borrow().clone();
                snap
            });
            let fired = log.borrow().clone();
            (fired, sim.events())
        };
        assert_eq!(run(), run());
    }

    /// One step of the randomized slab-lifecycle interpreter: indexes
    /// refer to the script's table of previously armed events.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum SlabOp {
        Schedule { delay: u64, data: u64 },
        Post { data: u64 },
        /// Arm through [`Sim::event_waker`] and hold the waker.
        Park,
        /// Wake one still-parked event (once, as sync primitives do).
        Wake { target: usize },
        Cancel { target: usize },
        Run { nanos: u64 },
    }

    impl crate::proptest::Shrink for SlabOp {
        fn shrink_candidates(&self) -> Vec<SlabOp> {
            match *self {
                SlabOp::Schedule { delay, data } => delay
                    .shrink_candidates()
                    .into_iter()
                    .map(|d| SlabOp::Schedule { delay: d, data })
                    .collect(),
                SlabOp::Post { .. } | SlabOp::Park => Vec::new(),
                SlabOp::Wake { target } => target
                    .shrink_candidates()
                    .into_iter()
                    .map(|t| SlabOp::Wake { target: t })
                    .collect(),
                SlabOp::Cancel { target } => target
                    .shrink_candidates()
                    .into_iter()
                    .map(|t| SlabOp::Cancel { target: t })
                    .collect(),
                SlabOp::Run { nanos } => nanos
                    .shrink_candidates()
                    .into_iter()
                    .map(|n| SlabOp::Run { nanos: n })
                    .collect(),
            }
        }
    }

    /// ABA / use-after-cancel property: over random schedule/park/
    /// cancel/fire interleavings, every armed event dispatches exactly
    /// once with its own payload unless cancelled first, a cancelled
    /// event never dispatches even when its slot is re-armed
    /// (generation guard), and cancel-after-fire reports `false`. Parked
    /// events fire when woken; a cancelled park drops its waker unwoken,
    /// as a sync primitive's wait node does.
    #[test]
    fn prop_event_slab_generations_survive_reuse() {
        use crate::proptest::{check, CaseOutcome};
        use crate::{prop_assert, prop_assert_eq};

        check(
            "event_slab_generations_survive_reuse",
            |g| {
                g.vec(1, 48, |g| match g.u8_in(0, 5) {
                    0 => SlabOp::Schedule {
                        delay: g.u64_in(0, 400),
                        data: g.any_u32() as u64,
                    },
                    1 => SlabOp::Post {
                        data: g.any_u32() as u64,
                    },
                    2 => SlabOp::Cancel {
                        target: g.usize_in(0, 63),
                    },
                    3 => SlabOp::Park,
                    4 => SlabOp::Wake {
                        target: g.usize_in(0, 63),
                    },
                    _ => SlabOp::Run {
                        nanos: g.u64_in(0, 600),
                    },
                })
            },
            |script| {
                let sim = Sim::new();
                let (h, log) = logging_handler(&sim);
                let s = sim.clone();
                let script = script.clone();
                // Expected-to-fire set, maintained by the reference
                // interpreter: data -> armed deadline.
                let outcome = sim.run_until(async move {
                    let mut armed: Vec<(ScheduledEvent, u64, u64)> = Vec::new(); // (ev, data, deadline)
                    // Unwoken parks: (index into `armed`, waker). A
                    // park's deadline is the instant it is woken.
                    let mut parked: Vec<(usize, Waker)> = Vec::new();
                    let mut expected: Vec<(u64, u64)> = Vec::new();
                    let mut cancelled: Vec<u64> = Vec::new();
                    // Payloads are re-keyed to a unique counter so the
                    // reference interpreter can match fires to arms.
                    let mut next_data: u64 = 0;
                    for op in script {
                        match op {
                            SlabOp::Schedule { delay, data: _ } => {
                                let data = next_data;
                                next_data += 1;
                                let at = s.now() + SimDuration::from_nanos(delay);
                                let ev = s.schedule_event(at, h, data);
                                armed.push((ev, data, at.as_nanos()));
                            }
                            SlabOp::Post { data: _ } => {
                                let data = next_data;
                                next_data += 1;
                                let ev = s.post_event(h, data);
                                armed.push((ev, data, s.now().as_nanos()));
                            }
                            SlabOp::Park => {
                                let data = next_data;
                                next_data += 1;
                                let (ev, waker) = s.event_waker(h, data);
                                parked.push((armed.len(), waker));
                                armed.push((ev, data, u64::MAX));
                            }
                            SlabOp::Wake { target } => {
                                if parked.is_empty() {
                                    continue;
                                }
                                let (i, waker) = parked.remove(target % parked.len());
                                armed[i].2 = s.now().as_nanos();
                                waker.wake();
                            }
                            SlabOp::Cancel { target } => {
                                if armed.is_empty() {
                                    continue;
                                }
                                let (ev, data, deadline) = armed[target % armed.len()];
                                let already_fired =
                                    log.borrow().iter().any(|&(_, d)| d == data);
                                let already_cancelled = cancelled.contains(&data);
                                let ok = s.cancel_event(ev);
                                if ok {
                                    cancelled.push(data);
                                    parked.retain(|&(i, _)| armed[i].1 != data);
                                } else if !already_fired && !already_cancelled {
                                    return CaseOutcome::Fail(format!(
                                        "cancel of live unfired event {data} (deadline \
                                         {deadline}) returned false"
                                    ));
                                }
                            }
                            SlabOp::Run { nanos } => {
                                s.sleep(SimDuration::from_nanos(nanos)).await;
                            }
                        }
                    }
                    // Wake every remaining park, then drain everything
                    // still pending.
                    for (i, waker) in parked.drain(..) {
                        armed[i].2 = s.now().as_nanos();
                        waker.wake();
                    }
                    s.sleep(SimDuration::from_nanos(1_000)).await;
                    for (_, data, deadline) in &armed {
                        if !cancelled.contains(data) {
                            expected.push((*deadline, *data));
                        }
                    }
                    let mut fired = log.borrow().clone();
                    fired.sort_unstable();
                    expected.sort_unstable();
                    // Non-cancelled events must each fire exactly once at
                    // their deadline; cancelled ones never.
                    prop_assert_eq!(fired, expected);
                    for data in &cancelled {
                        prop_assert!(
                            !log.borrow().iter().any(|(_, d)| d == data),
                            "cancelled event {data} dispatched"
                        );
                    }
                    // All slots must recycle.
                    prop_assert_eq!(s.live_events(), 0);
                    CaseOutcome::Pass
                });
                outcome
            },
        );
    }
}
