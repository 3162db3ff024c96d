//! The flight recorder: a fixed-size, lock-light ring-buffer journal of
//! typed lifecycle events.
//!
//! Where spans answer "how long did this phase take?", the journal
//! answers "what happened to request X?" and "what was the server doing
//! at time T?" — always on, bounded, and cheap enough to leave recording
//! in production. Events are written into per-thread shards: the hot
//! path is one relaxed index bump plus a handful of relaxed slot stores,
//! with **zero allocation** and no lock. Memory is bounded at
//! configuration time; once a shard wraps, its oldest events are
//! overwritten.
//!
//! Sizing the journal to `0` (the default — [`configure`] has never been
//! called) disables it entirely: [`record`] is a single relaxed pointer
//! load and return, allocating nothing, which keeps permanently
//! instrumented call sites free when the recorder is off.
//!
//! Readers ([`snapshot`], [`events_for_request`]) are reconstructive,
//! not transactional: each slot carries a sequence guard written last,
//! so a read that races an in-flight write is detected and skipped
//! rather than returned torn. On a quiesced journal (the normal case
//! for a debug endpoint inspecting finished requests) snapshots are
//! exact and stable.
//!
//! Request attribution crosses crate boundaries through an ambient
//! per-thread context ([`set_context`]): the server front end sets the
//! (connection, request) pair before running a handler, and downstream
//! crates (`dram-core` cache lookups, `dram-faults` fires) record via
//! [`note`] without needing the ids threaded through their APIs.

use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::span;

/// The typed lifecycle events the journal records.
///
/// Connection-scoped events (everything the reactor does) carry a
/// connection id and no request id — the request does not exist yet.
/// Request-scoped events carry both. The `arg` of an [`Event`] is
/// kind-specific and documented per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// Connection accepted by the reactor. `arg` = raw fd.
    Accept = 1,
    /// Connection parked (registered idle) in the epoll set.
    /// `arg` = requests served on it so far.
    Park = 2,
    /// A parked connection turned readable (or hung up) and the reactor
    /// woke it for dispatch. `arg` = 0.
    Wake = 3,
    /// The reactor decided to hand the connection to the worker pool.
    /// `arg` = 0.
    Dispatch = 4,
    /// Connection pushed onto the bounded worker queue.
    /// `arg` = queue depth after the push.
    QueueEnter = 5,
    /// Connection popped off the queue by a worker.
    /// `arg` = queue wait in microseconds.
    QueueExit = 6,
    /// A worker started parsing a request — the moment the request id
    /// is born. `arg` = requests served on the connection before this.
    WorkerStart = 7,
    /// Engine model-cache hit. `arg` = 0.
    CacheHit = 8,
    /// Engine model-cache miss (a model build). `arg` = 0.
    CacheMiss = 9,
    /// Differential rebuild skipped build phases. `arg` = phases
    /// skipped by this rebuild.
    RebuildSkip = 10,
    /// A fault-injection site fired. `arg` = index into
    /// `dram_faults::SITES`.
    FaultFire = 11,
    /// Response written (or write attempted). `arg` = HTTP status.
    Response = 12,
    /// Connection closed. `arg` = requests it served.
    Close = 13,
}

impl EventKind {
    /// All kinds, in discriminant order.
    pub const ALL: [EventKind; 13] = [
        EventKind::Accept,
        EventKind::Park,
        EventKind::Wake,
        EventKind::Dispatch,
        EventKind::QueueEnter,
        EventKind::QueueExit,
        EventKind::WorkerStart,
        EventKind::CacheHit,
        EventKind::CacheMiss,
        EventKind::RebuildSkip,
        EventKind::FaultFire,
        EventKind::Response,
        EventKind::Close,
    ];

    /// Stable snake_case label used by `/debug/*` JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Accept => "accept",
            EventKind::Park => "park",
            EventKind::Wake => "wake",
            EventKind::Dispatch => "dispatch",
            EventKind::QueueEnter => "queue_enter",
            EventKind::QueueExit => "queue_exit",
            EventKind::WorkerStart => "worker_start",
            EventKind::CacheHit => "cache_hit",
            EventKind::CacheMiss => "cache_miss",
            EventKind::RebuildSkip => "rebuild_skip",
            EventKind::FaultFire => "fault_fire",
            EventKind::Response => "response",
            EventKind::Close => "close",
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        EventKind::ALL.get(v.wrapping_sub(1) as usize).copied()
    }
}

/// One journal event, as read back by [`snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Per-shard write sequence (starts at 1). Orders events that share
    /// a timestamp and thread.
    pub seq: u64,
    /// Monotonic microseconds since the shared observability epoch
    /// (the same axis span timestamps use).
    pub ts_us: u64,
    /// Dense id of the recording thread (the span thread table).
    pub thread: u64,
    /// What happened.
    pub kind: EventKind,
    /// Connection id (`0` = not connection-scoped).
    pub conn: u64,
    /// Request sequence number (`0` = not request-scoped).
    pub request: u64,
    /// Kind-specific argument, see [`EventKind`].
    pub arg: u64,
}

/// One ring slot: a sequence guard plus the packed event. The guard is
/// written last (release); readers check it before and after reading
/// the payload so a torn racing read is skipped, never surfaced.
struct Slot {
    /// `0` = empty or mid-write; otherwise the claim sequence + 1.
    guard: AtomicU64,
    ts_us: AtomicU64,
    /// `thread << 8 | kind`.
    thread_kind: AtomicU64,
    conn: AtomicU64,
    request: AtomicU64,
    arg: AtomicU64,
}

impl Slot {
    fn empty() -> Self {
        Self {
            guard: AtomicU64::new(0),
            ts_us: AtomicU64::new(0),
            thread_kind: AtomicU64::new(0),
            conn: AtomicU64::new(0),
            request: AtomicU64::new(0),
            arg: AtomicU64::new(0),
        }
    }
}

/// Threads are spread over this many shards by dense thread id. Two
/// threads sharing a shard stay correct (the index bump is atomic);
/// they merely contend on one cache line instead of none.
const SHARDS: usize = 16;

struct Shard {
    head: AtomicU64,
    slots: Box<[Slot]>,
}

/// A configured journal: fixed shards, fixed capacity, no further
/// allocation after construction.
struct Journal {
    shards: Vec<Shard>,
    cap_per_shard: usize,
}

impl Journal {
    fn with_capacity(total_events: usize) -> Self {
        let cap_per_shard = total_events.div_ceil(SHARDS).max(1);
        let shards = (0..SHARDS)
            .map(|_| Shard {
                head: AtomicU64::new(0),
                slots: (0..cap_per_shard).map(|_| Slot::empty()).collect(),
            })
            .collect();
        Self {
            shards,
            cap_per_shard,
        }
    }

    fn push(&self, kind: EventKind, conn: u64, request: u64, arg: u64) {
        let thread = span::current_thread_id();
        let ts_us = span::now_us();
        let shard = &self.shards[(thread as usize).wrapping_sub(1) % SHARDS];
        let n = shard.head.fetch_add(1, Ordering::Relaxed);
        #[allow(clippy::cast_possible_truncation)]
        let slot = &shard.slots[(n % self.cap_per_shard as u64) as usize];
        // Invalidate, write payload, publish. A reader that lands in
        // the middle sees guard 0 or a guard change and skips the slot.
        slot.guard.store(0, Ordering::Release);
        slot.ts_us.store(ts_us, Ordering::Relaxed);
        slot.thread_kind
            .store(thread << 8 | u64::from(kind as u8), Ordering::Relaxed);
        slot.conn.store(conn, Ordering::Relaxed);
        slot.request.store(request, Ordering::Relaxed);
        slot.arg.store(arg, Ordering::Relaxed);
        slot.guard.store(n + 1, Ordering::Release);
    }

    fn read_all(&self) -> Vec<Event> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for slot in shard.slots.iter() {
                let guard = slot.guard.load(Ordering::Acquire);
                if guard == 0 {
                    continue;
                }
                let ts_us = slot.ts_us.load(Ordering::Relaxed);
                let thread_kind = slot.thread_kind.load(Ordering::Relaxed);
                let conn = slot.conn.load(Ordering::Relaxed);
                let request = slot.request.load(Ordering::Relaxed);
                let arg = slot.arg.load(Ordering::Relaxed);
                if slot.guard.load(Ordering::Acquire) != guard {
                    // A writer lapped us mid-read: the payload may be
                    // torn, drop it.
                    continue;
                }
                #[allow(clippy::cast_possible_truncation)]
                let Some(kind) = EventKind::from_u8(thread_kind as u8) else {
                    continue;
                };
                out.push(Event {
                    seq: guard,
                    ts_us,
                    thread: thread_kind >> 8,
                    kind,
                    conn,
                    request,
                    arg,
                });
            }
        }
        out.sort_by_key(|e| (e.ts_us, e.thread, e.seq));
        out
    }

    fn reset(&self) {
        for shard in &self.shards {
            shard.head.store(0, Ordering::Relaxed);
            for slot in shard.slots.iter() {
                slot.guard.store(0, Ordering::Release);
            }
        }
    }
}

/// The active journal; null when sized 0 (disabled). Swapped whole on
/// [`configure`] so the hot path is one pointer load.
static ACTIVE: AtomicPtr<Journal> = AtomicPtr::new(std::ptr::null_mut());

/// Serializes reconfiguration (a test-and-bench concern, never hot).
fn config_lock() -> &'static Mutex<()> {
    static LOCK: Mutex<()> = Mutex::new(());
    &LOCK
}

thread_local! {
    /// Ambient (connection, request) attribution for [`note`] call
    /// sites that don't know the ids — engine cache lookups, fault
    /// fires. Set by the server worker around each request.
    static CONTEXT: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

/// Sizes (or resizes) the journal to hold about `total_events` events
/// across its shards; `0` disables recording entirely.
///
/// Allocation happens here, once — never on the record path. The
/// previous journal, if any, is intentionally leaked: a racing writer
/// may still hold its pointer, and reconfiguration is a startup/test
/// operation, not a loop.
pub fn configure(total_events: usize) {
    let _guard = config_lock()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let new = if total_events == 0 {
        std::ptr::null_mut()
    } else {
        Box::into_raw(Box::new(Journal::with_capacity(total_events)))
    };
    ACTIVE.swap(new, Ordering::AcqRel);
}

/// Whether the journal is currently recording (sized above 0).
#[must_use]
pub fn enabled() -> bool {
    !ACTIVE.load(Ordering::Relaxed).is_null()
}

/// Total event capacity of the active journal (0 when disabled).
#[must_use]
pub fn capacity() -> usize {
    let ptr = ACTIVE.load(Ordering::Acquire);
    if ptr.is_null() {
        return 0;
    }
    let journal = unsafe { &*ptr };
    journal.cap_per_shard * SHARDS
}

/// Forgets every recorded event, keeping the configured capacity.
pub fn clear() {
    let ptr = ACTIVE.load(Ordering::Acquire);
    if !ptr.is_null() {
        unsafe { &*ptr }.reset();
    }
}

/// Records one event with explicit attribution. With the journal
/// disabled this is one relaxed load and return: no clock read, no
/// allocation, no stores.
pub fn record(kind: EventKind, conn: u64, request: u64, arg: u64) {
    let ptr = ACTIVE.load(Ordering::Acquire);
    if ptr.is_null() {
        return;
    }
    unsafe { &*ptr }.push(kind, conn, request, arg);
}

/// Records one event attributed to the calling thread's ambient
/// context ([`set_context`]) — for call sites (engine cache, fault
/// sites) that don't know which request they are serving.
pub fn note(kind: EventKind, arg: u64) {
    let ptr = ACTIVE.load(Ordering::Acquire);
    if ptr.is_null() {
        return;
    }
    let (conn, request) = CONTEXT.with(std::cell::Cell::get);
    unsafe { &*ptr }.push(kind, conn, request, arg);
}

/// Sets the calling thread's ambient (connection, request) attribution
/// for subsequent [`note`] calls. Pass `(0, 0)` to clear.
pub fn set_context(conn: u64, request: u64) {
    CONTEXT.with(|c| c.set((conn, request)));
}

/// Every event currently readable, ordered by timestamp (ties broken
/// by thread then shard sequence). Costs one pass over the ring; slots
/// raced by in-flight writers are skipped, not torn.
#[must_use]
pub fn snapshot() -> Vec<Event> {
    let ptr = ACTIVE.load(Ordering::Acquire);
    if ptr.is_null() {
        return Vec::new();
    }
    unsafe { &*ptr }.read_all()
}

/// The most recent `n` events, oldest first.
#[must_use]
pub fn recent(n: usize) -> Vec<Event> {
    let mut all = snapshot();
    if all.len() > n {
        all.drain(..all.len() - n);
    }
    all
}

/// Reconstructs the end-to-end timeline of one request: every event
/// stamped with its request sequence, joined with the connection-scoped
/// events (accept, park, wake, dispatch, queue) of the connection that
/// carried it, from the connection's accept up to the request's last
/// event. Empty when the journal holds nothing for that request (never
/// recorded, or already overwritten).
#[must_use]
pub fn events_for_request(request: u64) -> Vec<Event> {
    if request == 0 {
        return Vec::new();
    }
    let all = snapshot();
    let conn = all
        .iter()
        .find(|e| e.request == request && e.conn != 0)
        .map_or(0, |e| e.conn);
    // The request's last event bounds the window by *position* in the
    // sorted order, not raw timestamp: a park recorded in the same
    // microsecond as the response (but after it) stays outside.
    let Some(end) = all.iter().rposition(|e| e.request == request) else {
        return Vec::new();
    };
    all.into_iter()
        .take(end + 1)
        .filter(|e| e.request == request || (conn != 0 && e.conn == conn && e.request == 0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// The journal is process-global; tests reconfigure it and must not
    /// interleave.
    fn exclusive() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        let guard = LOCK
            .get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        configure(0);
        guard
    }

    #[test]
    fn disabled_journal_records_and_returns_nothing() {
        let _x = exclusive();
        assert!(!enabled());
        assert_eq!(capacity(), 0);
        record(EventKind::Accept, 1, 0, 7);
        note(EventKind::CacheHit, 0);
        assert!(snapshot().is_empty());
        assert!(events_for_request(1).is_empty());
    }

    #[test]
    fn events_round_trip_in_order() {
        let _x = exclusive();
        configure(1024);
        assert!(enabled());
        assert!(capacity() >= 1024);
        record(EventKind::Accept, 5, 0, 33);
        record(EventKind::Dispatch, 5, 0, 0);
        record(EventKind::WorkerStart, 5, 9, 0);
        record(EventKind::Response, 5, 9, 200);
        let all = snapshot();
        assert_eq!(all.len(), 4);
        assert_eq!(all[0].kind, EventKind::Accept);
        assert_eq!(all[0].conn, 5);
        assert_eq!(all[0].arg, 33);
        assert_eq!(all[3].kind, EventKind::Response);
        assert_eq!(all[3].request, 9);
        assert!(all.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
        // Same-thread events share a timestamp axis and ascend by seq.
        assert!(all.windows(2).all(|w| w[0].seq < w[1].seq));
        configure(0);
    }

    #[test]
    fn ring_overwrites_oldest_events() {
        let _x = exclusive();
        configure(SHARDS * 4); // 4 slots per shard
        for i in 0..100u64 {
            record(EventKind::Wake, i, 0, 0);
        }
        let all = snapshot();
        // One thread → one shard → its 4 newest survive.
        assert_eq!(all.len(), 4);
        assert!(all.iter().all(|e| e.conn >= 96), "{all:?}");
        configure(0);
    }

    #[test]
    fn ambient_context_attributes_notes() {
        let _x = exclusive();
        configure(256);
        set_context(3, 12);
        note(EventKind::CacheMiss, 0);
        note(EventKind::FaultFire, 2);
        set_context(0, 0);
        note(EventKind::CacheHit, 0);
        let all = snapshot();
        let miss = all.iter().find(|e| e.kind == EventKind::CacheMiss).unwrap();
        assert_eq!((miss.conn, miss.request), (3, 12));
        let hit = all.iter().find(|e| e.kind == EventKind::CacheHit).unwrap();
        assert_eq!((hit.conn, hit.request), (0, 0));
        configure(0);
    }

    #[test]
    fn request_timeline_joins_connection_events() {
        let _x = exclusive();
        configure(1024);
        // Connection 7 serves request 40, then request 41; connection 8
        // is unrelated noise.
        record(EventKind::Accept, 7, 0, 10);
        record(EventKind::Accept, 8, 0, 11);
        record(EventKind::Dispatch, 7, 0, 0);
        record(EventKind::WorkerStart, 7, 40, 0);
        record(EventKind::CacheMiss, 7, 40, 0);
        record(EventKind::Response, 7, 40, 200);
        record(EventKind::Park, 7, 0, 1);
        record(EventKind::WorkerStart, 7, 41, 1);
        record(EventKind::Response, 7, 41, 200);
        let timeline = events_for_request(40);
        // Request 40's own events plus conn 7's accept + dispatch; the
        // later park and request 41 events are outside its window,
        // conn 8 is absent entirely.
        let kinds: Vec<EventKind> = timeline.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Accept,
                EventKind::Dispatch,
                EventKind::WorkerStart,
                EventKind::CacheMiss,
                EventKind::Response,
            ]
        );
        assert!(timeline.iter().all(|e| e.conn == 7));
        assert!(timeline.iter().all(|e| e.request == 0 || e.request == 40));
        assert!(events_for_request(999).is_empty());
        assert!(events_for_request(0).is_empty());
        configure(0);
    }

    #[test]
    fn concurrent_writers_never_produce_torn_events() {
        let _x = exclusive();
        configure(SHARDS * 8);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    for i in 0..2_000u64 {
                        record(EventKind::Wake, t + 1, i, t * 1_000_000 + i);
                    }
                });
            }
        });
        for e in snapshot() {
            // Every surviving event is self-consistent: its arg encodes
            // a (thread, i) pair that matches its request field.
            assert_eq!(e.arg % 1_000_000, e.request, "torn event {e:?}");
            assert!(e.conn >= 1 && e.conn <= 4, "torn event {e:?}");
        }
        configure(0);
    }

    #[test]
    fn kind_labels_are_unique_and_stable() {
        let mut labels: Vec<&str> = EventKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), EventKind::ALL.len());
        for k in EventKind::ALL {
            assert_eq!(EventKind::from_u8(k as u8), Some(k));
        }
        assert_eq!(EventKind::from_u8(0), None);
        assert_eq!(EventKind::from_u8(200), None);
    }
}
