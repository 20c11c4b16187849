//! Event sinks: where emitted [`Event`]s go.
//!
//! [`Sink`] is statically dispatched — the engine is generic over `S:
//! Sink` — and carries an associated `const ACTIVE`. Instrumentation
//! sites guard both event construction and emission with
//! `if S::ACTIVE { ... }`, so for [`NullSink`] (`ACTIVE = false`) the
//! whole block is a compile-time-dead branch and the traced engine
//! monomorphizes to the same machine code as an uninstrumented one.
//! `crates/bench/benches/obs_overhead.rs` holds that claim to ≤2%.

use std::any::Any;
use std::io::{self, Write};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};

use crate::event::Event;

/// Destination for structured events.
///
/// Implementors receive every event an instrumented component emits.
/// The associated [`Sink::ACTIVE`] constant lets instrumentation sites
/// skip event *construction* (not just delivery) when tracing is off.
pub trait Sink {
    /// Whether instrumentation sites should construct and emit events.
    /// Leave at the default `true` for every real sink; only
    /// [`NullSink`] turns it off.
    const ACTIVE: bool = true;

    /// Deliver one event.
    fn emit(&mut self, event: &Event);

    /// A request/batch boundary: a good moment to flush writer-local
    /// buffers to shared or durable destinations. The serving layer
    /// calls this once per applied request; sinks without buffers keep
    /// the default no-op. Must be cheap when there is nothing to flush.
    fn sync(&mut self) {}
}

/// The disabled sink: all instrumentation compiles out.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl Sink for NullSink {
    const ACTIVE: bool = false;

    #[inline(always)]
    fn emit(&mut self, _event: &Event) {}
}

/// Collects events in memory; for tests and in-process analysis.
#[derive(Debug, Default)]
pub struct VecSink {
    events: Vec<Event>,
}

impl VecSink {
    /// New empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The events emitted so far, in order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Consume the sink, returning the collected events.
    pub fn into_events(self) -> Vec<Event> {
        self.events
    }
}

impl Sink for VecSink {
    fn emit(&mut self, event: &Event) {
        self.events.push(event.clone());
    }
}

/// Counts events per kind without storing them; for overhead benches
/// and cheap sanity checks.
#[derive(Debug, Default)]
pub struct CountingSink {
    total: u64,
    job_submitted: u64,
    plan_chosen: u64,
    segment_started: u64,
    segment_finished: u64,
    spot_evicted: u64,
    job_completed: u64,
    other: u64,
}

impl CountingSink {
    /// New zeroed sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total events seen.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count for one event kind by its stable name; kinds this sink does
    /// not track individually are pooled under `"other"`.
    pub fn count(&self, name: &str) -> u64 {
        match name {
            "job_submitted" => self.job_submitted,
            "plan_chosen" => self.plan_chosen,
            "segment_started" => self.segment_started,
            "segment_finished" => self.segment_finished,
            "spot_evicted" => self.spot_evicted,
            "job_completed" => self.job_completed,
            "other" => self.other,
            _ => 0,
        }
    }
}

impl Sink for CountingSink {
    fn emit(&mut self, event: &Event) {
        self.total += 1;
        match event {
            Event::JobSubmitted { .. } => self.job_submitted += 1,
            Event::PlanChosen { .. } => self.plan_chosen += 1,
            Event::SegmentStarted { .. } => self.segment_started += 1,
            Event::SegmentFinished { .. } => self.segment_finished += 1,
            Event::SpotEvicted { .. } => self.spot_evicted += 1,
            Event::JobCompleted { .. } => self.job_completed += 1,
            _ => self.other += 1,
        }
    }
}

/// Events per batch handed from the emitting thread to the writer.
const BATCH: usize = 1024;

/// Full batches that may wait for the writer; `emit` blocks beyond
/// that, so memory in flight is bounded. The queue is deep because a
/// stall of either thread stalls both once it fills: on a shared 2-vCPU
/// host, 4 batches made the traced benchmark run slower than writing on
/// the engine thread in some benchmark runs.
const QUEUE: usize = 64;

/// Writes one JSON object per line to a [`Write`] destination, from a
/// writer thread of its own.
///
/// [`Sink::emit`] only clones the event into a batch. A full batch goes
/// over a bounded channel to one writer thread, which serializes each
/// event with [`Event::write_json_line`] into one reused buffer, writes
/// it, and frees the batch. Batches are written one at a time and in
/// the order they were sent, so the destination gets the same bytes as
/// if every event were written on the caller's thread.
///
/// `emit` allocates one batch per 1024 events, plus the strings of
/// events that carry them (tenant names, cell keys). At most 64 full
/// batches wait for the writer; `emit` blocks beyond that, so memory in
/// flight is bounded.
///
/// [`JsonlSink::written`] and [`Sink::sync`] are barriers that run on
/// the caller's thread: they wait until the writer thread has written
/// every full batch, then write the partial batch themselves (`sync`
/// also flushes the destination). A caller that syncs every few events,
/// as the serving daemon does once per request, never wakes the writer
/// thread and pays what writing on its own thread costs.
///
/// I/O errors are sticky: the first error is stored and later events
/// are dropped, so the hot path never panics. A destination that
/// panics, or a writer thread that cannot be spawned, counts as an
/// error too. Call [`JsonlSink::finish`] to flush and surface it.
/// Dropping the sink without `finish` still delivers every event to the
/// destination.
pub struct JsonlSink<W: Write + Send + 'static> {
    batch: Vec<Event>,
    /// `None` once the pipeline is closed or the writer is gone.
    pipe: Option<Pipe<W>>,
    /// Why the writer is gone, when it did not stop through `finish`.
    failed: Option<io::Error>,
    /// The writer's count at the last barrier.
    written: u64,
    /// Events were emitted since the last `sync`.
    unsynced: bool,
}

struct Pipe<W> {
    shared: Arc<Shared<W>>,
    batches: SyncSender<Vec<Event>>,
    thread: JoinHandle<()>,
}

/// What the sink and its writer thread share.
struct Shared<W> {
    writer: Mutex<Writer<W>>,
    /// Full batches sent and not yet written. The writer thread
    /// decrements it under the `writer` lock.
    queued: AtomicUsize,
    /// Notified when `queued` drops to zero and when the thread ends.
    idle: Condvar,
}

/// The destination and the per-event loop.
struct Writer<W> {
    out: W,
    line: String,
    written: u64,
    error: Option<io::Error>,
}

impl<W: Write> Writer<W> {
    fn write(&mut self, event: &Event) {
        if self.error.is_some() {
            return;
        }
        self.line.clear();
        event.write_json_line(&mut self.line);
        self.line.push('\n');
        match self.out.write_all(self.line.as_bytes()) {
            Ok(()) => self.written += 1,
            Err(err) => self.error = Some(err),
        }
    }

    fn flush(&mut self) {
        if self.error.is_some() {
            return;
        }
        if let Err(err) = self.out.flush() {
            self.error = Some(err);
        }
    }
}

impl<W: Write> Shared<W> {
    /// The writer thread: writes batches in arrival order until the
    /// sink hangs up. A panicking destination poisons the lock.
    fn run(&self, batches: Receiver<Vec<Event>>) {
        /// Wakes a waiting barrier however the thread ends.
        struct Hangup<'a>(&'a Condvar);
        impl Drop for Hangup<'_> {
            fn drop(&mut self) {
                self.0.notify_all();
            }
        }
        let _hangup = Hangup(&self.idle);
        for batch in batches {
            let Ok(mut writer) = self.writer.lock() else {
                return;
            };
            for event in &batch {
                writer.write(event);
            }
            if self.queued.fetch_sub(1, Ordering::AcqRel) == 1 {
                self.idle.notify_all();
            }
        }
    }
}

/// The error a panicked destination leaves behind.
fn panicked(payload: Box<dyn Any + Send>) -> io::Error {
    let why = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    io::Error::other(format!("trace writer panicked: {why}"))
}

impl<W: Write + Send + 'static> JsonlSink<W> {
    /// Wrap a writer. For files, pass a `BufWriter`: the sink makes one
    /// small write per event.
    pub fn new(writer: W) -> Self {
        let shared = Arc::new(Shared {
            writer: Mutex::new(Writer {
                out: writer,
                line: String::with_capacity(256),
                written: 0,
                error: None,
            }),
            queued: AtomicUsize::new(0),
            idle: Condvar::new(),
        });
        let (batches, rx) = mpsc::sync_channel(QUEUE);
        let worker = Arc::clone(&shared);
        let spawned = thread::Builder::new()
            .name("gaia-trace-writer".into())
            .spawn(move || worker.run(rx));
        let (pipe, failed) = match spawned {
            Ok(thread) => {
                let pipe = Pipe {
                    shared,
                    batches,
                    thread,
                };
                (Some(pipe), None)
            }
            Err(err) => (None, Some(err)),
        };
        Self {
            batch: Vec::new(),
            pipe,
            failed,
            written: 0,
            unsynced: false,
        }
    }

    /// Events successfully written so far. Waits for the writer to
    /// handle every event emitted before the call.
    pub fn written(&mut self) -> u64 {
        self.barrier(false);
        self.written
    }

    /// Write every event, flush, and return the inner writer, or the
    /// first write/flush error.
    pub fn finish(mut self) -> io::Result<W> {
        self.barrier(true);
        let writer = self.close();
        if let Some(err) = self.failed.take() {
            return Err(err);
        }
        let Some(mut writer) = writer else {
            return Err(io::Error::other("trace writer thread is gone"));
        };
        match writer.error.take() {
            Some(err) => Err(err),
            None => Ok(writer.out),
        }
    }

    /// Sends the full batch to the writer thread, waiting while the
    /// queue is full.
    fn hand_off(&mut self) {
        let batch = std::mem::take(&mut self.batch);
        let Some(pipe) = &self.pipe else {
            return;
        };
        pipe.shared.queued.fetch_add(1, Ordering::AcqRel);
        if pipe.batches.send(batch).is_err() {
            self.close();
        }
    }

    /// Waits until the writer thread has written every full batch, then
    /// writes the partial batch on this thread.
    fn barrier(&mut self, flush: bool) {
        let Some(pipe) = &self.pipe else {
            return;
        };
        let batch = &self.batch;
        let shared = &pipe.shared;
        let done = panic::catch_unwind(AssertUnwindSafe(|| {
            let mut writer = shared.writer.lock().ok()?;
            while shared.queued.load(Ordering::Acquire) > 0 {
                writer = shared.idle.wait(writer).ok()?;
            }
            for event in batch {
                writer.write(event);
            }
            if flush {
                writer.flush();
            }
            Some(writer.written)
        }));
        // Keep the allocation: a caller that syncs every few events
        // reuses one batch.
        self.batch.clear();
        match done {
            Ok(Some(written)) => self.written = written,
            // The writer thread panicked; `close` collects why.
            Ok(None) => {
                self.close();
            }
            Err(payload) => {
                self.failed.get_or_insert(panicked(payload));
                self.close();
            }
        }
    }

    /// Hangs up and joins the writer thread, returning the destination
    /// unless it panicked. A panicked writer thread is stored in
    /// `failed`.
    fn close(&mut self) -> Option<Writer<W>> {
        let Pipe {
            shared,
            batches,
            thread,
        } = self.pipe.take()?;
        drop(batches);
        if let Err(payload) = thread.join() {
            self.failed.get_or_insert(panicked(payload));
        }
        // The thread has ended, so this is the last handle.
        let shared = Arc::into_inner(shared)?;
        shared.writer.into_inner().ok()
    }
}

impl<W: Write + Send + 'static> Sink for JsonlSink<W> {
    fn emit(&mut self, event: &Event) {
        if self.pipe.is_none() {
            return;
        }
        if self.batch.capacity() == 0 {
            self.batch.reserve_exact(BATCH);
        }
        self.batch.push(event.clone());
        self.unsynced = true;
        if self.batch.len() == BATCH {
            self.hand_off();
        }
    }

    /// Write and flush every earlier event, so `tail`-style consumers
    /// (`gaia trace summarize --follow`) see complete events at request
    /// boundaries. Errors stay sticky, surfaced by [`JsonlSink::finish`].
    fn sync(&mut self) {
        if self.unsynced {
            self.unsynced = false;
            self.barrier(true);
        }
    }
}

impl<W: Write + Send + 'static> Drop for JsonlSink<W> {
    /// Delivers every emitted event; the destination is dropped (a
    /// `BufWriter` flushes) once the writer thread has stopped.
    fn drop(&mut self) {
        self.barrier(false);
        self.close();
    }
}

impl<W: Write + Send + 'static> std::fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("pending", &self.batch.len())
            .field("written", &self.written)
            .field("failed", &self.failed)
            .finish_non_exhaustive()
    }
}

/// Object-safe subset of [`Sink`] for dynamic dispatch.
///
/// `Sink` itself is not object-safe (it has an associated const), so
/// shared multi-writer scenarios use this subtrait; every `Sink` is an
/// `EmitSink` via the blanket impl.
pub trait EmitSink {
    /// Deliver one event.
    fn emit_event(&mut self, event: &Event);

    /// Forward of [`Sink::sync`] for trait objects.
    fn sync_events(&mut self);
}

impl<S: Sink> EmitSink for S {
    fn emit_event(&mut self, event: &Event) {
        self.emit(event);
    }

    fn sync_events(&mut self) {
        self.sync();
    }
}

/// A cloneable, thread-safe handle to one shared sink.
///
/// Used for coarse-grained streams written from several threads (the
/// sweep-level `CellStarted`/`CellFinished`/cache events); hot per-cell
/// simulation streams keep their own private statically-dispatched sink
/// instead, so this mutex is never on the simulation fast path.
#[derive(Clone)]
pub struct SharedSink {
    inner: Arc<Mutex<dyn EmitSink + Send>>,
}

impl SharedSink {
    /// Share a sink between threads.
    pub fn new<S: Sink + Send + 'static>(sink: S) -> Self {
        Self {
            inner: Arc::new(Mutex::new(sink)),
        }
    }
}

impl Sink for SharedSink {
    fn emit(&mut self, event: &Event) {
        // A panic while holding the lock only loses buffered telemetry,
        // so recover the guard instead of propagating the poison.
        let mut guard = self
            .inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        guard.emit_event(event);
    }

    fn sync(&mut self) {
        let mut guard = self
            .inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        guard.sync_events();
    }
}

impl std::fmt::Debug for SharedSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSink").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CacheKind, PlanMode, PoolKind};

    fn sample() -> Event {
        Event::SegmentStarted {
            t: 60,
            job: 1,
            seg: 0,
            pool: PoolKind::Spot,
        }
    }

    #[test]
    // Asserting the consts is the point: ACTIVE drives the compile-out.
    #[allow(clippy::assertions_on_constants)]
    fn null_sink_is_inactive() {
        assert!(!NullSink::ACTIVE);
        assert!(VecSink::ACTIVE);
        NullSink.emit(&sample());
    }

    #[test]
    fn vec_sink_collects_in_order() {
        let mut sink = VecSink::new();
        sink.emit(&sample());
        sink.emit(&Event::SpotEvicted { t: 90, job: 1 });
        assert_eq!(sink.events().len(), 2);
        assert_eq!(sink.events()[1], Event::SpotEvicted { t: 90, job: 1 });
    }

    #[test]
    fn counting_sink_counts_by_kind() {
        let mut sink = CountingSink::new();
        sink.emit(&sample());
        sink.emit(&sample());
        sink.emit(&Event::SpotEvicted { t: 90, job: 1 });
        sink.emit(&Event::CacheHit {
            kind: crate::event::CacheKind::Carbon,
            key: "k".into(),
        });
        assert_eq!(sink.total(), 4);
        assert_eq!(sink.count("segment_started"), 2);
        assert_eq!(sink.count("spot_evicted"), 1);
        assert_eq!(sink.count("other"), 1);
        assert_eq!(sink.count("job_completed"), 0);
    }

    #[test]
    fn jsonl_sink_writes_lines_and_finishes() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit(&sample());
        sink.emit(&Event::SpotEvicted { t: 90, job: 1 });
        assert_eq!(sink.written(), 2);
        let bytes = sink.finish().expect("no io errors on Vec");
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(Event::from_json_line(lines[0]).unwrap(), sample());
    }

    #[test]
    fn jsonl_sink_surfaces_write_errors() {
        #[derive(Debug)]
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Failing);
        sink.emit(&sample());
        sink.emit(&sample()); // dropped after the first error
        assert_eq!(sink.written(), 0);
        let err = sink.finish().unwrap_err();
        assert_eq!(err.to_string(), "disk full");
    }

    /// A destination whose bytes stay readable after the sink has
    /// moved it to the writer thread or dropped it.
    #[derive(Debug, Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn bytes(&self) -> Vec<u8> {
            self.0.lock().unwrap().clone()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn lines(events: &[Event]) -> Vec<u8> {
        let mut out = String::new();
        for event in events {
            out.push_str(&event.to_json_line());
            out.push('\n');
        }
        out.into_bytes()
    }

    /// Every variant, string fields with escapes included.
    fn event_strategy() -> impl proptest::strategy::Strategy<Value = Event> {
        use proptest::prelude::*;
        (0u8..10, 0u64..1_000_000, 0u32..40, -1e9f64..1e9).prop_map(|(kind, n, k, x)| {
            let text = format!("t{n}\"\\\u{1}\u{e9}/{k}");
            let cache = [CacheKind::Carbon, CacheKind::Workload, CacheKind::Result][k as usize % 3];
            match kind {
                0 => Event::JobSubmitted {
                    t: n,
                    job: n / 3,
                    cpus: u64::from(k),
                    len: n % 977,
                },
                1 => Event::PlanChosen {
                    t: n,
                    job: n / 7,
                    mode: PlanMode::Segments,
                    start: n + 5,
                    segs: k,
                    opportunistic: k % 2 == 0,
                    spot: k % 3 == 0,
                    est_carbon_g: x,
                    est_cost: x / 7.0,
                },
                2 => Event::SegmentFinished {
                    t: n,
                    job: n / 5,
                    seg: k,
                    pool: PoolKind::OnDemand,
                    useful: k % 2 == 1,
                },
                3 => Event::JobCompleted {
                    t: n,
                    job: n,
                    wait: n % 600,
                    stretch: x.abs() / 1e6,
                },
                4 => Event::JobAccepted {
                    t: n,
                    job: n,
                    tenant: text,
                },
                5 => Event::CacheHit {
                    kind: cache,
                    key: text,
                },
                6 => Event::CacheMiss {
                    kind: cache,
                    key: text,
                },
                7 => Event::CachePersist {
                    kind: cache,
                    key: text,
                },
                8 => Event::CellFinished {
                    idx: n,
                    key: text.clone(),
                    status: text,
                    queue_wait_s: x,
                    exec_s: x.abs(),
                },
                _ => Event::SpotEvicted { t: n, job: n / 11 },
            }
        })
    }

    /// Stream lengths around the batch boundaries: 0 or 1, B − 1 to
    /// B + 1, and several batches.
    fn stream_strategy() -> impl proptest::strategy::Strategy<Value = Vec<(Event, u8)>> {
        use proptest::prelude::*;
        let step = || (event_strategy(), 0u8..64);
        prop_oneof![
            collection::vec(step(), 0..2),
            collection::vec(step(), BATCH - 1..BATCH + 2),
            collection::vec(step(), 3 * BATCH..5 * BATCH),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The pipelined sink writes exactly the concatenated
        /// `to_json_line() + "\n"` of its events. `sync` is a barrier
        /// (every earlier line is in the flushed destination) and
        /// `written` counts every earlier event, wherever they fall
        /// relative to batch boundaries.
        fn jsonl_pipeline_bytes_match_serial_lines(stream in stream_strategy()) {
            let shared = SharedBuf::default();
            let mut sink = JsonlSink::new(io::BufWriter::new(shared.clone()));
            let mut expected = Vec::new();
            let mut emitted = 0;
            for (event, action) in stream {
                sink.emit(&event);
                expected.extend(lines(std::slice::from_ref(&event)));
                emitted += 1;
                match action {
                    0 => {
                        sink.sync();
                        assert_eq!(shared.bytes(), expected);
                    }
                    1 => assert_eq!(sink.written(), emitted),
                    _ => {}
                }
            }
            assert_eq!(sink.written(), emitted);
            sink.finish().expect("no io errors").into_inner().expect("flushed");
            assert_eq!(shared.bytes(), expected);
        }
    }

    /// Accepts `limit` bytes, then fails every write and counts the
    /// calls made after the failure.
    #[derive(Debug)]
    struct FailAfter {
        limit: usize,
        accepted: usize,
        calls_after_failure: Arc<Mutex<u64>>,
    }

    impl Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let room = self.limit - self.accepted;
            if room == 0 {
                *self.calls_after_failure.lock().unwrap() += 1;
                return Err(io::Error::other("device full"));
            }
            let n = room.min(buf.len());
            self.accepted += n;
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_pipeline_keeps_the_first_error_and_drops_later_events() {
        let events: Vec<Event> = (0..3 * BATCH as u64)
            .map(|i| Event::SpotEvicted { t: i, job: i % 97 })
            .collect();
        let bytes = lines(&events);
        let limit = bytes.len() / 3 + 5;
        let whole_lines = bytes[..limit].iter().filter(|&&b| b == b'\n').count() as u64;
        let calls = Arc::new(Mutex::new(0));
        let mut sink = JsonlSink::new(FailAfter {
            limit,
            accepted: 0,
            calls_after_failure: Arc::clone(&calls),
        });
        for event in &events {
            sink.emit(event);
        }
        assert_eq!(sink.written(), whole_lines);
        sink.sync();
        // Only the `write_all` that crossed the limit saw the error.
        assert_eq!(*calls.lock().unwrap(), 1);
        let err = sink.finish().unwrap_err();
        assert_eq!(err.to_string(), "device full");
    }

    #[test]
    fn jsonl_pipeline_turns_a_panicking_writer_into_an_error() {
        #[derive(Debug)]
        struct Panics;
        impl Write for Panics {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                panic!("writer exploded");
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        // The first panic is in a barrier on this thread or, with no
        // early sync, on the writer thread.
        for sync_first in [true, false] {
            let mut sink = JsonlSink::new(Panics);
            for i in 0..(QUEUE + 2) * BATCH {
                sink.emit(&Event::SpotEvicted {
                    t: i as u64,
                    job: 1,
                });
                if i % 1000 == 0 && (sync_first || i > 0) {
                    sink.sync();
                }
            }
            sink.sync();
            assert_eq!(sink.written(), 0);
            let err = sink.finish().unwrap_err();
            assert!(err.to_string().contains("writer exploded"), "{err}");
        }
    }

    /// Records which thread made each write.
    #[derive(Clone, Default)]
    struct Threads(Arc<Mutex<Vec<Option<String>>>>);

    impl Write for Threads {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let name = thread::current().name().map(str::to_owned);
            self.0.lock().unwrap().push(name);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_barriers_write_partial_batches_on_the_callers_thread() {
        let threads = Threads::default();
        let mut sink = JsonlSink::new(threads.clone());
        let event = Event::SpotEvicted { t: 1, job: 2 };
        for _ in 0..3 {
            for _ in 0..5 {
                sink.emit(&event);
            }
            sink.sync();
        }
        let caller = thread::current().name().map(str::to_owned);
        assert!(threads.0.lock().unwrap().iter().all(|name| *name == caller));
        for _ in 0..BATCH {
            sink.emit(&event);
        }
        assert_eq!(sink.written(), 15 + BATCH as u64);
        let writer = Some("gaia-trace-writer".to_owned());
        assert_eq!(threads.0.lock().unwrap()[15..], vec![writer; BATCH][..]);
        drop(sink);
    }

    #[test]
    fn jsonl_pipeline_delivers_every_event_on_drop() {
        let shared = SharedBuf::default();
        let events: Vec<Event> = (0..2 * BATCH as u64 + 17)
            .map(|i| Event::JobAccepted {
                t: i,
                job: i,
                tenant: format!("tenant-{}", i % 5),
            })
            .collect();
        {
            let mut sink = JsonlSink::new(io::BufWriter::new(shared.clone()));
            for event in &events {
                sink.emit(event);
            }
        }
        assert_eq!(shared.bytes(), lines(&events));
    }

    #[test]
    fn shared_sink_fans_in_from_clones() {
        let shared = SharedSink::new(CountingSink::new());
        let mut a = shared.clone();
        let mut b = shared;
        let handle = std::thread::spawn(move || {
            for _ in 0..10 {
                a.emit(&Event::SpotEvicted { t: 1, job: 0 });
            }
        });
        for _ in 0..5 {
            b.emit(&Event::SpotEvicted { t: 2, job: 1 });
        }
        handle.join().unwrap();
        // Read back through the trait object.
        let guard = b.inner.lock().unwrap_or_else(|p| p.into_inner());
        drop(guard); // count checked via a fresh VecSink-based test below
    }

    #[test]
    fn shared_sink_delivers_all_events() {
        // VecSink behind the shared handle, checked by draining.
        let sink = Arc::new(Mutex::new(VecSink::new()));
        struct Probe(Arc<Mutex<VecSink>>);
        impl Sink for Probe {
            fn emit(&mut self, event: &Event) {
                self.0.lock().unwrap().emit(event);
            }
        }
        let shared = SharedSink::new(Probe(Arc::clone(&sink)));
        let mut handles = Vec::new();
        for worker in 0..4u64 {
            let mut s = shared.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..25 {
                    s.emit(&Event::SpotEvicted { t: i, job: worker });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sink.lock().unwrap().events().len(), 100);
    }
}
