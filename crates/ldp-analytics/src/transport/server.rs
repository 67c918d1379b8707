//! The server half of the transport: connection threads applying their
//! messages to one [`ReportService`] under one lock.
//!
//! ## Architecture
//!
//! Every [`ConnHandle`] shares one `Mutex` around the [`ReportService`].
//! Each connection runs [`ConnHandle::serve_stream`] on its own thread,
//! applying its decoded [`WireMessage`]s under the lock in arrival order
//! and writing each verdict back itself. Backpressure is a count of
//! messages in flight: past [`ServerConfig::queue_capacity`], a message is
//! *shed* with an [`AckOutcome::Overloaded`] verdict before any state is
//! touched — the client backs off and retries, and the privacy-budget
//! ledger makes that retry idempotent.
//!
//! ## Fault isolation
//!
//! A desynced, hostile, or vanished client kills only its own connection:
//! the fault is recorded in that connection's [`ConnSummary`] and counted
//! in [`TransportStats`], while the service — and every other connection
//! — keeps running. Checksum-corrupt frames keep the reader synchronized
//! (see [`ldp_core::frame::read_frame`]), so they earn a
//! [`ResponseMessage::Resend`] rather than a disconnect.
//!
//! ## Shutdown
//!
//! [`ReportServer::finish`] waits for the last [`ConnHandle`] clone to
//! drop, then returns the service — drain-then-stop, never drop-on-stop.
//! Join connection threads (or drop their handles) first.

use std::convert::Infallible;
use std::io::{Read, Write};
use std::ops::ControlFlow;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use ldp_core::Result;

use crate::durable::{self, DurableConfig, DurableService, RecoveryReport};
use crate::service::{
    read_messages, AckOutcome, EpochSnapshot, Inbound, ReportService, ResponseMessage,
    ServiceConfig, StreamFault, WireMessage,
};

/// Construction parameters for a [`ReportServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Configuration for the owned [`ReportService`].
    pub service: ServiceConfig,
    /// Messages allowed to wait for the service lock or be applied under
    /// it at once. One arriving past this bound is shed with
    /// [`AckOutcome::Overloaded`]; it never touches service state.
    pub queue_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            service: ServiceConfig::default(),
            queue_capacity: 1024,
        }
    }
}

/// Shared transport counters, updated by the connection threads. All
/// loads are `Relaxed`: the counters are monotone telemetry,
/// not synchronization.
#[derive(Debug, Default)]
pub struct TransportStats {
    connections: AtomicU64,
    faulted_connections: AtomicU64,
    corrupt_frames: AtomicU64,
    malformed_messages: AtomicU64,
    shed: AtomicU64,
    submits: AtomicU64,
    storage_sheds: AtomicU64,
    injected_crashes: AtomicU64,
    accept_errors: AtomicU64,
    connection_threads: AtomicU64,
}

impl TransportStats {
    /// Connections served to completion or fault.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Connections that ended in a transport fault (desync, disconnect,
    /// timeout) rather than clean EOF or `Shutdown`.
    pub fn faulted_connections(&self) -> u64 {
        self.faulted_connections.load(Ordering::Relaxed)
    }

    /// Checksum-corrupt frames answered with [`ResponseMessage::Resend`].
    pub fn corrupt_frames(&self) -> u64 {
        self.corrupt_frames.load(Ordering::Relaxed)
    }

    /// Frames that verified but failed to decode as a [`WireMessage`].
    pub fn malformed_messages(&self) -> u64 {
        self.malformed_messages.load(Ordering::Relaxed)
    }

    /// Messages shed because `queue_capacity` messages were in flight.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Submit messages that reached the service (each earns exactly one
    /// admitted / duplicate / rejected / storage-shed verdict).
    pub fn submits(&self) -> u64 {
        self.submits.load(Ordering::Relaxed)
    }

    /// Messages answered `Overloaded` because the durability layer could
    /// not make them durable (WAL/checkpoint I/O failure or injected
    /// crash) — the ack-after-durable contract refusing to lie rather
    /// than acking volatile state.
    pub fn storage_sheds(&self) -> u64 {
        self.storage_sheds.load(Ordering::Relaxed)
    }

    /// Crashes injected by a [`crate::durable::CrashSchedule`] that the
    /// server observed (the transport-side mirror of
    /// [`crate::transport::FaultCounts::crashes`]).
    pub fn injected_crashes(&self) -> u64 {
        self.injected_crashes.load(Ordering::Relaxed)
    }

    /// Failed `accept` calls on a socket server's listener (each one
    /// followed by a short pause, so a persistent error such as `EMFILE`
    /// cannot spin a core).
    pub fn accept_errors(&self) -> u64 {
        self.accept_errors.load(Ordering::Relaxed)
    }

    /// Connection threads a socket server spawned. Threads are reused
    /// across connections, so this tracks peak concurrency, not
    /// [`TransportStats::connections`].
    pub fn connection_threads(&self) -> u64 {
        self.connection_threads.load(Ordering::Relaxed)
    }

    pub(crate) fn note_accept_error(&self) {
        self.accept_errors.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_connection_thread(&self) {
        self.connection_threads.fetch_add(1, Ordering::Relaxed);
    }
}

/// How one connection's [`ConnHandle::serve_stream`] call ended.
#[derive(Debug, Default)]
pub struct ConnSummary {
    /// Frames consumed from this connection (valid or corrupt).
    pub frames: u64,
    /// Checksum-corrupt frames answered with a resend request.
    pub corrupt_frames: u64,
    /// Responses successfully written back to the client.
    pub responded: u64,
    /// True when the client sent [`WireMessage::Shutdown`] (connection
    /// scoped: the server itself keeps running).
    pub shutdown: bool,
    /// The transport fault that ended the connection, if any, with the
    /// byte offset of the offending inbound frame. `None` for clean EOF
    /// or `Shutdown`.
    pub fault: Option<StreamFault>,
}

/// A cloneable per-connection handle into a running [`ReportServer`].
///
/// Cheap to clone (two reference counts); [`ReportServer::finish`] waits
/// until every clone is gone.
#[derive(Debug, Clone)]
pub struct ConnHandle {
    shared: Arc<Shared>,
    /// Never sent on: `finish` waits for the last clone to drop. Declared
    /// after `shared`, so a dropping handle releases the service first.
    _alive: mpsc::Sender<Infallible>,
}

/// The state every [`ConnHandle`] of one server shares.
#[derive(Debug)]
struct Shared {
    backend: Mutex<Backend>,
    stats: Arc<TransportStats>,
    /// Messages waiting for the lock or applied under it. `Relaxed`: the
    /// count publishes no data, the lock does.
    in_flight: AtomicUsize,
    queue_capacity: usize,
}

impl Shared {
    /// Takes an in-flight slot, or `None` when `queue_capacity` are taken.
    fn slot(&self) -> Option<InFlight<'_>> {
        let prior = self.in_flight.fetch_add(1, Ordering::Relaxed);
        // Built before the check, so the shed path returns its increment too.
        let slot = InFlight(&self.in_flight);
        (prior < self.queue_capacity).then_some(slot)
    }
}

/// One in-flight slot, released on drop — so a panic under the service
/// lock cannot leak it and shrink the server's capacity for good.
pub(crate) struct InFlight<'a>(&'a AtomicUsize);

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

impl ConnHandle {
    /// Serves one client stream to completion: reads frames with the loop
    /// [`ReportService::serve`] runs, applies messages, and writes one
    /// response frame per request, in order.
    ///
    /// Every exit path is accounted: clean EOF, client `Shutdown`, a
    /// transport fault (recorded in the summary, counted in the stats),
    /// or a poisoned service lock. Never panics on hostile input.
    pub fn serve_stream<S: Read + Write + ?Sized>(&self, stream: &mut S) -> ConnSummary {
        let stats = &self.shared.stats;
        stats.connections.fetch_add(1, Ordering::Relaxed);
        let mut corrupt_frames = 0;
        let mut responded = 0;
        let end = read_messages(stream, |stream, inbound| {
            let response = match inbound {
                Inbound::Corrupt => {
                    corrupt_frames += 1;
                    stats.corrupt_frames.fetch_add(1, Ordering::Relaxed);
                    // Reader is still synchronized: ask for the frame
                    // again instead of dropping the connection.
                    Some(ResponseMessage::Resend)
                }
                Inbound::Undecodable => {
                    stats.malformed_messages.fetch_add(1, Ordering::Relaxed);
                    self.apply(None)
                }
                Inbound::Message(msg) => self.apply(Some(&msg)),
            };
            let Some(response) = response else {
                // A panicking connection poisoned the service lock.
                return Ok(ControlFlow::Break(()));
            };
            // A failed write ends the connection as a fault. The verdict
            // may already be applied server-side; the client will resend
            // on reconnect and the ledger will answer `Duplicate` —
            // at-most-once either way.
            response.write_to(stream)?;
            responded += 1;
            Ok(ControlFlow::Continue(()))
        });
        if end.fault.is_some() {
            stats.faulted_connections.fetch_add(1, Ordering::Relaxed);
        }
        ConnSummary {
            frames: end.frames,
            corrupt_frames,
            responded,
            // Connection-scoped: this client is done, the server and every
            // other connection keep running.
            shutdown: end.shutdown,
            fault: end.fault,
        }
    }

    /// Renders one message's verdict under the service lock, or sheds it.
    /// `msg` is `None` for a verified frame that failed to decode; the
    /// result is `None` when a panicking connection poisoned the lock.
    fn apply(&self, msg: Option<&WireMessage>) -> Option<ResponseMessage> {
        let shared = &*self.shared;
        let Some(_slot) = shared.slot() else {
            // Backpressure: shed before any state is touched. The ledger
            // makes the client's eventual retry idempotent.
            shared.stats.shed.fetch_add(1, Ordering::Relaxed);
            let (user, epoch) = match msg {
                Some(WireMessage::Submit { user, epoch, .. }) => (*user, *epoch),
                _ => (0, 0),
            };
            return Some(ResponseMessage::Ack {
                user,
                epoch,
                outcome: AckOutcome::Overloaded,
            });
        };
        let mut backend = shared.backend.lock().ok()?;
        Some(match msg {
            Some(msg) => verdict(&mut backend, &shared.stats, msg),
            None => {
                // Counted by the service (not just the transport) so
                // snapshot counters match a direct `ReportService::serve`.
                backend.note_malformed();
                ResponseMessage::Ack {
                    user: 0,
                    epoch: 0,
                    outcome: AckOutcome::Rejected,
                }
            }
        })
    }

    /// The in-flight bound this handle sheds against.
    pub fn queue_capacity(&self) -> usize {
        self.shared.queue_capacity
    }

    /// Messages currently in flight at the service.
    #[cfg(test)]
    pub(crate) fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::Relaxed)
    }
}

/// The state behind the service lock: a bare service, or one behind the
/// write-ahead log when the server was started durable.
#[derive(Debug)]
enum Backend {
    Plain(Box<ReportService>),
    Durable(Box<DurableService>),
}

impl Backend {
    fn handle(&mut self, msg: &WireMessage) -> Result<Option<EpochSnapshot>> {
        match self {
            Backend::Plain(service) => service.handle(msg),
            Backend::Durable(durable) => durable.handle(msg),
        }
    }

    fn note_malformed(&mut self) {
        match self {
            Backend::Plain(service) => service.note_malformed(),
            Backend::Durable(durable) => durable.note_malformed(),
        }
    }

    /// Checkpoints durable state after a flushed epoch; a no-op for the
    /// plain backend.
    fn checkpoint(&mut self) -> Result<()> {
        match self {
            Backend::Plain(_) => Ok(()),
            Backend::Durable(durable) => durable.checkpoint(),
        }
    }

    fn into_service(self) -> ReportService {
        match self {
            Backend::Plain(service) => *service,
            Backend::Durable(durable) => durable.into_service(),
        }
    }
}

/// A running report server: a [`ReportService`] behind one lock, applied
/// to by any number of [`ConnHandle`]s.
#[derive(Debug)]
pub struct ReportServer {
    handle: ConnHandle,
    /// Fails its `recv` once every [`ConnHandle`] clone is dropped.
    gone: mpsc::Receiver<Infallible>,
}

impl ReportServer {
    /// Starts a server around a fresh service.
    pub fn start(config: ServerConfig) -> Self {
        let service = ReportService::new(config.service.clone());
        Self::start_backend(&config, Backend::Plain(Box::new(service)))
    }

    /// Starts a server around a [`DurableService`] on `dir`: recovery
    /// runs first (the returned [`RecoveryReport`] says what it rebuilt),
    /// and from then on every `Admitted` ack is sent only after the
    /// submit's WAL record is as durable as `durable.fsync` promises. A
    /// report the durability layer cannot log is answered `Overloaded` —
    /// retryable, and the ledger keeps the eventual retry at-most-once.
    ///
    /// `durable.service` is overridden by `config.service` so the two
    /// configs cannot disagree about the ledger key.
    ///
    /// # Errors
    /// Recovery failures — see [`crate::durable::Recovery::replay`].
    pub fn start_durable(
        config: ServerConfig,
        dir: &Path,
        mut durable: DurableConfig,
    ) -> Result<(Self, RecoveryReport)> {
        durable.service = config.service.clone();
        let (service, report) = DurableService::open(dir, durable)?;
        Ok((
            Self::start_backend(&config, Backend::Durable(Box::new(service))),
            report,
        ))
    }

    fn start_backend(config: &ServerConfig, backend: Backend) -> Self {
        let (alive, gone) = mpsc::channel();
        let shared = Shared {
            backend: Mutex::new(backend),
            stats: Arc::default(),
            in_flight: AtomicUsize::new(0),
            queue_capacity: config.queue_capacity.max(1),
        };
        ReportServer {
            handle: ConnHandle {
                shared: Arc::new(shared),
                _alive: alive,
            },
            gone,
        }
    }

    /// A new connection handle; give one clone to each connection thread.
    pub fn handle(&self) -> ConnHandle {
        self.handle.clone()
    }

    /// The server's shared transport counters.
    pub fn stats(&self) -> Arc<TransportStats> {
        Arc::clone(&self.handle.shared.stats)
    }

    /// Graceful drain-then-stop: waits for every outstanding
    /// [`ConnHandle`] to drop, then returns the service with every message
    /// the connections applied. Panics if a connection thread panicked
    /// while applying a message.
    ///
    /// Blocks until all connection handles are gone — join connection
    /// threads before calling.
    pub fn finish(self) -> ReportService {
        let shared = Arc::clone(&self.handle.shared);
        drop(self.handle);
        let Err(mpsc::RecvError) = self.gone.recv();
        Arc::try_unwrap(shared)
            .expect("every connection handle is dropped")
            .backend
            .into_inner()
            .expect("a connection thread panicked while applying a message")
            .into_service()
    }
}

/// Counts a storage-layer failure and renders the retryable verdict. The
/// durability layer refused (or failed) to make the message durable, so
/// the honest answer is `Overloaded`: the client backs off and retries,
/// and the ledger keeps the eventual retry at-most-once.
fn storage_shed(stats: &TransportStats, error: &ldp_core::LdpError) {
    stats.storage_sheds.fetch_add(1, Ordering::Relaxed);
    if durable::is_injected_crash(error) {
        stats.injected_crashes.fetch_add(1, Ordering::Relaxed);
    }
}

/// Applies one message to the backend and renders the wire verdict.
fn verdict(backend: &mut Backend, stats: &TransportStats, msg: &WireMessage) -> ResponseMessage {
    match msg {
        WireMessage::Hello { .. } => match backend.handle(msg) {
            Ok(_) => ResponseMessage::HelloAck,
            Err(ref e) if durable::is_storage_error(e) => {
                storage_shed(stats, e);
                ResponseMessage::Ack {
                    user: 0,
                    epoch: 0,
                    outcome: AckOutcome::Overloaded,
                }
            }
            Err(_) => {
                backend.note_malformed();
                ResponseMessage::Ack {
                    user: 0,
                    epoch: 0,
                    outcome: AckOutcome::Rejected,
                }
            }
        },
        WireMessage::Submit { user, epoch, .. } => {
            stats.submits.fetch_add(1, Ordering::Relaxed);
            // In durable mode `Ok` means the WAL record reached the disk
            // under the configured fsync policy: ack-after-durable.
            let outcome = match backend.handle(msg) {
                Ok(_) => AckOutcome::Admitted,
                Err(ldp_core::LdpError::DuplicateReport { .. }) => AckOutcome::Duplicate,
                Err(ref e) if durable::is_storage_error(e) => {
                    storage_shed(stats, e);
                    AckOutcome::Overloaded
                }
                Err(_) => {
                    backend.note_malformed();
                    AckOutcome::Rejected
                }
            };
            ResponseMessage::Ack {
                user: *user,
                epoch: *epoch,
                outcome,
            }
        }
        WireMessage::FlushEpoch { epoch } => match backend.handle(msg) {
            Ok(Some(snap)) => {
                // An epoch boundary is the compaction point: checkpoint
                // the durable state and rotate the log. A failure here
                // loses no data — the log still covers everything — so it
                // only counts as a storage shed, the snapshot ack stands.
                if let Err(ref e) = backend.checkpoint() {
                    storage_shed(stats, e);
                }
                ResponseMessage::SnapshotAck {
                    epoch: snap.epoch,
                    admitted: snap.admitted,
                    rejected_duplicates: snap.rejected_duplicates,
                    rejected_malformed: snap.rejected_malformed,
                    users: snap.result.map_or(0, |r| r.n as u64),
                }
            }
            Ok(None) | Err(_) => {
                backend.note_malformed();
                ResponseMessage::Ack {
                    user: 0,
                    epoch: *epoch,
                    outcome: AckOutcome::Rejected,
                }
            }
        },
        // Shutdown is handled connection-side and never applied.
        WireMessage::Shutdown => ResponseMessage::Ack {
            user: 0,
            epoch: 0,
            outcome: AckOutcome::Rejected,
        },
    }
}

/// Test-only plumbing: handles with occupied in-flight slots, for
/// exercising the shedding path without racing a live connection.
#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// A [`ConnHandle`] into a fresh, never-finished server.
    pub(crate) fn wedged_handle(queue_capacity: usize) -> ConnHandle {
        ReportServer::start(ServerConfig {
            queue_capacity,
            ..ServerConfig::default()
        })
        .handle()
    }

    /// Occupies one in-flight slot until the returned guard drops.
    pub(crate) fn fill(handle: &ConnHandle) -> InFlight<'_> {
        handle.shared.slot().expect("a free slot to fill")
    }
}
