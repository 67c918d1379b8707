//! OS-socket bindings for the transport: TCP (and, on Unix, domain
//! sockets) around [`ReportServer`] /
//! [`ReportClient`](crate::transport::ReportClient).
//!
//! Everything here is a thin shell. One accept loop, generic over the
//! listener, hands each accepted connection to an idle worker thread,
//! which runs [`ConnHandle::serve_stream`] on it and then parks for the
//! next one; a new worker is spawned only when none is idle, so threads
//! track peak concurrency rather than connections served. A worker idle
//! for [`NetConfig::io_timeout`] exits and the loop joins it as it goes.
//! Connectors implement [`Connect`] with timeouts classified through
//! [`ldp_core::frame::io_error`], so all retry/backoff/idempotency logic
//! lives in the socket-agnostic layers this module wraps.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use ldp_core::frame::io_error;
use ldp_core::Result;

use crate::service::ReportService;
use crate::transport::client::Connect;
use crate::transport::server::{
    ConnHandle, ConnSummary, ReportServer, ServerConfig, TransportStats,
};

/// Pause after a failed `accept`, so a persistent error (`EMFILE`) does
/// not spin the accept loop.
const ACCEPT_ERROR_PAUSE: Duration = Duration::from_millis(10);

/// Socket-level knobs for [`TcpReportServer`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Read/write timeout applied to every accepted connection. Doubles
    /// as the shutdown drain bound: a connection idle longer than this
    /// exits with a typed [`ldp_core::LdpError::Timeout`] fault instead
    /// of blocking [`TcpReportServer::finish`] forever. `None` disables
    /// timeouts (then clients *must* close for `finish` to return).
    ///
    /// Also how long a connection thread waits idle for its next
    /// connection before it exits (`None`: it waits until `finish`).
    pub io_timeout: Option<Duration>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            io_timeout: Some(Duration::from_secs(5)),
        }
    }
}

/// A [`ReportServer`] listening on a TCP socket.
#[derive(Debug)]
pub struct TcpReportServer {
    local_addr: SocketAddr,
    accept: AcceptLoop,
    server: ReportServer,
}

impl TcpReportServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections.
    ///
    /// # Errors
    /// Bind failures, classified through [`io_error`].
    pub fn bind<A: ToSocketAddrs>(addr: A, config: ServerConfig, net: NetConfig) -> Result<Self> {
        let listener = TcpListener::bind(addr).map_err(|e| io_error("bind", &e))?;
        let local_addr = listener.local_addr().map_err(|e| io_error("bind", &e))?;
        let server = ReportServer::start(config);
        let accept = AcceptLoop::start(listener, &server, net);
        Ok(TcpReportServer {
            local_addr,
            accept,
            server,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The underlying server's transport counters.
    pub fn stats(&self) -> Arc<TransportStats> {
        self.server.stats()
    }

    /// Stops accepting, joins every connection thread, and returns the
    /// service with one summary per connection served. Threads serve
    /// connections one after another, so the summaries are grouped by
    /// thread, not in accept order.
    ///
    /// In-flight connections are served to completion (EOF, `Shutdown`,
    /// or the [`NetConfig::io_timeout`] drain bound), never cut off;
    /// idle threads exit at once.
    pub fn finish(self) -> (ReportService, Vec<ConnSummary>) {
        let addr = self.local_addr;
        // Unblock the accept() call with a throwaway connection.
        let summaries = self.accept.finish(|| drop(TcpStream::connect(addr)));
        (self.server.finish(), summaries)
    }
}

/// A bound listener the accept loop drives.
trait Listener: Send + 'static {
    type Stream: Read + Write + Send + 'static;

    /// Accepts one connection and applies the per-connection socket
    /// options.
    fn accept_conn(&self, net: &NetConfig) -> io::Result<Self::Stream>;
}

impl Listener for TcpListener {
    type Stream = TcpStream;

    fn accept_conn(&self, net: &NetConfig) -> io::Result<TcpStream> {
        let (stream, _) = self.accept()?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(net.io_timeout);
        let _ = stream.set_write_timeout(net.io_timeout);
        Ok(stream)
    }
}

/// A running accept loop and the flag that stops it.
#[derive(Debug)]
struct AcceptLoop {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<ConnSummary>>,
}

impl AcceptLoop {
    fn start<L: Listener>(listener: L, server: &ReportServer, net: NetConfig) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let mut pool = Pool::new(server, net.io_timeout);
        let thread = thread::spawn(move || {
            loop {
                let accepted = listener.accept_conn(&net);
                if stopped.load(Ordering::SeqCst) {
                    break;
                }
                match accepted {
                    Ok(stream) => pool.dispatch(stream),
                    // Transient accept errors (per-connection resets) do
                    // not stop the server; persistent ones are paced.
                    Err(_) => {
                        pool.stats.note_accept_error();
                        thread::sleep(ACCEPT_ERROR_PAUSE);
                    }
                }
                pool.reap();
            }
            pool.finish()
        });
        AcceptLoop { stop, thread }
    }

    /// Stops the loop (`wake` unblocks its pending `accept`) and returns
    /// every connection's summary once all workers are joined.
    fn finish(self, wake: impl FnOnce()) -> Vec<ConnSummary> {
        self.stop.store(true, Ordering::SeqCst);
        wake();
        self.thread.join().expect("accept thread panicked")
    }
}

/// Senders to workers parked between connections, one fresh channel per
/// idle period, most recently parked last (LIFO: the warmest thread is
/// reused first). `None` once the loop has stopped, so a worker that
/// finishes a connection afterwards exits instead of parking.
type Parked<S> = Arc<Mutex<ParkedList<S>>>;

/// Each parked worker's id and the sender that wakes it.
type ParkedList<S> = Option<Vec<(usize, mpsc::Sender<S>)>>;

/// Nothing panics under this lock (push, pop, remove), so a poisoned
/// guard still holds a valid list.
fn lock<S>(parked: &Parked<S>) -> MutexGuard<'_, ParkedList<S>> {
    parked.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The accept loop's worker threads.
struct Pool<S> {
    handle: ConnHandle,
    stats: Arc<TransportStats>,
    idle_timeout: Option<Duration>,
    parked: Parked<S>,
    workers: Vec<JoinHandle<Vec<ConnSummary>>>,
    /// Summaries of the workers already joined.
    done: Vec<ConnSummary>,
    /// Workers spawned so far; each one's index is its id.
    spawned: usize,
}

impl<S: Read + Write + Send + 'static> Pool<S> {
    fn new(server: &ReportServer, idle_timeout: Option<Duration>) -> Self {
        Pool {
            handle: server.handle(),
            stats: server.stats(),
            idle_timeout,
            parked: Arc::new(Mutex::new(Some(Vec::new()))),
            workers: Vec::new(),
            done: Vec::new(),
            spawned: 0,
        }
    }

    /// Hands `stream` to the most recently parked worker, or to a new one
    /// when none is parked.
    fn dispatch(&mut self, mut stream: S) {
        while let Some(worker) = self.unpark() {
            match worker.send(stream) {
                Ok(()) => return,
                // That worker is gone: try the next one.
                Err(mpsc::SendError(back)) => stream = back,
            }
        }
        let id = self.spawned;
        self.spawned += 1;
        let conn = self.handle.clone();
        let parked = Arc::clone(&self.parked);
        let idle_timeout = self.idle_timeout;
        self.stats.note_connection_thread();
        self.workers.push(thread::spawn(move || {
            let mut summaries = Vec::new();
            let mut next = Some(stream);
            while let Some(mut stream) = next {
                summaries.push(conn.serve_stream(&mut stream));
                // Close the connection before waiting for the next one.
                drop(stream);
                next = park(&parked, id, idle_timeout);
            }
            summaries
        }));
    }

    /// Claims the most recently parked worker's sender.
    fn unpark(&self) -> Option<mpsc::Sender<S>> {
        lock(&self.parked).as_mut()?.pop().map(|(_, worker)| worker)
    }

    /// Joins the workers that retired, keeping their summaries.
    fn reap(&mut self) {
        let mut i = 0;
        while i < self.workers.len() {
            if self.workers[i].is_finished() {
                let worker = self.workers.swap_remove(i);
                self.done.extend(join(worker));
            } else {
                i += 1;
            }
        }
    }

    /// Closes the parked list, which ends every parked worker, then joins
    /// every worker once its connection is done.
    fn finish(mut self) -> Vec<ConnSummary> {
        lock(&self.parked).take();
        // Drop our handle before joining so that, once the workers are
        // joined, no handle keeps `ReportServer::finish` waiting.
        drop(self.handle);
        for worker in self.workers {
            self.done.extend(join(worker));
        }
        self.done
    }
}

/// Parks worker `id` until the accept loop sends it a stream. `None`
/// tells the worker to exit: the loop stopped, or the worker sat idle
/// for `idle_timeout`.
fn park<S>(parked: &Parked<S>, id: usize, idle_timeout: Option<Duration>) -> Option<S> {
    let (tx, rx) = mpsc::channel();
    lock(parked).as_mut()?.push((id, tx));
    let Some(timeout) = idle_timeout else {
        return rx.recv().ok();
    };
    match rx.recv_timeout(timeout) {
        Ok(stream) => Some(stream),
        Err(RecvTimeoutError::Disconnected) => None,
        Err(RecvTimeoutError::Timeout) => {
            if let Some(list) = lock(parked).as_mut() {
                if let Some(at) = list.iter().position(|(w, _)| *w == id) {
                    list.remove(at);
                    return None;
                }
            }
            // The loop claimed this worker's sender before it could
            // retire, so a stream is on its way and must not be dropped;
            // or the loop stopped and dropped the sender, and this fails.
            rx.recv().ok()
        }
    }
}

fn join(worker: JoinHandle<Vec<ConnSummary>>) -> Vec<ConnSummary> {
    worker.join().expect("connection thread panicked")
}

/// A [`Connect`] implementation dialing one TCP address.
#[derive(Debug, Clone)]
pub struct TcpConnector {
    addr: SocketAddr,
    /// Timeout for establishing the connection.
    pub connect_timeout: Duration,
    /// Read/write timeout on the established stream (`None` = blocking).
    pub io_timeout: Option<Duration>,
}

impl TcpConnector {
    /// A connector for `addr` with the given connect timeout and a
    /// matching I/O timeout.
    pub fn new(addr: SocketAddr, connect_timeout: Duration) -> Self {
        TcpConnector {
            addr,
            connect_timeout,
            io_timeout: Some(connect_timeout),
        }
    }
}

impl Connect for TcpConnector {
    type Stream = TcpStream;

    fn connect(&mut self) -> Result<Self::Stream> {
        let stream = TcpStream::connect_timeout(&self.addr, self.connect_timeout)
            .map_err(|e| io_error("connect", &e))?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(self.io_timeout)
            .and_then(|()| stream.set_write_timeout(self.io_timeout))
            .map_err(|e| io_error("connect", &e))?;
        Ok(stream)
    }
}

/// Unix-domain-socket twins of the TCP types.
#[cfg(unix)]
pub mod unix {
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::path::{Path, PathBuf};

    use super::*;

    /// A [`ReportServer`] listening on a Unix domain socket.
    #[derive(Debug)]
    pub struct UnixReportServer {
        path: PathBuf,
        accept: AcceptLoop,
        server: ReportServer,
    }

    impl UnixReportServer {
        /// Binds `path` (removing any stale socket file first) and starts
        /// accepting connections.
        ///
        /// # Errors
        /// Bind failures, classified through [`io_error`].
        pub fn bind<P: AsRef<Path>>(path: P, config: ServerConfig, net: NetConfig) -> Result<Self> {
            let path = path.as_ref().to_path_buf();
            let _ = std::fs::remove_file(&path);
            let listener = UnixListener::bind(&path).map_err(|e| io_error("bind", &e))?;
            let server = ReportServer::start(config);
            let accept = AcceptLoop::start(listener, &server, net);
            Ok(UnixReportServer {
                path,
                accept,
                server,
            })
        }

        /// The socket path this server listens on.
        pub fn path(&self) -> &Path {
            &self.path
        }

        /// The underlying server's transport counters.
        pub fn stats(&self) -> Arc<TransportStats> {
            self.server.stats()
        }

        /// As [`TcpReportServer::finish`] (one summary per connection,
        /// grouped by thread rather than in accept order), plus removal
        /// of the socket file.
        pub fn finish(self) -> (ReportService, Vec<ConnSummary>) {
            let path = &self.path;
            let summaries = self.accept.finish(|| drop(UnixStream::connect(path)));
            let _ = std::fs::remove_file(&self.path);
            (self.server.finish(), summaries)
        }
    }

    impl Listener for UnixListener {
        type Stream = UnixStream;

        fn accept_conn(&self, net: &NetConfig) -> io::Result<UnixStream> {
            let (stream, _) = self.accept()?;
            let _ = stream.set_read_timeout(net.io_timeout);
            let _ = stream.set_write_timeout(net.io_timeout);
            Ok(stream)
        }
    }

    /// A [`Connect`] implementation dialing one Unix socket path.
    #[derive(Debug, Clone)]
    pub struct UnixConnector {
        path: PathBuf,
        /// Read/write timeout on the established stream.
        pub io_timeout: Option<Duration>,
    }

    impl UnixConnector {
        /// A connector for the socket at `path`.
        pub fn new<P: AsRef<Path>>(path: P) -> Self {
            UnixConnector {
                path: path.as_ref().to_path_buf(),
                io_timeout: Some(Duration::from_secs(5)),
            }
        }
    }

    impl Connect for UnixConnector {
        type Stream = UnixStream;

        fn connect(&mut self) -> Result<Self::Stream> {
            let stream = UnixStream::connect(&self.path).map_err(|e| io_error("connect", &e))?;
            stream
                .set_read_timeout(self.io_timeout)
                .and_then(|()| stream.set_write_timeout(self.io_timeout))
                .map_err(|e| io_error("connect", &e))?;
            Ok(stream)
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use super::*;
    use crate::service::{ResponseMessage, WireMessage};
    use crate::transport::chaos::{duplex, PipeStream};
    use crate::transport::client::{ReportClient, SubmitOutcome};
    use crate::transport::tests::{hello, no_sleep_config, report_bytes};

    /// A socket server under test, over either transport.
    enum Server {
        Tcp(TcpReportServer),
        #[cfg(unix)]
        Unix(unix::UnixReportServer),
    }

    impl Server {
        /// One server per transport; `tag` keeps socket paths of
        /// concurrently running tests apart.
        fn each(net: &NetConfig, tag: &str) -> Vec<Server> {
            let tcp = TcpReportServer::bind("127.0.0.1:0", ServerConfig::default(), net.clone());
            let mut servers = vec![Server::Tcp(tcp.expect("bind loopback tcp"))];
            #[cfg(unix)]
            {
                let name = format!("ldp-pool-{tag}-{}.sock", std::process::id());
                let path = std::env::temp_dir().join(name);
                let uds = unix::UnixReportServer::bind(&path, ServerConfig::default(), net.clone());
                servers.push(Server::Unix(uds.expect("bind unix socket")));
            }
            servers
        }

        /// One device: connect, Hello, one Submit, close.
        fn report(&self, user: u64) {
            fn once<C: Connect>(connector: C, user: u64) {
                let mut client = ReportClient::new(connector, hello(), no_sleep_config()).unwrap();
                let outcome = client.submit(user, 0, 0, report_bytes(user)).unwrap();
                assert_eq!(outcome, SubmitOutcome::Admitted);
                client.close();
            }
            match self {
                Server::Tcp(s) => once(
                    TcpConnector::new(s.local_addr(), Duration::from_secs(5)),
                    user,
                ),
                #[cfg(unix)]
                Server::Unix(s) => once(unix::UnixConnector::new(s.path()), user),
            }
        }

        fn stats(&self) -> Arc<TransportStats> {
            match self {
                Server::Tcp(s) => s.stats(),
                #[cfg(unix)]
                Server::Unix(s) => s.stats(),
            }
        }

        fn finish(self) -> (ReportService, Vec<ConnSummary>) {
            match self {
                Server::Tcp(s) => s.finish(),
                #[cfg(unix)]
                Server::Unix(s) => s.finish(),
            }
        }
    }

    #[test]
    fn sequential_connections_reuse_a_few_threads() {
        const USERS: u64 = 2_000;
        for server in Server::each(&NetConfig::default(), "reuse") {
            let stats = server.stats();
            for user in 0..USERS {
                server.report(user);
            }
            let (service, summaries) = server.finish();
            assert!(
                stats.connection_threads() <= 16,
                "{} threads for {USERS} sequential connections",
                stats.connection_threads()
            );
            assert_eq!(summaries.len() as u64, USERS);
            assert_eq!(stats.connections(), USERS);
            assert!(summaries.iter().all(|c| c.fault.is_none()));
            assert_eq!(service.snapshot_epoch(0).unwrap().admitted, USERS);
        }
    }

    #[test]
    fn retired_threads_are_replaced_and_their_summaries_kept() {
        let net = NetConfig {
            io_timeout: Some(Duration::from_millis(50)),
        };
        for server in Server::each(&net, "retire") {
            let stats = server.stats();
            server.report(0);
            // Ten idle timeouts: the only worker retires and is reaped.
            std::thread::sleep(Duration::from_millis(500));
            server.report(1);
            let (service, summaries) = server.finish();
            assert_eq!(
                stats.connection_threads(),
                2,
                "a retired worker is not reused"
            );
            assert_eq!(summaries.len(), 2, "the retired worker's summary is kept");
            assert_eq!(stats.connections(), 2);
            assert_eq!(service.snapshot_epoch(0).unwrap().admitted, 2);
        }
    }

    #[test]
    fn finish_does_not_wait_for_parked_threads() {
        let net = NetConfig::default();
        for server in Server::each(&net, "finish") {
            for user in 0..8 {
                server.report(user);
            }
            // Let the last connection's worker park.
            std::thread::sleep(Duration::from_millis(50));
            let start = Instant::now();
            let (_, summaries) = server.finish();
            let elapsed = start.elapsed();
            assert_eq!(summaries.len(), 8);
            assert!(
                elapsed < Duration::from_secs(1),
                "finish took {elapsed:?} with idle threads parked for up to {:?}",
                net.io_timeout
            );
        }
    }

    /// A listener fed by the test: each `accept` takes the next result.
    impl Listener for mpsc::Receiver<io::Result<PipeStream>> {
        type Stream = PipeStream;

        fn accept_conn(&self, _: &NetConfig) -> io::Result<PipeStream> {
            self.recv()
                .unwrap_or_else(|_| Err(io::ErrorKind::NotConnected.into()))
        }
    }

    #[test]
    fn accept_errors_are_counted_and_paced() {
        const ERRORS: u32 = 3;
        let server = ReportServer::start(ServerConfig::default());
        let stats = server.stats();
        let (feed, listener) = mpsc::channel();
        for _ in 0..ERRORS {
            // What a listener out of file descriptors returns.
            feed.send(Err(io::Error::from_raw_os_error(24))).unwrap();
        }
        let (mut client, served) = duplex();
        feed.send(Ok(served)).unwrap();
        let start = Instant::now();
        let accept = AcceptLoop::start(listener, &server, NetConfig::default());

        // The connection queued behind the errors is still served...
        hello().write_to(&mut client).unwrap();
        let mut scratch = Vec::new();
        let ack = ResponseMessage::read_from(&mut client, &mut scratch).unwrap();
        assert_eq!(ack, Some(ResponseMessage::HelloAck));
        // ...but only after a pause per error, not a busy spin.
        assert!(start.elapsed() >= ACCEPT_ERROR_PAUSE * ERRORS);
        drop(client);

        let summaries = accept.finish(move || drop(feed.send(Err(io::ErrorKind::Other.into()))));
        assert_eq!(summaries.len(), 1);
        assert_eq!(stats.accept_errors(), u64::from(ERRORS));
        assert_eq!(stats.connection_threads(), 1);
        server.finish();
    }

    #[test]
    fn a_stream_sent_to_a_retired_worker_goes_to_a_new_one() {
        let server = ReportServer::start(ServerConfig::default());
        let mut pool = Pool::new(&server, None);
        // A parked entry whose worker is already gone.
        let (gone, _) = mpsc::channel();
        lock(&pool.parked).as_mut().unwrap().push((99, gone));

        let (mut client, served) = duplex();
        pool.dispatch(served);
        WireMessage::Shutdown.write_to(&mut client).unwrap();
        drop(client);
        let summaries = pool.finish();
        assert_eq!(summaries.len(), 1);
        assert!(summaries[0].shutdown, "the stream reached a live worker");
        assert_eq!(server.stats().connection_threads(), 1);
        server.finish();
    }
}
